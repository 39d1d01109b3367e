#!/usr/bin/env python3
"""Check that two checkouts print the same `grouper --format json verify` output.

    python3 scripts/compare_verify.py PARENT CHANGE --suite cogalois --max-order 16

PARENT and CHANGE are two checkouts of grouper.  The script runs
`python -m grouper.cli --format json verify --suite S --max-order N` with
each checkout's `src/` on `PYTHONPATH`, and compares the two outputs byte by
byte.  It prints each side's time and the size of its output.  It exits 0
when the outputs are identical, and 1 on any difference, after printing the
number and both versions of the first differing line.  A run that fails ends
the script with exit status 2, after that run's stderr.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path


def verify_output(checkout: Path, suite: str, max_order: int) -> bytes:
    """stdout of one `verify` run of the checkout; exits 2 if the run fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "grouper.cli", "--format", "json", "verify", "--suite", suite,
         "--max-order", str(max_order)],
        capture_output=True, env=env,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"{checkout}: verify exited {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        sys.exit(2)
    print(f"{checkout}: {seconds:.2f} s, {len(proc.stdout)} bytes")
    return proc.stdout


def first_difference(a: bytes, b: bytes):
    """(line number, line of a, line of b) of the first differing line, or None."""
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else b"<end of output>"
        y = lb[i] if i < len(lb) else b"<end of output>"
        if x != y:
            return i + 1, x, y
    return None if a == b else (len(la), b"<trailing bytes differ>", b"")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--suite", required=True)
    ap.add_argument("--max-order", type=int, required=True)
    args = ap.parse_args(argv)
    a = verify_output(args.parent, args.suite, args.max_order)
    b = verify_output(args.change, args.suite, args.max_order)
    diff = first_difference(a, b)
    if diff is None:
        print(f"identical: {args.suite} at max-order {args.max_order}")
        return 0
    line, x, y = diff
    print(f"differ at line {line}:")
    print(f"  parent: {x.decode(errors='replace')}")
    print(f"  change: {y.decode(errors='replace')}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
