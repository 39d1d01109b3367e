#!/usr/bin/env python3
"""Compare two checkouts with perfbench in alternating runs and record the result.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload lemmas --pairs 10 \\
        --seconds 10 --seed 3 --name lemmas --out BENCH_9.json

PARENT and CHANGE are two checkouts of grouper, each with its own
`perfbench/`.  A pair runs `perfbench/run.py` once in each, the parent first
in even pairs and the change first in odd ones, so that drift in machine
speed hits both alike.  The record under NAME in the --out file keeps every
`# meta` and result line, and per metric the median and quartiles of each
side and the number of pairs in which the change read lower (every
end-to-end metric of perfbench is better lower), and each side's resolved
checkout path.  Other names already in the file are kept.  A closing line
per metric prints both medians and the pairs the change won.  A failing
perfbench run ends the script with exit status 2, after the pair, the side
and the end of the run's stderr.

The record also keeps, per side, the `correct`, `failed` and `attempted`
values of each run's result line, and a closing line per side names the
pairs whose run reported incorrect outputs and the failed and attempted
checks over all runs.  When any run reported `"correct": false`, the
script exits with status 2 after writing the record.

The two checkout paths must have the same length: `peak_rss_mb` moves by
tenths of a MB with the checkout's directory name, so when the lengths
differ the script exits with status 2 before the first pair.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One perfbench run: its `# meta` line and its result line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    meta = next(line for line in lines if line.startswith("# meta "))
    return {"meta": json.loads(meta[len("# meta "):]), "result": json.loads(lines[-1])}


def summarize(runs: dict) -> dict:
    """Per metric: each side's values, median and quartiles, and the pairs the change won."""
    out = {}
    for name in runs["parent"][0]["result"]["metrics"]:
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        entry = {"unit": runs["parent"][0]["result"]["metrics"][name]["unit"]}
        for side in SIDES:
            vs = values[side]
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            entry[side] = {"values": vs, "median": statistics.median(vs), "q1": q1, "q3": q3}
        entry["change_wins"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry["pairs"] = len(values["parent"])
        out[name] = entry
    return out


def outcomes(runs: dict) -> dict:
    """Per side: each run's `correct`, `failed` and `attempted` values, in pair order."""
    return {side: {k: [r["result"].get(k) for r in runs[side]] for k in ("correct", "failed", "attempted")}
            for side in SIDES}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", default="lemmas")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--name", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    checkouts = {"parent": str(args.parent.resolve()), "change": str(args.change.resolve())}
    if len(checkouts["parent"]) != len(checkouts["change"]):
        print(f"# error: the checkout paths differ in length ({len(checkouts['parent'])} and "
              f"{len(checkouts['change'])} characters); peak_rss_mb moves with the checkout's "
              "directory name", file=sys.stderr)
        return 2
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            checkout = args.parent if side == "parent" else args.change
            try:
                runs[side].append(run_once(checkout, args.workload, args.seconds, args.seed))
            except subprocess.CalledProcessError as e:
                print(f"# pair {i} {side}: perfbench/run.py in {checkout} exited {e.returncode}; "
                      f"end of its stderr:\n{e.stderr[-2000:]}", file=sys.stderr)
                return 2
            metrics = runs[side][-1]["result"]["metrics"]
            print(f"# pair {i} {side}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in metrics.items()), flush=True)

    metrics = summarize(runs)
    for name, m in metrics.items():
        print(f"# {name}: parent median {m['parent']['median']:.4g}, change median "
              f"{m['change']['median']:.4g} {m['unit']}; change lower in {m['change_wins']} "
              f"of {m['pairs']} pairs")
    checks = outcomes(runs)
    for side, c in checks.items():
        print(f"# {side}: incorrect in pairs {[i for i, ok in enumerate(c['correct']) if ok is False]}; "
              f"failed {sum(n or 0 for n in c['failed'])} of {sum(n or 0 for n in c['attempted'])} attempted")
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.name] = {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} "
                   f"--seed {args.seed}",
        "order": "parent first in even pairs, change first in odd pairs",
        "src_lines": {side: runs[side][0]["meta"]["src_lines"] for side in SIDES},
        "checkouts": checkouts,
        "metrics": metrics,
        "outcomes": checks,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 2 if any(False in c["correct"] for c in checks.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
