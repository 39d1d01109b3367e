#!/usr/bin/env python3
"""Run every theorem suite over the generated corpus and print a summary."""

import argparse
import json
import sys
import time

from grouper.corpus import SUITE_IDS, generate_corpus, run_theorem_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=16)
    ap.add_argument("--socle-max-order", type=int, default=12,
                    help="smaller bound for the cubic-cost class suites")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    results = {}
    failures = 0
    for suite in SUITE_IDS:
        class_suite = suite in ("socle-cover", "radical-envelope")
        bound = args.socle_max_order if class_suite else args.max_order
        corpus = generate_corpus(bound)
        t0 = time.perf_counter()
        report = run_theorem_suite(corpus, suite)
        secs = time.perf_counter() - t0
        results[suite] = report.to_dict()
        failures += len(report.violations)
        if not args.json:
            print(
                f"{suite:18s} maxOrder={bound:3d} pairs={report.pairs_examined:5d} "
                f"checks={report.homs_classified:9d} violations={len(report.violations)} "
                f"skipped={len(report.skipped)} notes={len(report.notes)} [{secs:.1f}s]"
            )
    if args.json:
        print(json.dumps(results, sort_keys=True, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
