"""One benchmark workload in a fresh process: set up, run the timed region, check.

Usage (normally started by ``perfbench/run.py``)::

    python3 perfbench/workloads.py WORKLOAD --seed N --spawned-at T [--trace] [--setup-only]

``--spawned-at`` is the ``time.monotonic()`` reading the parent took just
before starting this process; on Linux that clock is shared by all
processes, so ``setup_s`` covers interpreter start, imports and building
and relabelling the input groups.  The timed region covers the library
calls only; its ends are reported on that clock too (``timed_from``,
``timed_to``).  The process prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def import_grouper():
    """Import grouper from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import grouper

    if Path(grouper.__file__).resolve().parent != SRC / "grouper":
        raise ImportError(f"grouper imported from {grouper.__file__}, not {SRC}")


def relabel(G, rng):
    """Copy of G whose element i is renamed p[i] for a random permutation p."""
    import numpy as np
    from grouper.groups import FiniteGroup

    p = rng.permutation(G.order).astype(np.int32)
    table = np.empty_like(G.table)
    table[np.ix_(p, p)] = p[G.table]
    return FiniteGroup(G.name, table, generators=[int(p[g]) for g in G.generators],
                       identity=int(p[G.identity]))


def relabel_all(groups, seed: int):
    """Seed 0 keeps grouper's own labelling; any other seed relabels every group."""
    if seed == 0:
        return list(groups)
    import numpy as np

    rng = np.random.default_rng(seed)
    return [relabel(G, rng) for G in groups]


# -- workloads: build(seed) -> inputs (set-up); run(inputs) -> outputs (timed) --

def _suite_outputs(report) -> dict:
    return {
        "pairs": report.pairs_examined,
        "homs": report.homs_classified,
        "violations": len(report.violations),
        "skipped": len(report.skipped),
        "notes": len(report.notes),
    }


def _suites(corpus, suite_ids, jobs):
    from grouper.corpus import run_theorem_suite

    outputs, walls, pair_seconds = {}, {}, []
    for suite in suite_ids:
        t0 = time.perf_counter()
        report = run_theorem_suite(corpus, suite, jobs=jobs)
        walls[suite] = time.perf_counter() - t0
        outputs[suite] = _suite_outputs(report)
        pair_seconds.extend(report.pair_seconds.values())
    return outputs, {"suite_wall_s": walls, "pair_seconds": pair_seconds}


def build_corpus(max_order: int, seed: int):
    from grouper.corpus import generate_corpus

    return relabel_all(generate_corpus(max_order), seed)


def build_simple(seed: int):
    from grouper.groups import standard_group

    # A6 keeps grouper's labelling under every seed: under about half of all
    # relabellings grouper's greedy generating set of A6 has three elements
    # instead of two, which doubles the run time (perfbench/README.md).
    A5, S5 = relabel_all([standard_group("alternating:5"), standard_group("symmetric:5")], seed)
    return A5, standard_group("alternating:6"), S5


def _first_embedding(H, G):
    from grouper.homs import enumerate_homs

    return next(h for h in enumerate_homs(H, G).homs if h.is_injective)


def run_simple(inputs):
    from grouper.approx import classify_hom
    from grouper.simple import simple_envelope_criterion

    A5, A6, S5 = inputs
    crit = simple_envelope_criterion(_first_embedding(A5, A6), cross_check=True)
    cls = classify_hom(_first_embedding(A5, S5))
    outputs = {
        "criterion-a5-a6": {
            "applicable": crit.applicable,
            "sourceSimple": crit.source_simple,
            "everyAutomorphismExtends": crit.every_automorphism_extends,
            "copiesConjugateUnderAut": crit.copies_conjugate_under_aut,
            "copyCount": crit.copy_count,
            "orbitCount": crit.orbit_count,
            "predictedGaloisOrder": crit.predicted_galois_order,
            "directIsEnvelope": crit.direct_is_envelope,
            "directIsLocalization": crit.direct_is_localization,
            "directGaloisOrder": crit.direct_galois_order,
            "agrees": crit.agrees,
        },
        "classify-a5-s5": dict(
            {k: bool(v) for k, v in cls.flags.items()},
            galoisOrder=cls.galois_order,
            coGaloisOrder=cls.co_galois_order,
        ),
    }
    return outputs, {}


# Why each workload: see perfbench/README.md.  THREADS is how many threads
# a workload's timed region runs grouper on (its ``jobs``).
THREADS = {"galois-suites": 2, "simple-a6": 1, "class-suites": 1, "lemmas": 1}
SPECS = {
    "galois-suites": (lambda seed: build_corpus(20, seed),
                      lambda c: _suites(c, ("cogalois", "galois"), jobs=2)),
    "simple-a6": (build_simple, run_simple),
    "class-suites": (lambda seed: build_corpus(12, seed),
                     lambda c: _suites(c, ("socle-cover", "radical-envelope"), jobs=1)),
    "lemmas": (lambda seed: build_corpus(10, seed),
               lambda c: _suites(c, ("lemmas",), jobs=1)),
}


def install_tracer():
    """Trace every layer function the per-layer metrics name."""
    from grouper import approx, commutators, corpus, groups, homs, simple
    from tracer import Tracer

    tr = Tracer()

    def add(counters, key, value):
        counters[key] = counters.get(key, 0) + value

    def hom_rows(counters, result, miss):
        if miss:
            add(counters, "homs.enumerate_homs.rows", len(result))

    def aut_rows(counters, result, miss):
        if miss:
            add(counters, "homs.automorphism_group.aut_rows", result.order)

    def lemma_counts(counters, reports, miss):
        add(counters, "commutators.tuples_checked", sum(r.tuples_checked for r in reports))
        add(counters, "commutators.sampled_reports", sum(not r.exhaustive for r in reports))

    tr.install(corpus, "classify_pair", "corpus.classify_pair")
    tr.install(homs, "enumerate_homs", "homs.enumerate_homs", hom_rows)
    tr.install(homs, "automorphism_group", "homs.automorphism_group", aut_rows)
    tr.install(homs, "find_isomorphism", "homs.find_isomorphism")
    tr.install(groups, "are_isomorphic", "groups.are_isomorphic")
    tr.install(groups, "subgroup_generated", "groups.subgroup_generated")
    tr.install(groups, "quotient_group", "groups.quotient_group")
    tr.install(approx.GroupClass, "contains", "approx.GroupClass.contains")
    tr.install(approx, "f_socle", "approx.f_socle")
    tr.install(approx, "local_kernel", "approx.local_kernel")
    tr.install(approx, "classify_hom", "approx.classify_hom")
    tr.install(approx, "galois_group", "approx.galois_group")
    tr.install(simple, "simple_envelope_criterion", "simple.simple_envelope_criterion")
    tr.install(simple, "subgroups_isomorphic_to", "simple.subgroups_isomorphic_to")
    tr.install(commutators, "check_commutator_lemmas", "commutators.check_commutator_lemmas",
               lemma_counts)
    tr.install(commutators, "upper_central_series", "commutators.upper_central_series")
    return tr


def check(outputs: dict, expected: dict) -> list:
    """Names of the expected values that the outputs do not reproduce."""
    bad = []
    for group_key, values in expected.items():
        got = outputs.get(group_key, {})
        for key, want in values.items():
            if got.get(key) != want:
                bad.append(f"{group_key}.{key}: expected {want!r}, got {got.get(key)!r}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=tuple(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_grouper()
    import numpy

    build, run = SPECS[args.workload]
    inputs = build(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = install_tracer() if args.trace else None
    cpu0 = time.process_time()
    timed_from = time.monotonic()
    t0 = time.perf_counter()
    outputs, timings = run(inputs)
    wall_s = time.perf_counter() - t0
    timed_to = time.monotonic()
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = json.loads(EXPECTED.read_text())[args.workload]
    if tracer is None:
        expected.pop("trace", None)
    else:
        result["layers"] = tracer.snapshot()
        outputs["trace"] = {k: result["layers"].get(k, 0) for k in expected["trace"]}
    result.update(wall_s=wall_s, timed_from=timed_from, timed_to=timed_to, cpu_s=cpu_s,
                  peak_rss_mb=peak_rss_mb, outputs=outputs,
                  mismatches=check(outputs, expected), **timings)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
