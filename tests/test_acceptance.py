"""Acceptance gate: one test per acceptance criterion.

Each test prints a single ``criterion-N: PASS`` line (visible in the
terminal even under capture) and enforces its wall-clock budget.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import forget_memos, naive_hom_images
from grouper.approx import classify_hom
from grouper.commutators import LemmaConfig, check_commutator_lemmas
from grouper.corpus import generate_corpus, run_theorem_suite
from grouper.groups import GroupHom, describe_structure, standard_group
from grouper.homs import enumerate_homs
from grouper.simple import simple_envelope_criterion


def _report(capfd, n, ok, elapsed, detail):
    line = f"criterion-{n}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}"
    with capfd.disabled():
        print(line)
    assert ok, line


def first_embedding(H, G):
    return next(h for h in enumerate_homs(H, G).homs if h.is_injective)


def test_criterion_01_c3_in_s3_envelope_with_galois_c3(capfd):
    t0 = time.perf_counter()
    C3, S3 = standard_group("cyclic:3"), standard_group("symmetric:3")
    r = classify_hom(first_embedding(C3, S3))
    elapsed = time.perf_counter() - t0
    ok = (
        r.flags["isEnvelope"]
        and r.galois_order == 3
        and describe_structure(r.galois.as_group()) == "C3"
        and elapsed < 1.0
    )
    _report(capfd, 1, ok, elapsed, "C3 -> S3 envelope, Galois C3")


def test_criterion_02_cyclic_prime_power_classification(capfd):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for p in (2, 3):
        gs = {k: standard_group(f"cyclic:{p ** k}") for k in (1, 2, 3)}
        for r_exp, s_exp in itertools.product((1, 2, 3), repeat=2):
            H, G = gs[r_exp], gs[s_exp]
            pr, ps = p ** r_exp, p ** s_exp
            if s_exp <= r_exp:
                canonical = np.array([i % ps for i in range(pr)], dtype=np.int32)
                rep = classify_hom(GroupHom(H, G, canonical))
                ok &= rep.flags["isLocalization"] and rep.flags["isEnvelope"]
            else:
                canonical = np.array(
                    [(i * ps // pr) % ps for i in range(pr)], dtype=np.int32
                )
                rep = classify_hom(GroupHom(H, G, canonical))
                ok &= rep.flags["isEnvelope"] and not rep.flags["isLocalization"]
            # localizations are exactly the surjective homs here
            for phi in enumerate_homs(H, G).homs:
                flags = classify_hom(phi).flags
                ok &= flags["isLocalization"] == phi.is_surjective
                checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(capfd, 2, ok, elapsed, f"Z/p^r -> Z/p^s over p in {{2,3}}, {checked} homs")


def test_criterion_03_a5_in_s5_envelope_not_localization(capfd):
    t0 = time.perf_counter()
    A5, S5 = standard_group("alternating:5"), standard_group("symmetric:5")
    phi = first_embedding(A5, S5)
    r = classify_hom(phi)
    witness_ok = False
    for w in r.witnesses:
        if w.flag == "isLocalization" and w.kind == "non-injective-pair":
            f1 = np.array(w.data["first"], dtype=np.int32)
            f2 = np.array(w.data["second"], dtype=np.int32)
            witness_ok = (
                not (f1 == f2).all() and (f1[phi.images] == f2[phi.images]).all()
            )
    elapsed = time.perf_counter() - t0
    ok = (
        r.flags["isEnvelope"]
        and not r.flags["isLocalization"]
        and witness_ok
        and elapsed < 300
    )
    _report(capfd, 3, ok, elapsed, "A5 -> S5 envelope, not localization, witness pair")


def test_criterion_04_cogalois_suite(capfd):
    t0 = time.perf_counter()
    corpus = generate_corpus(16)
    report = run_theorem_suite(corpus, "cogalois", jobs=4)
    elapsed = time.perf_counter() - t0
    ok = report.violations == [] and elapsed < 600
    _report(
        capfd, 4, ok, elapsed,
        f"cogalois suite maxOrder 16: {report.homs_classified} homs, "
        f"{len(report.violations)} violations",
    )


def test_criterion_05_galois_suite(capfd):
    t0 = time.perf_counter()
    corpus = generate_corpus(16)
    report = run_theorem_suite(corpus, "galois", jobs=4)
    elapsed = time.perf_counter() - t0
    ok = report.violations == [] and elapsed < 600
    _report(
        capfd, 5, ok, elapsed,
        f"galois suite maxOrder 16: {report.homs_classified} homs, "
        f"{len(report.violations)} violations",
    )


def test_criterion_06_commutator_lemmas(capfd):
    t0 = time.perf_counter()
    ok = True
    # base identities, exhaustively, on every corpus group of order <= 16
    for G in generate_corpus(16):
        for rep in check_commutator_lemmas(G, LemmaConfig(js=[1])):
            if rep.lemma == "identities":
                ok &= rep.ok and rep.exhaustive
    # central-series lemmas on the two designated nilpotent groups
    sampled_seen = False
    heis = standard_group("heisenberg:3")
    for rep in check_commutator_lemmas(heis, LemmaConfig(js=[1])):
        ok &= rep.ok
        sampled_seen |= not rep.exhaustive
    d16 = standard_group("dihedral:16")
    for rep in check_commutator_lemmas(d16, LemmaConfig(js=[1, 2])):
        ok &= rep.ok
        sampled_seen |= not rep.exhaustive
    ok &= sampled_seen  # the big tuple spaces must have used sampling
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600
    _report(capfd, 6, ok, elapsed, "identities <=16 exhaustive; heis(3) j=1, D16 j<=2")


def test_criterion_07_a5_in_a6_criterion(capfd):
    t0 = time.perf_counter()
    A5, A6 = standard_group("alternating:5"), standard_group("alternating:6")
    rep = simple_envelope_criterion(first_embedding(A5, A6), cross_check=True)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.every_automorphism_extends
        and rep.copies_conjugate_under_aut
        and rep.predicted_galois_order == 1
        and rep.direct_is_envelope is True
        and rep.direct_is_localization is True
        and rep.direct_galois_order == 1
        and elapsed < 900
    )
    _report(
        capfd, 7, ok, elapsed,
        f"A5 -> A6: conditions hold, Galois order 1, {rep.copy_count} copies in 1 orbit",
    )


ORACLE_PAIRS = [
    ("cyclic:2", "cyclic:8"),
    ("cyclic:8", "cyclic:2"),
    ("cyclic:5", "cyclic:5"),
    ("cyclic:3", "alternating:4"),
    ("alternating:4", "cyclic:2"),
    ("quaternion8", "cyclic:3"),
    ("symmetric:3", "symmetric:3"),
    ("cyclic:6", "cyclic:6"),
    ("product:cyclic:2,cyclic:2", "dihedral:8"),
    ("dihedral:8", "cyclic:4"),
    ("cyclic:4", "dihedral:8"),
    ("product:cyclic:2,cyclic:4", "cyclic:4"),
]


def test_criterion_08_oracle_equivalence(capfd):
    t0 = time.perf_counter()
    ok = True
    for src, tgt in ORACLE_PAIRS:
        H, G = standard_group(src), standard_group(tgt)
        assert G.order ** H.order <= 10 ** 7
        got = sorted(tuple(int(x) for x in row) for row in enumerate_homs(H, G).matrix)
        ok &= got == naive_hom_images(H, G)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120
    _report(capfd, 8, ok, elapsed, f"pruned enumeration = set-map oracle on {len(ORACLE_PAIRS)} pairs")


def test_criterion_09_socle_and_radical_suites(capfd):
    t0 = time.perf_counter()
    corpus = generate_corpus(12)
    socle = run_theorem_suite(corpus, "socle-cover", jobs=4)
    radical = run_theorem_suite(corpus, "radical-envelope", jobs=4)
    elapsed = time.perf_counter() - t0
    ok = socle.violations == [] and radical.violations == [] and elapsed < 600
    _report(
        capfd, 9, ok, elapsed,
        f"socle-cover ({socle.homs_classified} checks, {len(socle.notes)} notes) "
        f"and radical-envelope ({radical.homs_classified} checks) clean",
    )


def test_criterion_10_jobs_determinism(capfd):
    t0 = time.perf_counter()
    args = [sys.executable, "-m", "grouper.cli", "--format", "json",
            "verify", "--suite", "galois", "--max-order", "12"]
    out1 = subprocess.run(args + ["--jobs", "1"], capture_output=True, check=True).stdout
    out8 = subprocess.run(args + ["--jobs", "8"], capture_output=True, check=True).stdout
    # the same check in-process: suites run serially whatever jobs is, the second run from empty memos
    corpus = generate_corpus(12)
    r1 = run_theorem_suite(corpus, "cogalois", jobs=1).to_dict()
    forget_memos(corpus)
    r8 = run_theorem_suite(corpus, "cogalois", jobs=8).to_dict()
    elapsed = time.perf_counter() - t0
    ok = out1 == out8 and len(out1) > 0 and json.dumps(r1) == json.dumps(r8)
    _report(capfd, 10, ok, elapsed, "JSON byte-identical for --jobs 1 vs --jobs 8")
