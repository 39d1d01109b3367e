import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import naive_lemma_draws, odd_carry_table, oracle_check_homo, relabelled
from grouper import commutators
from grouper.commutators import (
    DEFAULT_SEED,
    CentralSeries,
    LemmaConfig,
    _Tables,
    _drawn,
    _check_centrals,
    _check_homo,
    _check_identities,
    check_commutator_lemmas,
    commutator,
    is_j_central,
    j_central_by_commutators,
    left_normed_commutator,
    lower_central_series,
    nilpotency_class,
    upper_central_series,
)
from grouper.corpus import generate_corpus
from grouper.errors import InvalidOption
from grouper.groups import ORDER_CAP, FiniteGroup, Subgroup, lex_rows, standard_group


ROOT = Path(__file__).resolve().parent.parent


def naive_commutator(G, x, y):
    return G.mul(G.mul(G.mul(x, y), G.inv(x)), G.inv(y))


class TestCommutatorBasics:
    def test_matches_naive(self, groups):
        G = groups["symmetric:4"]
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.integers(0, G.order, size=2)
            assert int(commutator(G, int(x), int(y))) == naive_commutator(G, int(x), int(y))

    def test_commutator_with_self_trivial(self, groups):
        G = groups["dihedral:8"]
        for x in range(G.order):
            assert int(commutator(G, x, x)) == G.identity

    def test_left_normed_is_iterated(self, groups):
        G = groups["symmetric:4"]
        rng = np.random.default_rng(4)
        xs = [int(v) for v in rng.integers(0, G.order, size=4)]
        expect = xs[0]
        for y in xs[1:]:
            expect = naive_commutator(G, expect, y)
        assert left_normed_commutator(G, xs) == expect

    def test_empty_rejected(self, groups):
        with pytest.raises(ValueError):
            left_normed_commutator(groups["cyclic:4"], [])


class TestCentralSeries:
    def test_q8_class_two(self, groups):
        G = groups["quaternion8"]
        assert nilpotency_class(G) == 2
        lcs = lower_central_series(G)
        assert [t.order for t in lcs.terms] == [8, 2, 1]

    def test_d16_class_three(self, groups):
        G = groups["dihedral:16"]
        assert nilpotency_class(G) == 3
        ucs = upper_central_series(G)
        assert [t.order for t in ucs.terms] == [1, 2, 4, 16]

    def test_heisenberg_class_two(self, groups):
        assert nilpotency_class(groups["heisenberg:3"]) == 2

    def test_s3_not_nilpotent(self, groups):
        assert nilpotency_class(groups["symmetric:3"]) is None
        lcs = lower_central_series(groups["symmetric:3"])
        assert lcs.terms[-1].order == 3  # stabilizes at A3

    def test_abelian_class_one(self, groups):
        assert nilpotency_class(groups["cyclic:6"]) == 1

    def test_upper_series_terms_are_normal(self, groups):
        for t in upper_central_series(groups["dihedral:16"]).terms:
            assert t.is_normal


class TestJCentral:
    def test_characterization_by_commutators(self, groups):
        """x is j-central iff every length-(j+1) left-normed commutator
        starting at x vanishes."""
        G = groups["dihedral:16"]
        ucs = upper_central_series(G)
        for x in range(G.order):
            for j in (1, 2, 3):
                assert is_j_central(ucs, x, j) == j_central_by_commutators(G, x, j)


class TestLemmaChecks:
    def test_identities_hold_everywhere(self, groups):
        cfg = LemmaConfig(js=[1])
        for name in ("symmetric:3", "symmetric:4", "quaternion8", "dihedral:16"):
            reports = check_commutator_lemmas(standard_group(name), cfg)
            ident = [r for r in reports if r.lemma == "identities"]
            assert ident and all(r.ok for r in ident)

    def test_heisenberg_all_lemmas(self, groups):
        reports = check_commutator_lemmas(groups["heisenberg:3"], LemmaConfig(js=[1]))
        assert {r.lemma for r in reports} == {"identities", "centrals-1", "centrals-2", "homo"}
        assert all(r.ok for r in reports)

    def test_d16_j_two(self, groups):
        reports = check_commutator_lemmas(groups["dihedral:16"], LemmaConfig(js=[1, 2]))
        assert all(r.ok for r in reports)
        assert any(r.lemma == "centrals-2" and r.j == 2 for r in reports)

    def test_sampling_kicks_in_above_budget(self, groups):
        cfg = LemmaConfig(max_tuples=10, samples=500, js=[1])
        reports = check_commutator_lemmas(groups["dihedral:8"], cfg)
        assert any(not r.exhaustive for r in reports)
        assert all(r.ok for r in reports)

    def test_sampled_runs_deterministic(self, groups):
        cfg = LemmaConfig(max_tuples=10, samples=300, js=[1])
        a = check_commutator_lemmas(groups["dihedral:8"], cfg)
        b = check_commutator_lemmas(groups["dihedral:8"], cfg)
        assert [(r.lemma, r.tuples_checked, r.counterexamples) for r in a] == [
            (r.lemma, r.tuples_checked, r.counterexamples) for r in b
        ]

    @pytest.mark.parametrize("cfg", [
        LemmaConfig(js=[0]), LemmaConfig(js=[1, -2]), LemmaConfig(js=[1.0]), LemmaConfig(js=[True]),
        LemmaConfig(js=2), LemmaConfig(max_tuples=10, samples=-5), LemmaConfig(samples=2.5),
        LemmaConfig(samples=None), LemmaConfig(max_tuples=-1), LemmaConfig(max_tuples="10"),
        LemmaConfig(seed="x"), LemmaConfig(seed=True), LemmaConfig(seed=3.0),
    ], ids=["j0", "j-2", "j-float", "j-bool", "js-int", "samples-5", "samples-float", "samples-None",
            "max_tuples-1", "max_tuples-str", "seed-str", "seed-bool", "seed-float"])
    def test_bad_config_is_invalid_option(self, groups, cfg):
        with pytest.raises(InvalidOption) as err:
            check_commutator_lemmas(groups["dihedral:8"], cfg)
        assert err.value.code == "invalid-option"

    def test_least_config_values_run(self, groups):
        cfg = LemmaConfig(max_tuples=10, samples=0, js=(np.int64(1),))
        reports = check_commutator_lemmas(groups["dihedral:8"], cfg)
        assert [(r.lemma, r.j, r.tuples_checked) for r in reports] == [
            ("identities", None, 8), ("centrals-1", 1, 0), ("centrals-2", 1, 0), ("homo", 1, 0),
        ]
        assert all(type(r.j) is int for r in reports[1:])

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_seed_is_the_int_seed(self, groups, seed):
        cfg = LemmaConfig(max_tuples=10, samples=300, js=[1])
        got = check_commutator_lemmas(groups["dihedral:8"], LemmaConfig(**{**vars(cfg), "seed": seed}))
        want = check_commutator_lemmas(groups["dihedral:8"], LemmaConfig(**{**vars(cfg), "seed": 3}))
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert not any(r.exhaustive for r in got)

    def test_report_dict_shape(self, groups):
        rep = check_commutator_lemmas(groups["cyclic:4"], LemmaConfig(js=[1]))[0]
        d = rep.to_dict()
        assert {"group", "lemma", "tuplesChecked", "counterexamples", "exhaustive"} <= set(d)


def fake_upper_series(G):
    """A wrong 'upper central series' whose Z_1 and Z_2 are the whole group."""
    whole = Subgroup(G, list(range(G.order)))
    return CentralSeries(G, "upper", [Subgroup(G, [G.identity]), whole, whole], 2)


EXHAUSTIVE = LemmaConfig(js=[1])
SAMPLED = LemmaConfig(max_tuples=10, samples=500, js=[1])


class TestSeededViolationDetection:
    """Deliberately wrong inputs must surface counterexamples.

    This guards against vacuous checks: feed the machinery a series whose
    j-term is too large, or a table that is not associative, and verify it
    complains.  The tuple counts and counterexample lists pin the scan
    order, the 21-counterexample stop and the draw order of the sampled path.
    """

    def test_wrong_series_detected(self, groups):
        G = groups["dihedral:8"]
        rep = _check_centrals(G, 1, 1, fake_upper_series(G), EXHAUSTIVE, random.Random(0))
        assert not rep.ok
        assert (rep.tuples_checked, rep.exhaustive) == (112, True)
        assert rep.counterexamples == [
            (0, 1, 0, 2), (0, 1, 0, 4), (0, 1, 0, 5), (0, 1, 0, 7), (0, 1, 1, 2),
            (0, 1, 1, 4), (0, 1, 1, 5), (0, 1, 1, 7), (0, 1, 2, 2), (0, 1, 2, 4),
            (0, 1, 2, 5), (0, 1, 2, 7), (0, 1, 3, 2), (0, 1, 3, 4), (0, 1, 3, 5),
            (0, 1, 3, 7), (0, 1, 4, 2), (0, 1, 4, 4), (0, 1, 4, 5), (0, 1, 4, 7),
            (0, 1, 5, 2),
        ]
        rep = _check_centrals(G, 1, 1, fake_upper_series(G), SAMPLED, random.Random(0))
        assert (rep.tuples_checked, rep.exhaustive) == (40, False)
        assert rep.counterexamples == [
            (7, 4, 6, 7), (5, 2, 3, 4), (2, 4, 1, 2), (4, 1, 1, 5), (7, 5, 1, 6),
            (6, 7, 0, 5), (1, 5, 1, 7), (1, 4, 4, 1), (5, 4, 3, 7), (0, 7, 4, 1),
            (3, 4, 6, 7), (7, 1, 5, 5), (3, 4, 0, 1), (3, 2, 5, 5), (6, 1, 0, 2),
            (0, 2, 3, 1), (6, 4, 1, 1), (5, 1, 4, 7), (2, 7, 0, 6), (4, 6, 5, 4),
            (2, 7, 0, 1),
        ]

    @pytest.mark.parametrize("name, cfg, count, exhaustive, bad", [
        ("symmetric:3", LemmaConfig(), 1434, True, [
            (1, 0, 1, 2, 1), (1, 0, 1, 2, 3), (1, 0, 1, 2, 4), (1, 0, 1, 3, 1),
            (1, 0, 1, 3, 3), (1, 0, 1, 3, 4), (1, 0, 1, 4, 1), (1, 0, 1, 4, 3),
            (1, 0, 1, 4, 4), (1, 0, 1, 5, 1), (1, 0, 1, 5, 3), (1, 0, 1, 5, 4),
            (1, 0, 3, 2, 1), (1, 0, 3, 2, 3), (1, 0, 3, 2, 4), (1, 0, 3, 3, 1),
            (1, 0, 3, 3, 3), (1, 0, 3, 3, 4), (1, 0, 3, 4, 1), (1, 0, 3, 4, 3),
            (1, 0, 3, 4, 4),
        ]),
        ("symmetric:3", LemmaConfig(max_tuples=10, samples=500), 86, False, [
            (1, 3, 2, 1, 3), (1, 0, 1, 4, 4), (1, 1, 5, 1, 3), (3, 2, 4, 2, 4),
            (1, 1, 5, 4, 1), (1, 3, 4, 1, 4), (1, 0, 3, 4, 1), (3, 2, 4, 4, 4),
            (3, 2, 1, 5, 3), (2, 2, 4, 1, 4), (5, 0, 3, 1, 1), (3, 1, 4, 0, 3),
            (3, 2, 3, 5, 4), (2, 4, 4, 2, 4), (2, 2, 1, 3, 3), (4, 5, 4, 2, 3),
            (1, 1, 4, 3, 4), (2, 5, 4, 3, 3), (3, 1, 3, 2, 3), (3, 4, 4, 2, 1),
            (4, 3, 4, 5, 4),
        ]),
        ("alternating:4", LemmaConfig(), 20952, True, [
            (1, 0, 1, 2, 1), (1, 0, 1, 2, 2), (1, 0, 1, 2, 3), (1, 0, 1, 2, 6),
            (1, 0, 1, 2, 7), (1, 0, 1, 2, 8), (1, 0, 1, 2, 9), (1, 0, 1, 2, 10),
            (1, 0, 1, 4, 1), (1, 0, 1, 4, 2), (1, 0, 1, 4, 3), (1, 0, 1, 4, 6),
            (1, 0, 1, 4, 7), (1, 0, 1, 4, 8), (1, 0, 1, 4, 9), (1, 0, 1, 4, 10),
            (1, 0, 1, 5, 1), (1, 0, 1, 5, 2), (1, 0, 1, 5, 3), (1, 0, 1, 5, 6),
            (1, 0, 1, 5, 7),
        ]),
        ("alternating:4", LemmaConfig(max_tuples=10, samples=500), 62, False, [
            (11, 10, 8, 0, 7), (5, 7, 3, 6, 8), (3, 6, 4, 2, 6), (2, 1, 2, 9, 9),
            (5, 3, 8, 10, 10), (3, 2, 11, 3, 6), (2, 9, 3, 1, 3), (7, 5, 8, 5, 8),
            (4, 7, 10, 6, 2), (3, 2, 11, 9, 2), (10, 6, 1, 2, 6), (2, 7, 9, 2, 8),
            (2, 1, 6, 8, 2), (10, 7, 5, 2, 1), (7, 4, 8, 8, 8), (6, 5, 2, 11, 7),
            (5, 5, 8, 2, 8), (10, 6, 4, 9, 8), (2, 3, 10, 2, 10), (11, 0, 7, 3, 2),
            (7, 3, 8, 0, 6),
        ]),
    ], ids=["S3-exhaustive", "S3-sampled", "A4-exhaustive", "A4-sampled"])
    def test_homo_wrong_series_detected(self, groups, name, cfg, count, exhaustive, bad):
        G = groups[name]
        rep = _check_homo(G, 1, fake_upper_series(G), cfg, random.Random(5))
        assert (rep.tuples_checked, rep.exhaustive) == (count, exhaustive)
        assert rep.counterexamples == bad

    def test_non_associative_table_breaks_identities(self):
        G = FiniteGroup("odd7", odd_carry_table(7), generators=[1], check=False)
        rep = _check_identities(G, LemmaConfig(), random.Random(0))
        assert (rep.tuples_checked, rep.exhaustive) == (77, True)
        assert rep.counterexamples == [
            (1, 1, "first", 1), (1, 1, "first", 3), (1, 1, "first", 5), (1, 1, "first", 6),
            (1, 1, "second", 1), (1, 1, "second", 3), (1, 1, "second", 5),
            (1, 2, "first", 1), (1, 2, "first", 3), (1, 2, "first", 5), (1, 2, "first", 6),
            (1, 2, "second", 1), (1, 2, "second", 3), (1, 2, "second", 6),
            (1, 3, "first", 1), (1, 3, "first", 3), (1, 3, "first", 4), (1, 3, "first", 5),
            (1, 3, "first", 6), (1, 3, "second", 1), (1, 3, "second", 3),
        ]
        rep = _check_identities(G, LemmaConfig(max_tuples=10, samples=200), random.Random(0))
        assert (rep.tuples_checked, rep.exhaustive) == (28, False)
        assert rep.counterexamples == [
            (6, 3, "first", 2), (6, 3, "first", 4), (6, 3, "first", 5), (6, 3, "first", 6),
            (6, 3, "second", 2), (6, 3, "second", 4), (6, 3, "second", 5),
            (6, 3, "first", 2), (6, 3, "first", 4), (6, 3, "first", 5), (6, 3, "first", 6),
            (6, 3, "second", 2), (6, 3, "second", 4), (6, 3, "second", 5),
            (4, 3, "first", 1), (4, 3, "first", 4), (4, 3, "first", 6),
            (4, 3, "second", 1), (4, 3, "second", 3), (4, 3, "second", 4), (4, 3, "second", 5),
        ]


# A budget under which homo on A4 with j = 1 is still a grid scan, while homo
# with j = 2 on A4 and D8 samples: each of their grids takes over 20 s at CHUNK = 1.
SPLIT_PATHS = {
    "grid": LemmaConfig(max_tuples=250_000, samples=500),
    "sampled": LemmaConfig(max_tuples=10, samples=500),
}


def fake_series_reports():
    """(case, tuples_checked, counterexamples) of every fake-series check, in a fixed order."""
    out = []
    for path, cfg in SPLIT_PATHS.items():
        for name in ("symmetric:3", "alternating:4", "dihedral:8"):
            G = standard_group(name)
            for j in (1, 2):
                for variant in (1, 2):
                    rep = _check_centrals(G, variant, j, fake_upper_series(G), cfg, random.Random(5))
                    out.append(((path, name, j, rep.lemma, rep.exhaustive), rep.tuples_checked,
                                rep.counterexamples))
                rep = _check_homo(G, j, fake_upper_series(G), cfg, random.Random(5))
                out.append(((path, name, j, rep.lemma, rep.exhaustive), rep.tuples_checked,
                            rep.counterexamples))
        G = FiniteGroup("odd7", odd_carry_table(7), generators=[1], check=False)
        rep = _check_identities(G, cfg, random.Random(0))
        out.append(((path, "odd7", None, rep.lemma, rep.exhaustive), rep.tuples_checked,
                    rep.counterexamples))
    return out


def one_whole_series(G, top: bool):
    """A wrong series with one whole term among Z_1, Z_2: Z_2 if `top`, else Z_1; the other is trivial."""
    trivial, whole = Subgroup(G, [G.identity]), Subgroup(G, range(G.order))
    return CentralSeries(G, "upper", [trivial] + ([trivial, whole] if top else [whole, trivial]), None)


def default_js(upper):
    """The js `check_commutator_lemmas` takes when `LemmaConfig.js` is None."""
    return range(1, (upper.nilpotency_class or len(upper.terms) - 1) + 2)


class TestHomoHypothesesPerReport:
    """Deciding a hypothesis whose centre term is all of G once per report changes no homo report.

    Each case is checked against `oracle_check_homo`, which evaluates both
    hypotheses on every head.  The cases cover every pair of (Z_j whole,
    Z_{j+1} whole).  On a real upper series, a lone whole Z_{j+1} leaves a
    factor that holds on every head anyway ([Y, [a, X']] lies in Gamma_3, in
    Z_{c-2}), so only the one-whole fake series tell a report that drops
    both factors from one that drops the whole one alone.
    """

    @staticmethod
    def compare(cases):
        """Assert each case's report equals the oracle's; return {case: (Z_j whole, Z_{j+1} whole)}."""
        masks = {}
        for label, G, j, upper, cfg in cases:
            got, want = (check(G, j, upper, cfg, random.Random(5)) for check in (_check_homo, oracle_check_homo))
            assert (got.tuples_checked, got.exhaustive, got.counterexamples) == \
                (want.tuples_checked, want.exhaustive, want.counterexamples), (label, j)
            masks[label, j] = (upper.term(j).is_whole, upper.term(j + 1).is_whole)
        return masks

    def test_nilpotent_corpus_sampled(self):
        cfg = LemmaConfig(max_tuples=500, samples=2000)
        with_series = ((G, upper_central_series(G)) for G in generate_corpus(16))
        masks = self.compare((G.name, G, j, upper, cfg) for G, upper in with_series
                             if upper.nilpotency_class is not None for j in default_js(upper))
        assert masks["D8", 2] == (True, True)
        assert masks["D8", 1] == (False, True)  # |Z_1| = 2
        assert masks["D16", 1] == (False, False)  # |Z_1| = 2, |Z_2| = 4

    def test_default_budget(self):
        with_series = ((G, upper_central_series(G)) for G in generate_corpus(8))
        masks = self.compare((G.name, G, j, upper, LemmaConfig()) for G, upper in with_series
                             for j in default_js(upper))
        assert {masks["D8", 3], masks["D8", 1], masks["D6", 1]} == {(True, True), (False, True), (False, False)}

    def test_fake_series(self):
        cases = [(f"{name} {kind} {path}", G, j, series(G), cfg)
                 for name in ("symmetric:3", "alternating:4") for G in [standard_group(name)]
                 for kind, series in [("fake", fake_upper_series),
                                      ("top", lambda G: one_whole_series(G, True)),
                                      ("middle", lambda G: one_whole_series(G, False))]
                 for path, cfg in SPLIT_PATHS.items() for j in (1, 2)]
        masks = self.compare(cases)
        assert set(masks.values()) == {(True, True), (False, True), (True, False), (False, False)}


class TestScanChunking:
    """The scan's reports do not depend on how heads and tails are split into passes.

    With CHUNK below the number of tails, every head is scanned in several
    parts of its tail grid, and the 21-counterexample stop can fall in any part.
    """

    @pytest.fixture(scope="class")
    def reference(self):
        got = fake_series_reports()
        assert [(case[0], case[-1]) for case, _, _ in got].count(("grid", True)) == 17
        assert sum(len(bad) == commutators.LIMIT for _, _, bad in got) == 28
        return got

    @pytest.mark.parametrize("chunk", [1, 5, 37, 4096, commutators.CHUNK])
    def test_reports_match_default_chunk(self, monkeypatch, reference, chunk):
        monkeypatch.setattr(commutators, "CHUNK", chunk)
        assert fake_series_reports() == reference


class TestDefaultBudgets:
    """Default-config tuple counts; homo j=3 is the sampled path on order 8."""

    @pytest.mark.parametrize("name", ["dihedral:8", "quaternion8"])
    def test_tuple_counts(self, groups, name):
        reports = check_commutator_lemmas(groups[name])
        assert [(r.lemma, r.j, r.tuples_checked, r.exhaustive) for r in reports] == [
            ("identities", None, 512, True),
            ("centrals-1", 1, 1024, True),
            ("centrals-1", 2, 32768, True),
            ("centrals-1", 3, 262144, True),
            ("centrals-2", 1, 4096, True),
            ("centrals-2", 2, 32768, True),
            ("centrals-2", 3, 262144, True),
            ("homo", 1, 32768, True),
            ("homo", 2, 262144, True),
            ("homo", 3, 100000, False),
        ]
        assert all(r.ok for r in reports)


SAMPLED_GROUPS = ["symmetric:3", "dihedral:8", "quaternion8", "dihedral:16", "heisenberg:3"]


def drawn_heads(monkeypatch, check, *args):
    """The head rows a sampled check hands to the scan, in scan order."""
    seen = []

    def capture(heads, tail, holds, weight):
        seen.extend(tuple(row) for block in heads(commutators.CHUNK) for row in block.tolist())
        return [], 0

    monkeypatch.setattr(commutators, "_scan", capture)
    check(*args)
    return seen


class TestSampledDraws:
    """Sampled heads are exactly the draws of one `randrange` per coordinate."""

    CFG = LemmaConfig(max_tuples=10, samples=1500)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", SAMPLED_GROUPS)
    def test_identities(self, monkeypatch, groups, name, seed):
        G = groups[name]
        got = drawn_heads(monkeypatch, _check_identities, G, self.CFG, random.Random(seed))
        assert got == naive_lemma_draws(G, "identities", None, None, self.CFG.samples,
                                        random.Random(seed))

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("name", SAMPLED_GROUPS)
    def test_centrals_and_homo(self, monkeypatch, groups, name, j, seed):
        G = groups[name]
        upper = upper_central_series(G)
        if name == "symmetric:3":  # |Z_j| = 1: randrange(1) still reads words, rejecting half
            assert upper.term(j).order == upper.term(j + 1).order == 1
        for variant in (1, 2):
            got = drawn_heads(monkeypatch, _check_centrals, G, variant, j, upper, self.CFG,
                              random.Random(seed))
            assert got == naive_lemma_draws(G, f"centrals-{variant}", j, upper,
                                            self.CFG.samples, random.Random(seed))
        got = drawn_heads(monkeypatch, _check_homo, G, j, upper, self.CFG, random.Random(seed))
        want = naive_lemma_draws(G, "homo", j, upper, self.CFG.samples, random.Random(seed))
        assert got == want and len(want) > 0


def drawn_rows(seed, count, head, keep=None, tail=(), block=commutators.CHUNK):
    blocks = list(_drawn(random.Random(seed), count, head, keep, tail)(block))
    assert all(len(b) <= min(block, commutators.DRAWS) for b in blocks)
    return [tuple(row) for b in blocks for row in b.tolist()]


# every modulus up to 512, and 2^k +- 1 up to ORDER_CAP, where rejection is rarest and commonest
MODULI = sorted(set(range(1, 513)) | {
    2 ** k + d for k in range(1, ORDER_CAP.bit_length()) for d in (-1, 1) if 2 ** k + d <= ORDER_CAP
})


class TestWordStream:
    """`_drawn` reads the Mersenne Twister words exactly as `randrange` does."""

    @pytest.mark.parametrize("seed", [0, 5, DEFAULT_SEED])
    def test_single_modulus_matches_randrange(self, seed):
        for m in MODULI:
            rng = random.Random(seed)
            want = [(rng.randrange(m),) for _ in range(300)]
            assert drawn_rows(seed, len(want), [m]) == want, m

    @pytest.mark.parametrize("seed", [0, 5, DEFAULT_SEED])
    def test_mixed_moduli_keep_and_tail(self, seed):
        head, tail = [1, 6, 513, 4097], [3, 2 ** 12 - 1]

        def keep(a, b, c, d):
            return (b + c + d) % 3 != 0

        rng, want = random.Random(seed), []
        for _ in range(3000):
            row = tuple(rng.randrange(m) for m in head)
            if keep(*row):
                want.append(row + tuple(rng.randrange(m) for m in tail))
        got = drawn_rows(seed, 3000, head, keep, tail, block=700)
        assert got == want and 0 < len(want) < 3000

    @pytest.mark.parametrize("words", [1, 3, 64])
    def test_no_keep_equals_a_keep_accepting_every_head(self, monkeypatch, words):
        monkeypatch.setattr(commutators, "WORDS", words)
        head, tail = [5, 6, 6, 513], [3, 2 ** 12 - 1]
        for block in (1, 7, 2048):
            got, want = ([(b.dtype, b.shape, b.tolist()) for b in
                          _drawn(random.Random(block), 100, head, keep, tail)(block)]
                         for keep in (None, lambda a, b, c, d: np.ones(len(a), bool)))
            assert got == want and sum(shape[0] for _, shape, _ in got) == 100

    @pytest.mark.parametrize("words", [1, 3, 7, 64, commutators.WORDS])
    @pytest.mark.parametrize("head, tail", [([8] * 4, [8] * 3), ([6, 6], []), ([1], [1])],
                             ids=["8x7", "6x2", "1x2"])
    def test_one_modulus_stride_equals_the_rank_walk(self, monkeypatch, words, head, tail):
        # with fewer words a read than a sample has draws, many reads finish no sample (done = 0)
        monkeypatch.setattr(commutators, "WORDS", words)
        mod, k = head[0], len(head) + len(tail)
        stream = random.Random(words).getrandbits(32 * 16 * k * words)
        stream = np.frombuffer(stream.to_bytes(4 * 16 * k * words, "little"), "<u4")
        last = np.flatnonzero(stream >> (32 - mod.bit_length()) < mod)[k - 1::k]
        ends = np.flatnonzero((last + 1) % words == 0) + 1  # counts whose last draw ends a read
        ranks, accepted = [], commutators._accepted
        monkeypatch.setattr(commutators, "_accepted", lambda *a: ranks.append(a[3]) or accepted(*a))
        for count in (0, 1, 100, *ends[:2].tolist()):
            for block in (1, 7, 2048):
                got, want = ([(b.dtype, b.shape, b.tolist()) for b in
                              _drawn(random.Random(words), count, head, keep, tail)(block)]
                             for keep in (None, lambda *c: np.ones(len(c[0]), bool)))
                assert got == want and sum(shape[0] for _, shape, _ in got) == count
        assert len(ends) > 1 and ranks.count(False) == ranks.count(True) > 0

    def test_carries_words_across_reads(self):
        # 10 000 draws of 4-bit words, half of them rejected: about ten reads of WORDS words
        rng = random.Random(7)
        want = [(rng.randrange(10), rng.randrange(10)) for _ in range(5000)]
        assert drawn_rows(7, 5000, [10, 10], block=333) == want


def oracle_left_normed(G, k):
    """[x, z1, ..., zk] for every x (rows) and every z-tuple in lex order (columns)."""
    every = np.arange(G.order)
    zs = lex_rows([every] * k, 0, G.order ** k).T[:, None]
    return np.broadcast_to(left_normed_commutator(G, [every[:, None], *zs]), (G.order, G.order ** k))


TABLE_GROUPS = ["symmetric:3", "dihedral:8", "quaternion8", "heisenberg:3", "dihedral:8'"]


def table_group(groups, name):
    if name.endswith("'"):
        return relabelled(groups[name[:-1]], np.random.default_rng(11).permutation(8))
    return groups[name]


class TestLeftNormedTables:
    """Each left-normed table entry is [x, z1, ..., zk], read at every x and z-tuple."""

    @pytest.mark.parametrize("name", TABLE_GROUPS)
    def test_tables_match_left_normed_commutator(self, groups, name):
        G = table_group(groups, name)
        tables = _Tables(G, 3)
        assert len(tables.left) == (3 if name == "heisenberg:3" else 4)  # 27^4 entries pass the cap
        for k, table in enumerate(tables.left):
            assert table.dtype == np.int32
            assert np.array_equal(np.broadcast_to(table, (G.order, G.order ** k)),
                                  oracle_left_normed(G, k)), k

    @pytest.mark.parametrize("name", TABLE_GROUPS)
    def test_left_normed_reads_slices_and_columns(self, groups, name):
        """Row slices of the grid, and z columns, below and past the deepest table."""
        G = table_group(groups, name)
        tables, n = _Tables(G, 3), G.order
        x = np.arange(n)[:, None]
        for k in (1, 2, 3):
            want = oracle_left_normed(G, k)
            for lo, hi in [(0, n ** k), (n ** k // 3, n ** k - 1)]:
                assert np.array_equal(tables.left_normed(x, slice(lo, hi), k), want[:, lo:hi])
            zs = tuple(lex_rows([np.arange(n)] * k, 0, n ** k).T[:, None])
            assert np.array_equal(tables.left_normed(x, zs, k), want)

    def test_cap_cuts_depth(self, monkeypatch, groups):
        G = groups["dihedral:8"]
        monkeypatch.setattr(commutators, "TABLE_CAP", 8 ** 2)
        tables = _Tables(G, 3)
        assert len(tables.left) == 2  # left[0] and C only: every z goes through C lookups
        x = np.arange(8)[:, None]
        for k in (1, 2, 3):
            zs = tuple(lex_rows([np.arange(8)] * k, 0, 8 ** k).T[:, None])
            assert np.array_equal(tables.left_normed(x, zs, k), oracle_left_normed(G, k))
            assert np.array_equal(tables.left_normed(x, slice(3, 8 ** k), k),
                                  oracle_left_normed(G, k)[:, 3:])


class TestDrawWalkReads:
    """Sampled heads do not depend on how many words a read takes."""

    CFG = LemmaConfig(max_tuples=10, samples=300)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("words", [1, 3, 17, 64])
    def test_heads_match_randrange(self, monkeypatch, groups, words, seed):
        monkeypatch.setattr(commutators, "WORDS", words)
        G = groups["dihedral:8"]  # |Z_1| = 2 and |Z_2| = 8: mixed moduli for the central lemmas
        upper = upper_central_series(G)
        got = drawn_heads(monkeypatch, _check_identities, G, self.CFG, random.Random(seed))
        assert got == naive_lemma_draws(G, "identities", None, None, self.CFG.samples,
                                        random.Random(seed))
        for variant in (1, 2):
            got = drawn_heads(monkeypatch, _check_centrals, G, variant, 1, upper, self.CFG,
                              random.Random(seed))
            assert got == naive_lemma_draws(G, f"centrals-{variant}", 1, upper, self.CFG.samples,
                                            random.Random(seed))
        G = groups["symmetric:3"]  # trivial center: the homo hypotheses reject some samples
        upper = upper_central_series(G)
        got = drawn_heads(monkeypatch, _check_homo, G, 2, upper, self.CFG, random.Random(seed))
        want = naive_lemma_draws(G, "homo", 2, upper, self.CFG.samples, random.Random(seed))
        assert got == want and 0 < len(want) < self.CFG.samples

    @pytest.mark.parametrize("words", [1, 17, commutators.WORDS])
    def test_keep_rejecting_every_sample(self, monkeypatch, words):
        monkeypatch.setattr(commutators, "WORDS", words)
        assert drawn_rows(3, 2000, [5, 7], lambda a, b: a < 0, [3, 9]) == []


def test_lemma_path_never_imports_numpy_random():
    """Importing numpy.random costs every lemma run 8-18 ms and 5-6 MB of peak; perfbench would
    not see it at a non-zero seed, where its own relabelling imports numpy.random."""
    code = (
        "import sys\n"
        "import grouper\n"
        "from grouper.commutators import check_commutator_lemmas\n"
        "from grouper.corpus import generate_corpus, run_theorem_suite\n"
        "from grouper.groups import standard_group\n"
        "reports = check_commutator_lemmas(standard_group('dihedral:8'))\n"
        "assert [(r.lemma, r.j) for r in reports if not r.exhaustive] == [('homo', 3)]\n"
        "run_theorem_suite(generate_corpus(8), 'lemmas')\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
