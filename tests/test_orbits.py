"""Pair verdicts from image and kernel counts, against the per-hom oracle.

``classify_source`` classifies all targets of a source at once, and
``classify_pair`` classifies one.  Both read every verdict from counts
that depend on a hom phi only through Im phi and ker phi: f.phi = g.phi
exactly when f and g agree on Im phi, and phi.f = phi.g exactly when they
agree modulo ker phi.  Those counts are memoized on the target per image
and on the source per kernel, and shared by every source and target.
These tests compare the verdicts with ``conftest.classify_pair_per_hom``,
which composes every hom with all of End(G) and End(H), whatever the
targets of a run, their order, the order of the sources, the labelling
and the memos already filled; and they check that the verdicts are
invariant under phi -> a.phi.b (a in Aut(G), b in Aut(H)), which holds
for the oracle as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import classify_pair_per_hom, relabelled
from test_properties import group_names
from grouper.approx import classify_hom
from grouper.corpus import _budget_ok, classify_pair, classify_source, generate_corpus
from grouper.groups import GroupHom, standard_group
from grouper.homs import automorphism_group, enumerate_homs, orbit_labels

FIELDS = ("matrix", "is_envelope", "is_localization", "is_cover", "is_cellular",
          "is_preenvelope", "is_precover", "galois_orders", "co_galois_orders")


def assert_same_verdicts(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (got.source.name, got.target.name, name)
        assert (a == b).all(), (got.source.name, got.target.name, name)


def moved(hom_set, a_perm, b_perm):
    """Index of a.phi.b for every hom phi of ``hom_set``, checked on full rows."""
    rows = a_perm[hom_set.matrix[:, b_perm]]
    idx = hom_set.locate(rows[:, hom_set.gens])
    assert (hom_set.matrix[idx] == rows).all()
    return idx


def all_pairs(corpus):
    return [(H, G) for H in corpus for G in corpus if _budget_ok(H, G)]


# which of a source's budgeted targets one run classifies, and in what order
TARGET_ORDERS = {
    "corpus order": lambda targets: targets,
    "reverse order": lambda targets: targets[::-1],
    "every other": lambda targets: targets[::2],
}


def run_verdicts(corpus, pick, warm_first=False) -> dict:
    """Verdicts by (source, target) name from one ``classify_source`` run per source,
    over fresh copies of ``corpus`` (empty memos), with the targets ``pick`` selects.

    With ``warm_first``, one ``classify_hom`` call per source (its last hom
    into its last picked target) first fills some of the count memos, and
    the sources then run in reverse order.
    """
    fresh = [G.renamed(G.name) for G in corpus]
    targets = {H.name: pick([G for G in fresh if _budget_ok(H, G)]) for H in fresh}
    sources = fresh
    if warm_first:
        for H in fresh:
            G = targets[H.name][-1]
            classify_hom(GroupHom(H, G, enumerate_homs(H, G).matrix[-1], check=False))
        sources = fresh[::-1]
    out = {}
    for H in sources:
        classify_source(H, targets[H.name])
        for G in targets[H.name]:
            assert H.memoized(("verdicts", G))
            out[H.name, G.name] = classify_pair(H, G)
    return out


def assert_runs_match_oracle(corpus):
    """Whole-source runs, in each target order and with the sources reversed after
    ``classify_hom`` calls, and classify_pair, on ``corpus`` as its memos stand and on fresh
    copies, agree with the oracle."""
    runs = [run_verdicts(corpus, pick) for pick in TARGET_ORDERS.values()]
    runs.append(run_verdicts(corpus, TARGET_ORDERS["corpus order"], warm_first=True))
    for H, G in all_pairs(corpus):
        want = classify_pair_per_hom(H, G)
        assert_same_verdicts(classify_pair(H, G), want)
        assert_same_verdicts(classify_pair(H.renamed(H.name), G.renamed(G.name)), want)
        for got in runs:
            if (H.name, G.name) in got:
                assert_same_verdicts(got[H.name, G.name], want)


class TestMatchesPerHomOracle:
    def test_every_pair_at_max_order_16(self):
        assert_runs_match_oracle(generate_corpus(16))

    def test_every_pair_of_a_relabelled_corpus(self):
        rng = np.random.default_rng(11)
        assert_runs_match_oracle([relabelled(G, rng.permutation(G.order)) for G in generate_corpus(12)])

    @pytest.mark.parametrize("names", [
        ["cyclic:1", "cyclic:2", "cyclic:3", "symmetric:3", "quaternion8", "cyclic:2"],
        ["cyclic:1", "cyclic:2"],
    ])
    def test_runs_with_trivial_aut_targets_and_one_hom_pairs(self, names):
        """Aut(C1) and Aut(C2) are trivial; C1 -> G, G -> C1 and C3 -> C2 have one hom each.
        A target may be listed twice.  The groups are fresh copies, with empty memos."""
        fresh = {n: standard_group(n).renamed(n) for n in names}
        groups = [fresh[n] for n in names]
        one_hom = 0
        for H in groups:
            classify_source(H, groups)
            for G in groups:
                assert H.memoized(("verdicts", G))
                got = classify_pair(H, G)
                assert_same_verdicts(got, classify_pair_per_hom(H, G))
                one_hom += len(got) == 1
        assert one_hom >= 2 * len(groups) - 1

    @given(group_names, group_names, st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pool_pairs(self, src, tgt, seed):
        """Relabelled copies of pool groups, with empty memos."""
        rng = np.random.default_rng(seed)
        H, G = (relabelled(X, rng.permutation(X.order)) for X in (standard_group(src), standard_group(tgt)))
        assert_same_verdicts(classify_pair(H, G), classify_pair_per_hom(H, G))


class TestInvariance:
    @pytest.mark.parametrize("classify", [classify_pair, classify_pair_per_hom])
    def test_verdicts_constant_on_aut_orbits(self, classify):
        """a.phi.b gets the verdict row of phi, for random a in Aut(G) and b in Aut(H)."""
        rng = np.random.default_rng(5)
        corpus = generate_corpus(12)
        for H, G in all_pairs(corpus):
            v = classify(H, G)
            hom_set = enumerate_homs(H, G)
            aut_g, aut_h = automorphism_group(G), automorphism_group(H)
            for _ in range(3):
                a, b = rng.integers(aut_g.order), rng.integers(aut_h.order)
                idx = moved(hom_set, aut_g.perms[a], aut_h.perms[b])
                for name in FIELDS[1:]:
                    arr = getattr(v, name)
                    assert (arr[idx] == arr).all(), (H.name, G.name, name)


class TestOrbitLabels:
    def test_end_of_elementary_abelian_eight_has_one_orbit_per_rank(self):
        G = standard_group("product:cyclic:2,cyclic:2,cyclic:2")
        hom_set, aut = enumerate_homs(G, G), automorphism_group(G)
        assert aut.order == 168  # GL(3, 2)
        labels = orbit_labels(hom_set, aut, aut)
        reps, sizes = np.unique(labels, return_counts=True)
        image_sizes = [len(np.unique(row)) for row in hom_set.matrix[reps]]
        # rank r: image of order 2^r; orbits of 1, 49, 294 and 168 matrices over F2
        assert sorted(zip(image_sizes, sizes.tolist())) == [(1, 1), (2, 49), (4, 294), (8, 168)]

    @pytest.mark.parametrize("src,tgt", [
        ("product:cyclic:2,cyclic:2,cyclic:2", "product:cyclic:2,cyclic:2,cyclic:2"),
        ("dihedral:8", "symmetric:4"),
        ("product:cyclic:2,cyclic:4", "dihedral:8"),
        ("quaternion8", "product:cyclic:2,cyclic:2"),
    ])
    def test_labels_are_least_members_and_fixed_by_every_move(self, src, tgt):
        H, G = standard_group(src), standard_group(tgt)
        hom_set = enumerate_homs(H, G)
        aut_g, aut_h = automorphism_group(G), automorphism_group(H)
        labels = orbit_labels(hom_set, aut_g, aut_h)
        ident_g, ident_h = np.arange(G.order), np.arange(H.order)
        moves = [moved(hom_set, aut_g.perms[a], ident_h) for a in aut_g.generators]
        moves += [moved(hom_set, ident_g, aut_h.perms[b]) for b in aut_h.generators]
        for move in moves:
            assert (labels[move] == labels).all()
        for label in np.unique(labels):
            assert np.flatnonzero(labels == label)[0] == label
        # no two labels share an orbit: the orbit of each least member, by brute force
        for label in np.unique(labels).tolist():
            orbit = {label}
            frontier = [label]
            while frontier:
                i = frontier.pop()
                for move in moves:
                    j = int(move[i])
                    if j not in orbit:
                        orbit.add(j)
                        frontier.append(j)
            assert set(np.flatnonzero(labels == label).tolist()) == orbit
