"""Orbit classification in ``classify_pair`` against the per-hom oracle.

``classify_pair`` classifies one hom per orbit of phi -> a.phi.b, for a in
Aut(G) and b in Aut(H), and gives the whole orbit its verdicts.  These
tests compare it with ``conftest.classify_pair_per_hom``, which composes
every hom with all of End(G) and End(H), and check the invariance that the
shortcut rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import classify_pair_per_hom, relabelled
from test_properties import group_names
from grouper.corpus import _budget_ok, _orbit_labels, classify_pair, generate_corpus
from grouper.groups import standard_group
from grouper.homs import automorphism_group, enumerate_homs

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


class TestMatchesPerHomOracle:
    def test_every_pair_at_max_order_16(self):
        for H, G in all_pairs(generate_corpus(16)):
            assert_same_verdicts(classify_pair(H, G), classify_pair_per_hom(H, G))

    def test_every_pair_of_a_relabelled_corpus(self):
        rng = np.random.default_rng(11)
        corpus = [relabelled(G, rng.permutation(G.order)) for G in generate_corpus(12)]
        for H, G in all_pairs(corpus):
            assert_same_verdicts(classify_pair(H, G), classify_pair_per_hom(H, G))

    @given(group_names, group_names)
    @settings(max_examples=40, deadline=None)
    def test_pool_pairs(self, src, tgt):
        H, G = standard_group(src), standard_group(tgt)
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
        labels = _orbit_labels(hom_set, aut, aut)
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
        labels = _orbit_labels(hom_set, aut_g, aut_h)
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
