"""Property-based checks over randomly drawn small groups and homs."""

import random
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from conftest import naive_hom_images, oracle_aut_table, relabelled
from grouper.approx import classify_hom, galois_group
from grouper import commutators
from grouper.commutators import _drawn, commutator
from grouper.groups import GroupHom, build_from_permutations, identity_hom, standard_group, subgroup_generated
from grouper.homs import automorphism_group, enumerate_homs

POOL = [
    "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "cyclic:8",
    "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4",
    "dihedral:6", "dihedral:8", "quaternion8", "symmetric:3", "alternating:4",
]

group_names = st.sampled_from(POOL)


def pick_hom(src, tgt, index):
    hs = enumerate_homs(standard_group(src), standard_group(tgt))
    return hs.homs[index % len(hs)]


@given(group_names, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_subgroup_generated_is_closed(name, seed_bits):
    G = standard_group(name)
    rng = np.random.default_rng(seed_bits)
    seed = rng.integers(0, G.order, size=2).tolist()
    sub = subgroup_generated(G, seed)
    for a in sub.members:
        for b in sub.members:
            assert sub.contains(int(G.table[a, b]))
        assert sub.contains(int(G.inverses[a]))


@given(group_names, group_names, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_every_enumerated_hom_is_multiplicative(src, tgt, index):
    phi = pick_hom(src, tgt, index)
    H, G = phi.source, phi.target
    rng = np.random.default_rng(index + 1)
    for _ in range(20):
        a, b = rng.integers(0, H.order, size=2)
        assert phi.images[H.table[a, b]] == G.table[phi.images[a], phi.images[b]]


@given(group_names, group_names, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_flag_implications(src, tgt, index):
    phi = pick_hom(src, tgt, index)
    flags = classify_hom(phi).flags
    if flags["isEnvelope"] or flags["isLocalization"]:
        assert flags["isPreenvelopeOfTargetClass"]
    if flags["isCover"] or flags["isCellularCover"]:
        assert flags["isPrecoverOfSourceClass"]


@given(group_names)
@settings(max_examples=20, deadline=None)
def test_identity_hom_all_flags(name):
    r = classify_hom(identity_hom(standard_group(name)))
    assert all(r.flags.values())
    assert r.galois_order == 1 and r.co_galois_order == 1


@given(group_names, group_names, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_galois_group_is_subgroup(src, tgt, index):
    phi = pick_hom(src, tgt, index)
    sub = galois_group(phi, "target")
    table = oracle_aut_table(sub.aut)
    for a in sub.members:
        for b in sub.members:
            assert sub.contains(int(table[a, b]))


@given(group_names, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_commutator_identity_random(name, seed_bits):
    # [a, xy] = [a,x] [x,[a,y]] [a,y] on random triples
    G = standard_group(name)
    rng = np.random.default_rng(seed_bits)
    a, x, y = (int(v) for v in rng.integers(0, G.order, size=3))
    t = G.table
    lhs = int(commutator(G, a, int(t[x, y])))
    rhs = int(
        t[t[commutator(G, a, x), commutator(G, x, int(commutator(G, a, y)))],
          commutator(G, a, y)]
    )
    assert lhs == rhs


@given(group_names, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_automorphisms_preserve_element_orders(name, index):
    G = standard_group(name)
    ag = automorphism_group(G)
    a = index % ag.order
    perm = ag.perms[a]
    assert (G.element_orders[perm] == G.element_orders).all()


@given(group_names, group_names, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_kernel_is_normal(src, tgt, index):
    phi = pick_hom(src, tgt, index)
    assert phi.kernel().is_normal


@given(group_names, group_names, st.integers(min_value=0, max_value=10_000), st.randoms())
@settings(max_examples=60, deadline=None)
def test_verdicts_invariant_under_relabelling(src, tgt, index, rnd):
    phi = pick_hom(src, tgt, index)
    H, G = phi.source, phi.target
    ph, pg = (np.array(rnd.sample(range(X.order), X.order)) for X in (H, G))
    H2, G2 = relabelled(H, ph), relabelled(G, pg)
    images = np.empty_like(phi.images)
    images[ph] = pg[phi.images]
    before, after = classify_hom(phi), classify_hom(GroupHom(H2, G2, images))
    assert len(enumerate_homs(H2, G2)) == len(enumerate_homs(H, G))
    assert after.flags == before.flags
    assert (after.galois_order, after.co_galois_order) == (before.galois_order, before.co_galois_order)


# every pair from the pool small enough for the |G|^|H| set-map oracle
ORACLE_PAIRS = [
    (src, tgt)
    for src in POOL
    for tgt in POOL
    if standard_group(tgt).order ** standard_group(src).order <= 5000
]


@given(st.sampled_from(ORACLE_PAIRS), st.randoms())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_oracle_under_relabelling(pair, rnd):
    H, G = (standard_group(name) for name in pair)
    H2, G2 = (relabelled(X, np.array(rnd.sample(range(X.order), X.order))) for X in (H, G))
    got = sorted(tuple(row) for row in enumerate_homs(H2, G2).matrix.tolist())
    assert got == naive_hom_images(H2, G2)


@st.composite
def permutation_groups(draw):
    """A group generated by one or two permutations of at most 5 points, in search order."""
    degree = draw(st.integers(min_value=2, max_value=5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    return build_from_permutations(gens, name=f"<{gens}>")


@given(permutation_groups(), permutation_groups())
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_oracle_on_permutation_groups(H, G):
    assume(H.order > 1 and G.order > 1 and G.order ** H.order <= 5000)
    got = sorted(tuple(row) for row in enumerate_homs(H, G).matrix.tolist())
    assert got == naive_hom_images(H, G)


# moduli whose shifted words are rejected least (2^k) and most (2^k + 1) often, and any up to 4 097
MODULI = st.one_of(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 4096, 4097]),
                   st.integers(min_value=1, max_value=4097))


@st.composite
def draw_plans(draw):
    """Head and tail moduli picked from a pool of at most three, so that runs of one
    modulus, alternations and a head ending in the tail's first modulus all come up;
    and `keep`, none or a rule over the head draws that may reject any share of them."""
    pool = draw(st.lists(MODULI, min_size=1, max_size=3, unique=True))
    head = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    tail = draw(st.lists(st.sampled_from(pool), max_size=3))
    if not draw(st.booleans()):
        return head, None, tail
    weights = draw(st.lists(st.integers(1, 7), min_size=len(head), max_size=len(head)))
    q = draw(st.integers(1, 5))
    r = draw(st.integers(0, q))
    return head, lambda *cols: sum(w * c for w, c in zip(weights, cols)) % q < r, tail


@given(draw_plans(), st.sampled_from([1, 2, 3, 17, 64]), st.integers(1, 40), st.integers(1, 80),
       st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_drawn_rows_match_one_randrange_per_coordinate(plan, words, block, count, seed):
    """Reads of a few words reach a read where the first modulus accepts no word, and samples
    that end on a read's last word."""
    head, keep, tail = plan
    rng, want = random.Random(seed), []
    for _ in range(count):
        row = tuple(rng.randrange(m) for m in head)
        if keep is None or keep(*row):
            want.append(row + tuple(rng.randrange(m) for m in tail))
    with mock.patch.object(commutators, "WORDS", words):
        blocks = list(_drawn(random.Random(seed), count, head, keep, tail)(block))
    assert all(0 < len(b) <= min(block, commutators.DRAWS) for b in blocks)
    assert [tuple(row) for b in blocks for row in b.tolist()] == want
