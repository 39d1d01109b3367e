import random

import numpy as np
import pytest

from conftest import (
    naive_is_associative,
    oracle_aut_group,
    oracle_aut_table,
    oracle_inner_members,
    naive_is_normal,
    naive_normal_closure,
    naive_quotient,
    naive_subgroup_closure,
    odd_carry_table,
    oracle_image_facts,
    relabelled,
)
from grouper.corpus import generate_corpus
from grouper.errors import (
    MalformedPermutation,
    NotNormalError,
    OrderCapExceeded,
    UnsupportedFamily,
)
from grouper.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    are_isomorphic,
    build_from_permutations,
    center,
    centralizer,
    describe_structure,
    direct_product,
    generating_set_of_table,
    identity_hom,
    isomorphism,
    perm_compose,
    perm_from_cycles,
    perm_identity,
    perm_inverse,
    perm_order,
    perm_to_cycles,
    quotient_group,
    standard_group,
    subgroup_generated,
    trivial_hom,
)
from grouper.homs import automorphism_group, enumerate_homs


class TestPermutations:
    def test_identity(self):
        assert perm_identity(4) == (0, 1, 2, 3)

    def test_compose_order_convention(self):
        # compose(p, q) applies q first
        p = perm_from_cycles("(1 2)")
        q = perm_from_cycles("(2 3)")
        r = perm_compose(p + (2,), q)
        # point 3 -> 2 under q, then 2 -> 1 under p
        assert r[2] == 0

    def test_inverse(self):
        p = perm_from_cycles("(1 2 3 4)")
        assert perm_compose(p, perm_inverse(p)) == perm_identity(4)

    def test_order(self):
        assert perm_order(perm_from_cycles("(1 2 3)(4 5)")) == 6

    def test_cycles_roundtrip(self):
        p = perm_from_cycles("(1 3)(2 5 4)")
        assert perm_from_cycles(perm_to_cycles(p)) == p

    def test_repeated_point_rejected(self):
        with pytest.raises(MalformedPermutation):
            perm_from_cycles("(1 2 1)")


class TestFamilies:
    @pytest.mark.parametrize(
        "descriptor,order,abelian",
        [
            ("cyclic:1", 1, True),
            ("cyclic:7", 7, True),
            ("dihedral:8", 8, False),
            ("dihedral:4", 4, True),
            ("quaternion8", 8, False),
            ("symmetric:4", 24, False),
            ("alternating:4", 12, False),
            ("alternating:5", 60, False),
            ("heisenberg:2", 8, False),
            ("heisenberg:3", 27, False),
            ("product:cyclic:2,cyclic:3", 6, True),
            ("product:cyclic:2,cyclic:2,cyclic:2", 8, True),
        ],
    )
    def test_orders(self, descriptor, order, abelian):
        G = standard_group(descriptor)
        assert G.order == order
        assert G.is_abelian == abelian

    def test_element_order_multiset_q8(self):
        G = standard_group("quaternion8")
        assert sorted(G.element_orders.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_q8_generators_satisfy_the_quaternion_presentation(self):
        G = standard_group("quaternion8")
        i, j = G.generators
        i2, j2 = G.mul(i, i), G.mul(j, j)
        assert G.mul(i2, i2) == G.identity
        assert i2 == j2 != G.identity
        assert G.mul(G.mul(j, i), G.inv(j)) == G.inv(i)
        assert describe_structure(G) == "Q8"

    def test_heisenberg_exponent(self):
        G = standard_group("heisenberg:3")
        assert set(G.element_orders.tolist()) == {1, 3}

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamily):
            standard_group("frobnitz:5")

    def test_odd_dihedral_rejected(self):
        with pytest.raises(UnsupportedFamily):
            standard_group("dihedral:7")

    def test_symmetric_seven_over_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            standard_group("symmetric:7")

    def test_group_axioms_spot(self, groups):
        G = groups["dihedral:8"]
        t = G.table
        for a in range(G.order):
            assert t[a, G.inverses[a]] == G.identity
            for b in range(G.order):
                for c in range(G.order):
                    assert t[t[a, b], c] == t[a, t[b, c]]


class TestBuildFromPermutations:
    def test_klein(self):
        G = build_from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)], name="V")
        assert G.order == 4
        assert sorted(G.element_orders.tolist()) == [1, 2, 2, 2]

    def test_identity_is_index_zero(self):
        G = build_from_permutations([perm_from_cycles("(1 2 3)")])
        assert G.identity == 0
        assert G.element_orders[0] == 1

    def test_s3_from_generators(self):
        G = build_from_permutations(
            [perm_from_cycles("(1 2)", 3), perm_from_cycles("(1 2 3)")]
        )
        assert G.order == 6
        assert not G.is_abelian


class TestGroupLaw:
    def test_spot_check_rejects_non_associative_large_table(self):
        # order 601 was past the old exhaustive cap; the generator test is exact at every order
        with pytest.raises(ValueError, match="associativity fails at element"):
            FiniteGroup("odd601", odd_carry_table(601), generators=[1])

    def test_odd_carry_table_rejected_small(self):
        # generator 1 alone does not reach 4 or 6 here; with every element declared a
        # generator, the test compares all n^3 triples
        with pytest.raises(ValueError, match="declared generators do not generate"):
            FiniteGroup("odd7", odd_carry_table(7), generators=[1])
        with pytest.raises(ValueError, match="associativity fails at element"):
            FiniteGroup("odd7", odd_carry_table(7), generators=range(1, 7))

    def test_every_generator_is_tested(self):
        # C3 x odd_carry(5): the C3 generator 5 passes Light's test, the loop generator 1 fails it
        c3 = np.add.outer(np.arange(3), np.arange(3)) % 3
        table = (c3[:, None, :, None] * 5 + odd_carry_table(5)[None, :, None, :]).reshape(15, 15)
        for gens in ([5, 1], [1, 5]):
            with pytest.raises(ValueError, match="associativity fails at element"):
                FiniteGroup("C3xL5", table, generators=gens)

    def test_powers_that_never_reach_the_identity_rejected(self):
        # every row holds the identity, but 2 2 = 2, so the powers of 2 stay at 2
        table = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 2]])
        with pytest.raises(ValueError, match="element order exceeds group order"):
            FiniteGroup("stuck", table, generators=[1])

    def test_cyclic_table_past_old_cap_accepted(self):
        table = np.add.outer(np.arange(601), np.arange(601)) % 601
        assert FiniteGroup("C601", table, generators=[1]).order == 601

    def test_accepts_exactly_the_associative_tables(self, groups):
        """Relabelled, column-swapped and row-swapped tables, each keeping the identity row
        and column: a table is accepted exactly when the n^3 oracle finds it associative."""
        rng = np.random.default_rng(11)
        verdicts = {}
        for G in groups.values():
            if G.order < 3:
                continue
            others = np.delete(np.arange(G.order), G.identity)
            for trial in range(30):
                t = G.table.copy()
                gens = G.generators
                y1, y2 = rng.choice(others, size=2, replace=False)
                if trial < 3:  # relabel by a permutation fixing the identity
                    perm = np.arange(G.order)
                    perm[others] = rng.permutation(others)
                    t[np.ix_(perm, perm)] = perm[G.table]
                    gens = perm[gens].tolist()
                elif trial % 2:  # swap two columns below the identity row
                    t[others, y1], t[others, y2] = G.table[others, y2], G.table[others, y1]
                else:  # swap two entries of one row
                    x = rng.choice(others)
                    t[x, y1], t[x, y2] = t[x, y2], t[x, y1]
                try:
                    FiniteGroup("perturbed", t, generators=gens, identity=G.identity)
                    verdict = "accepted"
                except ValueError as exc:
                    verdict = str(exc).split(" at ")[0]
                assert (verdict == "accepted") == naive_is_associative(t), (G.name, trial)
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
        assert verdicts["accepted"] == 3 * 15
        # most others fail earlier, on element orders; the law check must still decide some
        assert verdicts["associativity fails"] > 100


class TestSubgroups:
    def test_closure_matches_naive(self, groups):
        G = groups["symmetric:4"]
        rng = np.random.default_rng(7)
        for _ in range(10):
            seed = rng.integers(0, G.order, size=2).tolist()
            sub = subgroup_generated(G, seed)
            assert set(sub.members.tolist()) == naive_subgroup_closure(G, seed)

    def test_normal_closure_is_normal(self, groups):
        G = groups["symmetric:4"]
        sub = subgroup_generated(G, [G.generators[0]], normal=True)
        assert sub.is_normal

    def test_lagrange(self, groups):
        G = groups["alternating:4"]
        for x in range(G.order):
            assert G.order % subgroup_generated(G, [x]).order == 0

    def test_center_of_q8(self, groups):
        assert center(groups["quaternion8"]).order == 2

    def test_center_of_s3(self, groups):
        assert center(groups["symmetric:3"]).is_trivial

    def test_centralizer(self, groups):
        G = groups["symmetric:3"]
        for x in range(G.order):
            cz = centralizer(G, [x])
            for y in range(G.order):
                commutes = G.mul(x, y) == G.mul(y, x)
                assert cz.contains(y) == commutes

    @pytest.mark.parametrize("members", [[0, 2.5], [0.0, 2.0], ["0", "2"], [True, False],
                                         np.array([0, 2], dtype=float)])
    def test_non_integer_members_rejected(self, groups, members):
        """Members are indices: floats, strings and bools are refused, not truncated to {0, 2}."""
        with pytest.raises(ValueError, match="must be integers"):
            Subgroup(groups["cyclic:4"], members)

    @pytest.mark.parametrize("members", [[0, 2], (2,), {0, 2}, range(0, 4, 2), np.array([2], dtype=np.uint8), []])
    def test_integer_members_accepted(self, groups, members):
        assert Subgroup(groups["cyclic:4"], members).members.tolist() == ([0] if len(members) == 0 else [0, 2])

    def test_as_group_reindexes(self, groups):
        G = groups["symmetric:4"]
        sub = subgroup_generated(G, [G.generators[1]])
        H = sub.as_group()
        assert H.order == sub.order
        assert H.identity == 0


class TestQuotients:
    def test_q8_mod_center(self, groups):
        G = groups["quaternion8"]
        Q, pi = quotient_group(G, center(G))
        assert Q.order == 4
        assert sorted(Q.element_orders.tolist()) == [1, 2, 2, 2]
        assert pi.is_surjective

    def test_non_normal_rejected(self, groups):
        G = groups["symmetric:3"]
        # a transposition generates a non-normal order-2 subgroup
        x = int(np.nonzero(G.element_orders == 2)[0][0])
        sub = subgroup_generated(G, [x])
        with pytest.raises(NotNormalError):
            quotient_group(G, sub)

    def test_projection_kernel(self, groups):
        G = groups["dihedral:8"]
        Z = center(G)
        _, pi = quotient_group(G, Z)
        assert pi.kernel().same_members(Z)


def _random_seeds(G, rng, count=6):
    return [[rng.randrange(G.order) for _ in range(rng.randint(1, 3))] for _ in range(count)]


def _assert_quotient_matches_oracle(G, N):
    Q, pi = quotient_group(G, N)
    table, projection = naive_quotient(G, N.members)
    assert Q.table.tolist() == table
    assert pi.images.tolist() == projection


class TestAgainstOracles:
    """Closures, normality and quotients against element-by-element oracles."""

    def test_normal_closure_and_normality(self, groups):
        rng = random.Random(5)
        for G in groups.values():
            for seed in [[x] for x in range(G.order)] + _random_seeds(G, rng):
                assert {int(x) for x in G.closure(seed)} == naive_subgroup_closure(G, seed)
                sub = subgroup_generated(G, seed)
                assert sub.is_normal == naive_is_normal(G, sub.members)
                ncl = subgroup_generated(G, seed, normal=True)
                assert set(ncl.members.tolist()) == naive_normal_closure(G, seed)
                assert ncl.is_normal

    def test_center(self, groups):
        for G in groups.values():
            t = G.table
            naive = {x for x in range(G.order) if all(t[x, y] == t[y, x] for y in range(G.order))}
            assert set(center(G).members.tolist()) == naive

    def test_quotients(self, groups):
        rng = random.Random(9)
        for G in groups.values():
            normals = [center(G), subgroup_generated(G, [G.identity]), subgroup_generated(G, range(G.order))]
            normals += [subgroup_generated(G, seed, normal=True) for seed in _random_seeds(G, rng)]
            for N in normals:
                _assert_quotient_matches_oracle(G, N)

    def test_inner_automorphisms_of_a6(self):
        aut = automorphism_group(standard_group("alternating:6"))
        A = oracle_aut_group(aut)
        inner = Subgroup(A, sorted(oracle_inner_members(aut)))
        assert inner.order == aut.inner_order == 360
        assert inner.is_normal and naive_is_normal(A, inner.members)
        x = int(inner.members[1])
        assert set(subgroup_generated(A, [x], normal=True).members.tolist()) == naive_normal_closure(A, [x])
        _assert_quotient_matches_oracle(A, inner)
        outer = int(np.nonzero(~np.isin(np.arange(A.order), inner.members))[0][0])
        sub = subgroup_generated(A, [outer])
        assert not sub.is_normal and not naive_is_normal(A, sub.members)

    def test_closure_rejects_out_of_range(self, groups):
        G = groups["cyclic:4"]
        for bad in (-1, 4):
            with pytest.raises(IndexError):
                G.closure([1, bad])


class TestGeneratingSets:
    """The greedy generating set fixes hom keys and the canonical hom order."""

    @pytest.mark.parametrize(
        "descriptor,expected",
        [
            ("cyclic:12", [1]),
            ("dihedral:16", [1, 2]),
            ("quaternion8", [1, 2]),
            ("symmetric:4", [2, 6]),
            ("alternating:6", [2, 7]),
        ],
    )
    def test_pinned(self, descriptor, expected):
        G = standard_group(descriptor)
        assert generating_set_of_table(G.table, G.identity) == expected

    def test_pinned_aut_a6(self):
        aut = automorphism_group(standard_group("alternating:6"))
        assert aut.generators == [2, 67, 23]
        assert generating_set_of_table(oracle_aut_table(aut), aut.identity) == [2, 67, 23]

    def test_trivial_group(self):
        assert generating_set_of_table(np.zeros((1, 1), dtype=np.int32), 0) == [0]


class TestIsomorphism:
    def test_c6_is_c2_x_c3(self, groups):
        assert are_isomorphic(groups["cyclic:6"], standard_group("product:cyclic:2,cyclic:3"))

    def test_c4_not_klein(self, groups):
        assert not are_isomorphic(groups["cyclic:4"], groups["product:cyclic:2,cyclic:2"])

    def test_d6_is_s3(self, groups):
        assert are_isomorphic(groups["dihedral:6"], groups["symmetric:3"])

    def test_q8_not_d8(self, groups):
        assert not are_isomorphic(groups["quaternion8"], groups["dihedral:8"])

    def test_isomorphism_is_multiplicative(self, groups):
        phi = isomorphism(groups["dihedral:6"], groups["symmetric:3"])
        assert phi is not None and phi.is_bijective

    def test_heisenberg2_is_d8(self, groups):
        assert are_isomorphic(standard_group("heisenberg:2"), groups["dihedral:8"])


class TestStructureNames:
    @pytest.mark.parametrize(
        "descriptor,expected",
        [
            ("cyclic:1", "1"),
            ("cyclic:12", "C12"),
            ("product:cyclic:2,cyclic:2", "C2 x C2"),
            ("dihedral:8", "D8"),
            ("quaternion8", "Q8"),
            ("symmetric:4", "S4"),
            ("alternating:4", "A4"),
            ("heisenberg:3", "Heis3"),
        ],
    )
    def test_names(self, descriptor, expected):
        assert describe_structure(standard_group(descriptor)) == expected

    def test_invariant_factors(self):
        G = direct_product(standard_group("cyclic:2"), standard_group("cyclic:6"))
        assert describe_structure(G) == "C2 x C6"


class TestHomBasics:
    def test_identity_hom(self, groups):
        G = groups["symmetric:3"]
        h = identity_hom(G)
        assert h.is_bijective and h.kernel().is_trivial

    def test_trivial_hom(self, groups):
        h = trivial_hom(groups["symmetric:3"], groups["cyclic:4"])
        assert h.is_trivial and h.image_subgroup().is_trivial

    def test_invalid_hom_rejected(self, groups):
        G = groups["cyclic:4"]
        with pytest.raises(ValueError):
            GroupHom(groups["cyclic:2"], G, np.array([0, 1], dtype=np.int32))

    @pytest.mark.parametrize("images", [[0, 1.7], [0.0, 1.0], ["0", "1"], [False, True], np.array([0, 1], dtype=float)])
    def test_non_integer_images_rejected(self, groups, images):
        """Images are indices: ``[0, 1.7]`` is refused, not truncated to the identity ``[0, 1]``."""
        C2 = groups["cyclic:2"]
        with pytest.raises(ValueError, match="must be integers"):
            GroupHom(C2, C2, images)
        assert GroupHom(C2, C2, [0, 1]).equal(identity_hom(C2))

    def test_compose(self, groups):
        C2, C4 = groups["cyclic:2"], groups["cyclic:4"]
        double = GroupHom(C2, C4, np.array([0, 2], dtype=np.int32))
        proj = GroupHom(C4, C2, np.array([0, 1, 0, 1], dtype=np.int32))
        # x -> 2x mod 2 kills everything
        assert proj.compose(double).equal(trivial_hom(C2, C2))
        invert = GroupHom(C4, C4, np.array([0, 3, 2, 1], dtype=np.int32))
        assert invert.compose(invert).equal(identity_hom(C4))

    def test_image_facts_match_unique_oracle(self):
        """Every hom of every pair of a relabelled generate_corpus(12)."""
        rng = np.random.default_rng(12)
        corpus = [relabelled(G, rng.permutation(G.order)) for G in generate_corpus(12)]
        for H in corpus:
            for G in corpus:
                for phi in enumerate_homs(H, G).homs:
                    injective, surjective, members = oracle_image_facts(phi.images, H.order, G.order)
                    assert phi.is_injective == injective, (H.name, G.name, phi.images)
                    assert phi.is_surjective == surjective, (H.name, G.name, phi.images)
                    assert phi.image_members().tolist() == members.tolist(), (H.name, G.name, phi.images)

    def test_direct_product_projections(self, groups):
        A, B = groups["cyclic:2"], groups["cyclic:3"]
        P = direct_product(A, B)
        assert P.order == 6 and P.is_abelian
