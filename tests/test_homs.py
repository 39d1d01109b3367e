import hashlib

import numpy as np
import pytest

from conftest import (
    forget_memos,
    naive_hom_images,
    oracle_aut_table,
    oracle_hom_rows,
    oracle_inner_members,
    relabelled,
)
from grouper import homs
from grouper.corpus import _budget_ok, classify_source, generate_corpus
from grouper.errors import EnumerationCapError
from grouper.groups import GroupHom, are_isomorphic, lex_rows, standard_group
from grouper.homs import (
    CANDIDATE_CAP,
    AutGroup,
    AutSubgroup,
    HomKeys,
    automorphism_group,
    end_set,
    enumerate_homs,
    enumerate_source,
    find_isomorphism,
    first_per_key,
    key_order,
)


class TestOracleEquivalence:
    """The pruned search must agree with the brute-force set-map filter."""

    PAIRS = [
        ("cyclic:2", "cyclic:2"),
        ("cyclic:2", "cyclic:4"),
        ("cyclic:4", "cyclic:2"),
        ("cyclic:3", "symmetric:3"),
        ("cyclic:4", "cyclic:4"),
        ("product:cyclic:2,cyclic:2", "symmetric:3"),
        ("symmetric:3", "cyclic:4"),
        ("symmetric:3", "symmetric:3"),
        ("cyclic:6", "cyclic:6"),
        ("quaternion8", "cyclic:2"),
    ]

    @pytest.mark.parametrize("src,tgt", PAIRS)
    def test_matches_naive(self, src, tgt):
        H, G = standard_group(src), standard_group(tgt)
        got = sorted(tuple(int(x) for x in row) for row in enumerate_homs(H, G).matrix)
        assert got == naive_hom_images(H, G)


def fresh(G):
    """G again as a new group with its own, empty memo."""
    return relabelled(G, np.arange(G.order))


def digest(hom_set) -> tuple:
    return tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                 for a in (hom_set.matrix, hom_set.keys))


class TestRunsAgainstOracle:
    """One walk over all targets of a source against ``conftest.oracle_hom_rows``."""

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("batch,cols", [
        pytest.param(batch, cols, id=f"{batch}" if cols == homs._COLS else f"{batch}-cols{cols}")
        for cols in (homs._COLS, 1) for batch in (homs._BATCH, 7)
    ])
    def test_run_rows_and_keys_match_oracle(self, monkeypatch, seed, batch, cols):
        """Every pair of generate_corpus(12), as is and relabelled; with 7 candidates a
        block, blocks span targets and the homs go through the counted preallocation.
        With one relator a check, every failing relator compacts the candidates."""
        monkeypatch.setattr(homs, "_BATCH", batch)
        monkeypatch.setattr(homs, "_COLS", cols)
        rng = np.random.default_rng(seed)
        corpus = [fresh(G) if seed is None else relabelled(G, rng.permutation(G.order))
                  for G in generate_corpus(12)]
        for H in corpus:
            enumerate_source(H, corpus)
            for G in corpus:
                hs = enumerate_homs(H, G)
                rows, keys = oracle_hom_rows(H, G)
                assert hs.matrix.shape == rows.shape and (hs.matrix == rows).all(), (H.name, G.name)
                assert hs.keys.dtype == np.int64 and (hs.keys == keys).all(), (H.name, G.name)

    def test_classify_source_fills_what_single_walks_find(self):
        """Every pair of generate_corpus(20): the hom sets a source's run fills equal
        ``enumerate_homs`` on fresh copies of the two groups, a walk of one target."""
        corpus = [fresh(G) for G in generate_corpus(20)]
        copies = {id(G): fresh(G) for G in corpus}
        for H in corpus:
            targets = [G for G in corpus if _budget_ok(H, G)]
            classify_source(H, targets)
            for G in targets:
                alone = enumerate_homs(copies[id(H)], copies[id(G)])
                assert digest(enumerate_homs(H, G)) == digest(alone), (H.name, G.name)

    def test_find_isomorphism_is_oracle_first_bijection(self):
        """Each member of a relabelled generate_corpus(16) against its relabelling, both ways."""
        rng = np.random.default_rng(9)
        for G in generate_corpus(16):
            moved = relabelled(G, rng.permutation(G.order))
            for H, K in ((G, moved), (moved, G)):
                rows, _ = oracle_hom_rows(H, K)
                first = next(row for row in rows if len(np.unique(row)) == K.order)
                assert (find_isomorphism(H, K).images == first).all(), (H.name, K.name)


class TestSimpleGroupRows:
    @pytest.mark.parametrize("src,tgt,count", [
        ("alternating:6", "alternating:6", 1441),  # Aut(A6) and the trivial map
        ("alternating:5", "alternating:6", 1441),
        ("symmetric:5", "symmetric:5", 146),  # 120 automorphisms, 25 onto an order 2 image, 1 trivial
    ])
    def test_every_row_is_a_hom(self, src, tgt, count):
        H, G = standard_group(src), standard_group(tgt)
        hs = enumerate_homs(H, G)
        assert len(hs) == count
        for row in hs.matrix:
            GroupHom(H, G, row, check=True)


class TestKnownCounts:
    def test_hom_counts(self, groups):
        assert len(enumerate_homs(groups["cyclic:2"], groups["cyclic:4"])) == 2
        assert len(enumerate_homs(groups["cyclic:3"], groups["symmetric:3"])) == 3
        assert len(end_set(groups["symmetric:3"])) == 10

    def test_aut_counts(self, groups):
        assert automorphism_group(groups["symmetric:3"]).order == 6
        assert automorphism_group(groups["product:cyclic:2,cyclic:2"]).order == 6
        assert automorphism_group(groups["cyclic:8"]).order == 4
        assert automorphism_group(groups["quaternion8"]).order == 24

    def test_s3_automorphisms_all_inner(self, groups):
        ag = automorphism_group(groups["symmetric:3"])
        assert ag.inner_order == ag.order == len(oracle_inner_members(ag))

    def test_coprime_orders_only_trivial_hom(self, groups):
        hs = enumerate_homs(groups["cyclic:2"], groups["cyclic:3"])
        assert len(hs) == 1
        assert (hs.matrix[0] == 0).all()


class TestCanonicalOrder:
    def test_rows_sorted_lexicographically_by_generator_images(self, groups):
        hs = enumerate_homs(groups["cyclic:3"], groups["symmetric:3"])
        assert [tuple(r) for r in hs.matrix] == sorted(tuple(r) for r in hs.matrix)

    def test_stable_across_repeats(self, groups):
        H, G = groups["dihedral:8"], groups["dihedral:8"]
        a = enumerate_homs(H, G).matrix.copy()
        forget_memos([H, G])
        b = enumerate_homs(H, G).matrix
        assert (a == b).all()

    def test_no_duplicates(self, groups):
        hs = end_set(groups["dihedral:8"])
        keys = {row.tobytes() for row in hs.matrix}
        assert len(keys) == len(hs)


class TestHomSetMembership:
    def test_index_roundtrip(self, groups):
        hs = end_set(groups["symmetric:3"])
        for i, row in enumerate(hs.matrix):
            assert hs.index_of(row) == i

    def test_every_row_is_a_hom(self, groups):
        H, G = groups["alternating:4"], groups["symmetric:4"]
        for phi in enumerate_homs(H, G).homs:
            pass  # GroupHom would raise if a row were not multiplicative
        for row in enumerate_homs(H, G).matrix:
            GroupHom(H, G, row)


class TestAutGroupStructure:
    def test_composition_closed(self, groups):
        ag = automorphism_group(groups["quaternion8"])
        n = ag.order
        for a in range(n):
            for b in range(n):
                composed = ag.perms[a][ag.perms[b]]
                ag.index_of(composed)  # raises KeyError if not closed

    def test_inner_consistency(self, groups):
        from grouper.groups import center

        G = groups["dihedral:8"]
        ag = automorphism_group(G)
        assert ag.inner_order * center(G).order == G.order
        assert ag.inner_order == len(oracle_inner_members(ag))

    def test_aut_hom_objects(self, groups):
        ag = automorphism_group(groups["symmetric:3"])
        for a in range(ag.order):
            assert ag.hom(a).is_bijective


class TestIsomorphismSearch:
    def test_finds_isomorphism(self, groups):
        phi = find_isomorphism(groups["dihedral:6"], groups["symmetric:3"])
        assert phi is not None and phi.is_bijective

    def test_rejects_nonisomorphic(self, groups):
        assert find_isomorphism(groups["quaternion8"], groups["dihedral:8"]) is None

    def test_rejects_different_orders(self, groups):
        assert find_isomorphism(groups["cyclic:4"], groups["cyclic:6"]) is None

    def test_first_bijective_hom(self):
        """Every same-order corpus pair, and each member against a relabelling of itself."""
        corpus = generate_corpus(16)
        rng = np.random.default_rng(7)
        pairs = [(H, G) for H in corpus for G in corpus if H.order == G.order]
        pairs += [(G, relabelled(G, rng.permutation(G.order))) for G in corpus]
        for H, G in pairs:
            bijective = [row for row in enumerate_homs(H, G).matrix if len(set(row.tolist())) == G.order]
            phi = find_isomorphism(H, G)
            if bijective:
                assert phi is not None and (phi.images == bijective[0]).all(), (H.name, G.name)
            else:
                assert phi is None, (H.name, G.name)

    def test_cap_counts_exact_order_images(self):
        """Only generator images of the generators' own orders count against the cap.

        Over every image whose order divides the generator's, the space of
        C2xC2xD64 is about 2.3e9 candidates; over exact orders, about 3.5e7.
        """
        G = standard_group("product:cyclic:2,cyclic:2,dihedral:64")
        relabel = relabelled(G, np.random.default_rng(1).permutation(G.order))
        assert HomKeys(G, relabel).size > CANDIDATE_CAP
        assert are_isomorphic(G, relabel)


class TestCaps:
    def test_enumeration_cap(self):
        big = standard_group("symmetric:6")
        with pytest.raises(EnumerationCapError):
            enumerate_homs(big, big)


class TestAutGroupTable:
    @pytest.mark.parametrize("name", ["quaternion8", "dihedral:8", "symmetric:4", "alternating:5"])
    def test_table_is_brute_force_composition(self, name):
        """The one table over Aut that exists, of a subgroup's ``as_group``, here all of Aut."""
        ag = automorphism_group(standard_group(name))
        P = ag.perms
        table = oracle_aut_table(ag)
        for a in range(ag.order):
            comp = P[a][P]  # row b: perms[a] after perms[b]
            match = (comp[:, None, :] == P[None, :, :]).all(axis=2)
            assert (match.sum(axis=1) == 1).all()
            assert (table[a] == match.argmax(axis=1)).all()
        whole = AutSubgroup(ag, np.arange(ag.order)).as_group()
        assert (whole.table == table).all() and whole.identity == ag.identity


class TestHomKeys:
    PAIRS = [
        ("cyclic:3", "symmetric:3"),
        ("dihedral:8", "dihedral:8"),
        ("quaternion8", "symmetric:4"),
        ("product:cyclic:2,cyclic:4", "product:cyclic:2,cyclic:4"),
        ("symmetric:4", "symmetric:4"),
        ("heisenberg:3", "cyclic:3"),
    ]

    @pytest.mark.parametrize("src,tgt", PAIRS)
    def test_keys_strictly_increasing(self, groups, src, tgt):
        hs = enumerate_homs(groups[src], groups[tgt])
        assert hs.keys.dtype == np.int64
        assert (np.diff(hs.keys) > 0).all()
        assert (hs.locate(hs.matrix[:, hs.gens]) == np.arange(len(hs))).all()

    @pytest.mark.parametrize("src,tgt", PAIRS)
    def test_keys_decode_to_generator_images(self, groups, src, tgt):
        hs = enumerate_homs(groups[src], groups[tgt])
        space = HomKeys(groups[src], groups[tgt])
        assert (hs.keys < space.size).all()
        for key, row in zip(hs.keys.tolist(), hs.matrix):
            assert (lex_rows(space.lists, key, key + 1)[0] == row[space.gens]).all()

    def test_non_member_rows_raise(self, groups):
        G = groups["symmetric:3"]
        hs = end_set(G)
        # same generator images as a member, different elsewhere
        off = hs.matrix[-1].copy()
        others = [x for x in range(G.order) if x not in hs.gens]
        off[others[0]] = (off[others[0]] + 1) % G.order
        not_a_hom = np.arange(G.order)[::-1].copy()
        out_of_range = np.full(G.order, G.order)
        for row in (off, not_a_hom, out_of_range, np.zeros(2, dtype=np.int32)):
            assert not hs.contains_images(row)
            with pytest.raises(KeyError):
                hs.index_of(row)
        ag = automorphism_group(G)
        trivial = np.full(G.order, G.identity, dtype=np.int32)
        assert hs.contains_images(trivial)
        for row in (trivial, off, out_of_range):
            with pytest.raises(KeyError):
                ag.index_of(row)

    def test_roundtrip_where_target_radix_overflows(self):
        """Hom(C2^7, C512): a |G|-radix key would need 512**7 = 2**63."""
        from grouper.groups import direct_product

        C2 = standard_group("cyclic:2")
        H = C2
        for _ in range(6):
            H = direct_product(H, C2)
        hs = enumerate_homs(H, standard_group("cyclic:512"))
        assert len(hs.gens) == 7 and len(hs) == 128
        assert (hs.keys == np.arange(128)).all()
        for i, row in enumerate(hs.matrix):
            assert hs.index_of(row) == i
        assert (hs.locate(hs.matrix[:, hs.gens]) == np.arange(128)).all()


class TestFirstPerKey:
    def test_first_row_of_each_key_in_byte_order(self):
        keys = np.array([[300, 1], [2, 1], [300, 1], [1, 2], [256, 0]], dtype=np.int32)
        # little-endian bytes: 256 -> 00 01, 1 -> 01 00, 2 -> 02 00, 300 -> 2c 01
        assert first_per_key(keys).tolist() == [4, 3, 1, 0]

    @pytest.mark.parametrize("rows", [homs._WORD_SORT_ROWS - 1, homs._WORD_SORT_ROWS])
    @pytest.mark.parametrize("dtype,width", [(np.uint8, 1), (np.uint8, 9), (np.int32, 3), (np.bool_, 20)])
    def test_key_order_sorts_rows_by_bytes(self, dtype, width, rows):
        """``key_order`` is the stable sort of the rows by their bytes, with the first row of
        each run of equal rows marked, on either side of the switch to the word sort: rows of
        1 to 20 bytes, so that of 128 rows those of at most 16 bytes take the word sort, most
        keys repeated."""
        rng = np.random.default_rng(width)
        values = [0, 1, 256, 300] if dtype == np.int32 else [0, 1, 2]
        keys = rng.choice(values, size=(rows, width)).astype(dtype)
        data = [row.tobytes() for row in keys]
        expected = sorted(range(rows), key=data.__getitem__)
        order, first = key_order(keys)
        assert order.tolist() == expected
        assert first.tolist() == [i == 0 or data[expected[i]] != data[expected[i - 1]] for i in range(rows)]

    def test_sorted_images_sizes(self, groups):
        hs = enumerate_homs(groups["cyclic:4"], groups["dihedral:8"])
        images, sizes = hs.sorted_images()
        assert (images == np.sort(hs.matrix, axis=1)).all()
        assert sizes.tolist() == [len(set(row)) for row in hs.matrix.tolist()]

    def test_one_key_space_per_hom_set(self, monkeypatch):
        """The walk's HomKeys serves the hom set's keys and the Aut rows of End(G)."""
        from grouper import homs

        built = []

        class CountedKeys(homs.HomKeys):
            __slots__ = ()

            def __init__(self, H, G):
                built.append((H.name, G.name))
                super().__init__(H, G)

        monkeypatch.setattr(homs, "HomKeys", CountedKeys)
        H, G = standard_group("dihedral:8"), standard_group("symmetric:4")
        forget_memos([H, G])
        hs = enumerate_homs(H, G)
        assert (hs.locate(hs.matrix[:, hs.gens]) == np.arange(len(hs))).all()
        ag = automorphism_group(G)
        assert ag.index_of(ag.perms[-1]) == ag.order - 1
        assert built == [("D8", "S4"), ("S4", "S4")]


class TestAutRows:
    @pytest.mark.parametrize("name", ["cyclic:8", "dihedral:8", "quaternion8", "symmetric:4",
                                      "product:cyclic:2,cyclic:2,cyclic:2"])
    def test_end_rows_are_the_automorphisms(self, name):
        from grouper.approx import EndData

        G = standard_group(name)
        for X in (G, relabelled(G, np.random.default_rng(3).permutation(G.order))):
            end, aut = EndData(X), automorphism_group(X)
            assert (end.homs.matrix[end.aut.end_rows] == aut.perms).all()
            assert (np.diff(end.aut.end_rows) > 0).all()
            bijective = (np.sort(end.homs.matrix, axis=1) == np.arange(X.order)).all(axis=1)
            assert (np.flatnonzero(bijective) == end.aut.end_rows).all()
