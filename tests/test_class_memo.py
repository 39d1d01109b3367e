"""Class socles, local kernels and isomorphism verdicts against naive oracles.

``f_socle`` and ``local_kernel`` build each class member's part once per
pair of groups and keep it in the memo of the source of the hom set (the
member for a socle, the group for a kernel); ``are_isomorphic`` keeps its
verdict on its first argument.  These tests compare the memoized results,
on first and later calls, with the oracles in ``conftest``.
"""

import numpy as np
import pytest

from conftest import (
    naive_common_kernel,
    naive_hom_images,
    naive_normal_closure,
    naive_radical,
    relabelled,
)
from grouper.approx import GroupClass, f_radical, f_socle, local_kernel
from grouper.corpus import generate_corpus
from grouper.groups import are_isomorphic, isomorphism, standard_group
from grouper.homs import enumerate_homs

MEMO_KINDS = ("image_closure", "common_kernel", "isomorphic")


def hom_rows(H, G):
    return enumerate_homs(H, G).matrix.tolist()


def want_socle(G, members):
    return sorted(naive_normal_closure(G, {x for F in members for row in hom_rows(F, G) for x in row}))


def want_kernel(H, members):
    return sorted(set.intersection(*(naive_common_kernel(H, F, hom_rows(H, F)) for F in members)))


def relabelled_corpus(max_order, seed):
    rng = np.random.default_rng(seed)
    return [relabelled(G, rng.permutation(G.order)) for G in generate_corpus(max_order)]


def memo_kinds(G):
    return {key[0] for key in G._memo if isinstance(key, tuple)} & set(MEMO_KINDS)


class TestAgainstNaiveHomImages:
    def test_tiny_pairs(self):
        """Socle and kernel from every set map that is a hom, for pairs small enough to list them."""
        corpus = generate_corpus(6)
        pairs = [(H, G) for H in corpus for G in corpus if G.order ** H.order <= 4096]
        assert len(pairs) > 20
        for H, G in pairs:
            images = naive_hom_images(H, G)
            want = sorted(naive_normal_closure(G, {x for img in images for x in img}))
            assert f_socle(G, GroupClass("F", [H])).members.tolist() == want, (H.name, G.name)
            kernel = sorted(naive_common_kernel(H, G))
            assert local_kernel(H, GroupClass("F", [G])).members.tolist() == kernel, (H.name, G.name)


class TestSingletonClasses:
    @pytest.mark.parametrize("corpus", [generate_corpus(12), relabelled_corpus(12, 5)],
                             ids=["own-labels", "relabelled"])
    def test_every_pair_at_max_order_12(self, corpus):
        for G in corpus:
            for F0 in corpus:
                cls = GroupClass(F0.name, [F0])
                socle, kernel = f_socle(G, cls), local_kernel(G, cls)
                assert socle.members.tolist() == want_socle(G, [F0]), (G.name, F0.name)
                assert kernel.members.tolist() == want_kernel(G, [F0]), (G.name, F0.name)
                # a second class object with the same member reads the same memo entries
                again = GroupClass("again", [F0])
                assert f_socle(G, again) is socle and local_kernel(G, again) is kernel


class TestTwoMemberClasses:
    @pytest.mark.parametrize("names", [("cyclic:2", "cyclic:3"), ("symmetric:3", "cyclic:4")])
    def test_every_group_at_max_order_12(self, names):
        members = [standard_group(n) for n in names]
        for G in generate_corpus(12):
            for order in (members, members[::-1]):
                cls = GroupClass("+".join(names), order)
                assert f_socle(G, cls).members.tolist() == want_socle(G, members), G.name
                assert local_kernel(G, cls).members.tolist() == want_kernel(G, members), G.name

    def test_parts_stay_the_singleton_results(self):
        """Combining two members' parts leaves each member's memoized part as it was."""
        C2, C3 = standard_group("cyclic:2"), standard_group("cyclic:3")
        G = standard_group("dihedral:12")
        alone = f_socle(G, GroupClass("c2", [C2])).members.tolist()
        f_socle(G, GroupClass("c2+c3", [C2, C3]))
        assert f_socle(G, GroupClass("c2", [C2])).members.tolist() == alone == want_socle(G, [C2])


class TestRadicalChains:
    @pytest.mark.parametrize("corpus", [generate_corpus(12), relabelled_corpus(12, 9)],
                             ids=["own-labels", "relabelled"])
    def test_singleton_classes(self, corpus):
        members = [F for F in corpus if F.order <= 4]
        for G in corpus:
            for F0 in members:
                rad, pi = f_radical(G, GroupClass(F0.name, [F0]))
                assert rad.members.tolist() == sorted(naive_radical(G, [F0])), (G.name, F0.name)
                assert pi.target.order * rad.order == G.order

    def test_two_member_class(self):
        members = [standard_group("cyclic:2"), standard_group("cyclic:3")]
        cls = GroupClass("c2+c3", members)
        for G in generate_corpus(12):
            rad, _ = f_radical(G, cls)
            assert rad.members.tolist() == sorted(naive_radical(G, members)), G.name


class TestIsomorphismVerdicts:
    def test_every_ordered_pair_at_max_order_16(self):
        corpus = generate_corpus(16)
        copies = relabelled_corpus(16, 3)
        for A in corpus + copies:
            for B in corpus:
                for X, Y in ((A, B), (B, A)):
                    want = isomorphism(X, Y) is not None
                    assert are_isomorphic(X, Y) is want, (X.name, Y.name)
                    assert are_isomorphic(X, Y) is want, (X.name, Y.name)  # from the memo
        assert sum(are_isomorphic(A, B) for A in copies for B in corpus) == len(corpus)


class TestSharedResults:
    def test_socle_members_are_read_only(self):
        G, F0 = standard_group("symmetric:3"), standard_group("cyclic:3")
        cls = GroupClass("c3", [F0])
        socle = f_socle(G, cls)
        before = socle.members.tolist()
        with pytest.raises(ValueError):
            socle.members[0] = 1
        with pytest.raises(ValueError):
            socle._member_mask[:] = True
        assert f_socle(G, cls).members.tolist() == before == want_socle(G, [F0])

    def test_kernel_members_are_read_only(self):
        H, F0 = standard_group("cyclic:4"), standard_group("cyclic:2")
        kernel = local_kernel(H, GroupClass("c2", [F0]))
        with pytest.raises(ValueError):
            kernel.members[:] = 0
        assert local_kernel(H, GroupClass("c2", [F0])).members.tolist() == [0, 2]

    def test_renamed_copy_starts_without_memo_entries(self):
        G, F0 = standard_group("dihedral:8"), standard_group("cyclic:2")
        cls = GroupClass("c2", [F0])
        f_socle(G, cls)
        local_kernel(G, cls)
        are_isomorphic(G, F0)
        f_socle(F0, GroupClass("d8", [G]))
        assert memo_kinds(G) == set(MEMO_KINDS)
        copy = G.renamed("D8'")
        assert memo_kinds(copy) == set()
        assert f_socle(copy, cls).members.tolist() == f_socle(G, cls).members.tolist()
        assert local_kernel(copy, cls).members.tolist() == local_kernel(G, cls).members.tolist()
        assert are_isomorphic(copy, G)
