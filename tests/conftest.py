import functools
import itertools

import numpy as np
import pytest

from grouper.approx import EndData, side_profile
from grouper.corpus import HomVerdicts
from grouper.groups import FiniteGroup, generating_set_of_table, standard_group
from grouper.homs import enumerate_homs


@pytest.fixture(scope="session")
def groups():
    """Shared small groups, one instance each so hom caches are reused."""
    names = [
        "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
        "cyclic:8", "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4",
        "dihedral:6", "dihedral:8", "dihedral:16", "quaternion8",
        "symmetric:3", "symmetric:4", "alternating:4", "heisenberg:3",
    ]
    return {n: standard_group(n) for n in names}


def forget_memos(groups):
    """Empty each group's memo, so the next call on them computes everything again."""
    for G in groups:
        G._memo.clear()


def relabelled(G, perm):
    """G with element x renamed perm[x], certified again from its table."""
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return FiniteGroup(
        G.name + "'", table, generators=perm[G.generators].tolist(), identity=int(perm[G.identity])
    )


@functools.lru_cache(maxsize=None)
def oracle_aut_table(aut) -> np.ndarray:
    """Oracle: the Cayley table of Aut(G) by brute-force composition of ``aut.perms``.

    Entry [a, b] is the index of the row equal to perms[a] after perms[b]:
    the row with the same random hash of its whole image array, and then
    compared with it in full.  The hash is a float64 dot product with
    integer weights below 2**30, exact while |G| <= 2**14.  A composite that is no row raises KeyError.
    Cached per ``AutGroup`` (memoized on its group).
    """
    P = aut.perms
    assert P.shape[1] <= 2 ** 14
    weights = np.random.default_rng(0).integers(1, 2 ** 30, size=P.shape[1]).astype(np.float64)
    hashes = P @ weights
    order = hashes.argsort()
    ranked = hashes[order]
    assert (ranked[1:] != ranked[:-1]).all()
    table = np.empty((len(P), len(P)), dtype=np.int32)
    rows = P.astype(np.intp)
    for a in range(len(P)):
        comp = P[a].take(rows)  # row b: perms[a] after perms[b]
        found = order[ranked.searchsorted(comp.astype(np.float64) @ weights).clip(max=len(P) - 1)]
        if not (P[found] == comp).all():
            raise KeyError("a composite of automorphisms is not among the rows")
        table[a] = found
    return table


def oracle_aut_group(aut) -> FiniteGroup:
    """Oracle: Aut(G) as an abstract group on Aut indices, from ``oracle_aut_table``."""
    table = oracle_aut_table(aut)
    ident = index_of_row(aut.perms, np.arange(aut.base.order))
    return FiniteGroup(f"Aut({aut.base.name})", table,
                       generators=generating_set_of_table(table, ident), identity=ident)


def index_of_row(rows: np.ndarray, row) -> int:
    """Oracle: the index of the one row of ``rows`` equal to ``row``."""
    (i,) = np.flatnonzero((rows == np.asarray(row)).all(axis=1))
    return int(i)


def oracle_inner_members(aut) -> set:
    """Oracle: the Aut indices of the conjugations x -> g x g^-1, one full image array per g."""
    G = aut.base
    t = G.table
    return {index_of_row(aut.perms, t[t[g], G.inverses[g]]) for g in range(G.order)}


def classify_pair_per_hom(H: FiniteGroup, G: FiniteGroup) -> HomVerdicts:
    """Oracle: compose every hom H -> G with all of End(G) and End(H), one hom at a time.

    This is the kernel that ``corpus.classify_pair`` ran before it
    classified one hom per Aut(H) x Aut(G) orbit; nothing is memoized.
    """
    hom_set = enumerate_homs(H, G)
    end_g, end_h = EndData(G), EndData(H)
    gens = hom_set.gens
    parts = []
    for i, phi in enumerate(hom_set.matrix):
        row = np.array([i])
        # target side f.phi on End(G), source side phi.f on End(H)
        t = side_profile(hom_set, end_g, end_g.homs.matrix[None, :, phi[gens]], row)
        s = side_profile(hom_set, end_h, phi[end_h.homs.matrix[None, :, gens]], row)
        parts.append((t.approximation, t.bijective, s.approximation, s.bijective,
                      t.surjective, s.surjective, t.galois.sum(axis=1), s.galois.sum(axis=1)))
    return HomVerdicts(H, G, hom_set.matrix, *(np.concatenate(p) for p in zip(*parts)))


def naive_hom_images(H: FiniteGroup, G: FiniteGroup):
    """Oracle: filter all |G|^|H| set maps by the homomorphism equations.

    Only usable for tiny pairs; returns a sorted list of image tuples.
    """
    out = []
    for images in itertools.product(range(G.order), repeat=H.order):
        if images[H.identity] != G.identity:
            continue
        ok = True
        for a in range(H.order):
            for b in range(H.order):
                if images[H.table[a, b]] != G.table[images[a], images[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(int(x) for x in images))
    return sorted(out)


def naive_subgroup_closure(G: FiniteGroup, seed):
    """Oracle: iterate products until closed, then adjoin inverses."""
    members = set(int(x) for x in seed) | {G.identity}
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                c = int(G.table[a, b])
                if c not in members:
                    members.add(c)
                    changed = True
        for a in list(members):
            inv = int(G.inverses[a])
            if inv not in members:
                members.add(inv)
                changed = True
    return members


def naive_normal_closure(G: FiniteGroup, seed):
    """Oracle: alternate closing under products and conjugating by every element of G."""
    members = naive_subgroup_closure(G, seed)
    while True:
        conj = {
            int(c)
            for g in range(G.order)
            for c in G.table[G.table[g, sorted(members)], G.inverses[g]]
        }
        if conj <= members:
            return members
        members = naive_subgroup_closure(G, members | conj)


def naive_is_normal(G: FiniteGroup, members) -> bool:
    """Oracle: every element of G conjugates ``members`` into itself."""
    members = set(int(x) for x in members)
    return all(
        int(G.table[G.table[g, x], G.inverses[g]]) in members
        for g in range(G.order)
        for x in members
    )


def naive_quotient(G: FiniteGroup, members):
    """Oracle: the cosets xN as explicit sets, numbered by least element.

    Returns the coset multiplication table (products of least elements) and
    the projection, as nested lists.
    """
    mem = sorted(int(x) for x in members)
    cosets = sorted({frozenset(G.table[x, mem].tolist()) for x in range(G.order)}, key=min)
    index = {x: i for i, coset in enumerate(cosets) for x in coset}
    reps = [min(coset) for coset in cosets]
    table = [[index[int(G.table[a, b])] for b in reps] for a in reps]
    return table, [index[x] for x in range(G.order)]


def naive_common_kernel(H: FiniteGroup, F: FiniteGroup, images=None):
    """Oracle: the elements of H that every hom H -> F sends to the identity.

    ``images`` lists the homs as image tuples; by default all of
    ``naive_hom_images(H, F)``, which is only usable for tiny pairs.
    """
    if images is None:
        images = naive_hom_images(H, F)
    return {x for x in range(H.order) if all(int(img[x]) == F.identity for img in images)}


def naive_radical(G: FiniteGroup, members):
    """Oracle: the least normal T of G such that no hom from a class member into G/T is nontrivial.

    T grows from the trivial subgroup: it is replaced by the preimage of the
    normal closure of all hom images in G/T until that adds nothing.  The
    quotients come from ``naive_quotient`` and the closures from
    ``naive_normal_closure``; only the homs into each quotient come from
    ``enumerate_homs``, and each quotient is a new group, so no memo entry
    of ``f_radical`` is read.
    """
    T = {G.identity}
    while True:
        table, proj = naive_quotient(G, T)
        Q = FiniteGroup("Q", table, generators=[proj[g] for g in G.generators],
                        identity=proj[G.identity])
        images = {int(x) for F in members for x in enumerate_homs(F, Q).matrix.ravel()}
        S = naive_normal_closure(Q, images)
        bigger = {x for x in range(G.order) if proj[x] in S}
        if bigger == T:
            return T
        T = bigger


def naive_is_associative(table) -> bool:
    """Oracle: (x y) z == x (y z) over all n^3 triples."""
    t = np.asarray(table).tolist()
    n = len(t)
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in range(n) for y in range(n) for z in range(n))


def odd_carry_table(n):
    """(x + y + [x odd and y odd]) mod n: a non-associative table with identity 0."""
    x, y = np.indices((n, n))
    return (x + y + ((x % 2 == 1) & (y % 2 == 1))) % n


def naive_lemma_draws(G: FiniteGroup, lemma: str, j, upper, samples: int, rng):
    """Oracle: the sampled heads of one lemma report, one `randrange` call per coordinate.

    `upper` is the upper central series of G.  Identities draw (a, x) for
    samples // n pairs; the central lemmas draw a, c, the index of b in Z_j
    (Z_{j+1} for centrals-2), then z1..zj, and list (a, b, c, z1..zj); homo
    draws a, X, Y, X' and then z1..zj only when both hypotheses hold, and a
    quad that fails them adds no row.
    """
    n = G.order
    rr = rng.randrange
    if lemma == "identities":
        return [(rr(n), rr(n)) for _ in range(max(samples // n, 1))]
    if lemma in ("centrals-1", "centrals-2"):
        zlist = upper.term(j if lemma == "centrals-1" else j + 1).members.tolist()
        rows = []
        for _ in range(samples):
            a, c = rr(n), rr(n)
            rows.append((a, zlist[rr(len(zlist))], c) + tuple(rr(n) for _ in range(j)))
        return rows
    zj, zj1 = set(upper.term(j).members.tolist()), set(upper.term(j + 1).members.tolist())

    def comm(x, y):
        t, inv = G.table, G.inverses
        return int(t[t[t[x, y], inv[x]], inv[y]])

    rows = []
    for _ in range(samples):
        a, X, Y, Xp = (rr(n) for _ in range(4))
        if comm(Y, comm(a, Xp)) in zj and comm(a, Y) in zj1:
            rows.append((a, X, Y, Xp) + tuple(rr(n) for _ in range(j)))
    return rows
