import functools
import itertools

import numpy as np
import pytest

from grouper.approx import RelativeReport, Witness
from grouper.commutators import LemmaReport, _Tables, _drawn, _lex, _scan
from grouper.corpus import HomVerdicts
from grouper.groups import FiniteGroup, generating_set_of_table, standard_group
from grouper.homs import AutSubgroup, _gen_array, automorphism_group, enumerate_homs


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


def oracle_aut_orders(aut) -> list:
    """Oracle: the order of each automorphism a, by products a a ... a in ``oracle_aut_table``
    until the identity."""
    table = oracle_aut_table(aut)
    ident = index_of_row(aut.perms, np.arange(aut.base.order))
    orders = []
    for a in range(len(table)):
        x, k = a, 1
        while x != ident:
            x, k = int(table[x, a]), k + 1
        orders.append(k)
    return orders


def oracle_greedy_generators(aut) -> list:
    """Oracle: the greedy generating set of Aut(G), with the subgroup generated so far closed
    as a Python set in ``oracle_aut_table``: each pick is the first automorphism outside it,
    the highest order first and the lowest index on ties."""
    table = oracle_aut_table(aut)
    orders = oracle_aut_orders(aut)
    ident = index_of_row(aut.perms, np.arange(aut.base.order))
    members, gens = {ident}, []
    for a in sorted(range(len(orders)), key=lambda a: (-orders[a], a)):
        if a in members:
            continue
        gens.append(a)
        queue = [ident]
        members = {ident}
        for x in queue:
            for g in gens:
                y = int(table[x, g])
                if y not in members:
                    members.add(y)
                    queue.append(y)
    return gens or [ident]


def oracle_inner_members(aut) -> set:
    """Oracle: the Aut indices of the conjugations x -> g x g^-1, one full image array per g."""
    G = aut.base
    t = G.table
    return {index_of_row(aut.perms, t[t[g], G.inverses[g]]) for g in range(G.order)}


def _side_profile_per_hom(hom_set, aut, gen_images, phi_idx):
    """Oracle kernel: the per-hom classification that ``corpus.classify_pair`` ran before its
    verdicts were read from image and kernel counts.  It locates every composite in the hom
    set and counts the hits per hom, and it is kept apart from ``approx`` so that the
    differential tests do not compare the count kernel with itself.

    Returns (approximation, bijective, surjective, Galois order) per hom of ``phi_idx``.
    """
    idx = hom_set.locate(gen_images)
    n = len(hom_set)
    rows = idx.reshape(-1, idx.shape[-1])
    flat = rows + (np.arange(rows.shape[0]) * n)[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows.shape[0] * n).reshape(idx.shape[:-1] + (n,))
    fixers = idx == phi_idx[:, None]
    galois = fixers[:, aut.end_rows]
    surjective = counts.all(axis=-1)
    injective = (counts <= 1).all(axis=-1)
    approximation = surjective & (fixers.sum(axis=-1) == galois.sum(axis=-1))
    return approximation, surjective & injective, surjective, galois.sum(axis=1)


def classify_pair_per_hom(H: FiniteGroup, G: FiniteGroup) -> HomVerdicts:
    """Oracle: compose every hom H -> G with all of End(G) and End(H), one hom at a time.

    This is the kernel that ``corpus.classify_pair`` ran before it
    classified one hom per Aut(H) x Aut(G) orbit; nothing is memoized.
    """
    hom_set = enumerate_homs(H, G)
    end_g, end_h = enumerate_homs(G, G), enumerate_homs(H, H)
    aut_g, aut_h = automorphism_group(G), automorphism_group(H)
    gens = hom_set.gens
    parts = []
    for i, phi in enumerate(hom_set.matrix):
        row = np.array([i])
        # target side f.phi on End(G), source side phi.f on End(H)
        t_approx, t_bij, t_surj, t_gal = _side_profile_per_hom(
            hom_set, aut_g, end_g.matrix[None, :, phi[gens]], row)
        s_approx, s_bij, s_surj, s_gal = _side_profile_per_hom(
            hom_set, aut_h, phi[end_h.matrix[None, :, gens]], row)
        parts.append((t_approx, t_bij, s_approx, s_bij, t_surj, s_surj, t_gal, s_gal))
    return HomVerdicts(H, G, hom_set.matrix, *(np.concatenate(p) for p in zip(*parts)))


def oracle_hits(phi_images, H: FiniteGroup, G: FiniteGroup, F: FiniteGroup, envelope: bool):
    """Oracle: (inner, counts) for phi: H -> G and the class member F.  With ``envelope``, the
    composites are f.phi for f in Hom(G, F), located in inner = Hom(H, F); otherwise phi.f
    for f in Hom(F, H), located in inner = Hom(F, G).  ``counts[i]`` counts the composites
    equal to hom i of inner."""
    if envelope:
        outer, inner = enumerate_homs(G, F), enumerate_homs(H, F)
        gen_images = outer.matrix[:, phi_images[inner.gens]]
    else:
        outer, inner = enumerate_homs(F, H), enumerate_homs(F, G)
        gen_images = phi_images[outer.matrix[:, inner.gens]]
    return inner, np.bincount(inner.locate(gen_images), minlength=len(inner))


def oracle_classify_against_class(phi, cls, side: str) -> RelativeReport:
    """Oracle: ``approx.classify_against_class`` as it was decided before composites were
    counted by their distinct rows.

    Each class member's composites are located and their hits counted
    (``oracle_hits``): onto when every hom is hit, one-to-one when none is
    hit twice.  The fixers of phi are found by a scan of End(X), and the
    Galois group is the fixers among the automorphisms.
    """
    H, G = phi.source, phi.target
    envelope = side == "envelope"
    X = G if envelope else H
    witnesses = []
    in_class = cls.contains(X)
    surj_all = inj_all = True
    for rep in cls.members:
        inner, counts = oracle_hits(phi.images, H, G, rep, envelope)
        if not counts.all():
            surj_all = False
            witnesses.append(Witness("isPreapproximation", "unlifted-hom",
                                     {"class_member": rep.name,
                                      "unliftedHom": inner.matrix[np.argmin(counts)].tolist()}))
            break
        inj_all = inj_all and bool((counts <= 1).all())
    pre = in_class and surj_all
    end, aut = enumerate_homs(X, X), automorphism_group(X)
    gens = _gen_array(H)
    comp_x = end.matrix[:, phi.images[gens]] if envelope else phi.images[end.matrix[:, gens]]
    fixers = (comp_x == phi.images[gens]).all(axis=1)
    non_aut = fixers & ~aut.end_mask
    approx = pre and not non_aut.any()
    if pre and non_aut.any():
        witnesses.append(Witness("isApproximation", "non-automorphism-preimage",
                                 {"endomorphism": end.matrix[np.argmax(non_aut)].tolist()}))
    unique = approx and surj_all and inj_all
    gal = AutSubgroup(aut, np.flatnonzero(fixers[aut.end_rows]))
    return RelativeReport(phi, side, cls, in_class, pre, approx, unique, gal, witnesses)


def oracle_is_orthogonal(phi, cls) -> bool:
    """Oracle: precomposition with phi hits every hom into each class member exactly once."""
    return all((oracle_hits(phi.images, phi.source, phi.target, rep, True)[1] == 1).all()
               for rep in cls.members)


def oracle_hom_rows(H: FiniteGroup, G: FiniteGroup):
    """Oracle: (rows, keys) of Hom(H, G) from all |G|^k images of the k generators ``_gen_array(H)``.

    No order filter: each generator tuple is extended along breadth-first
    words in the generators, and a row is kept when it sends each generator
    to its entry of the tuple and f(x y) = f(x) f(y) holds on the whole
    table of H.  Rows are sorted by their key (``homs`` module docstring),
    computed here from the ranks of the generator images among the
    elements of G whose order divides the generator's.  Tuples go 4096 at a time; only usable
    while |G|^k tuples are few.
    """
    gens = _gen_array(H).tolist()
    words = []  # (element, parent, generator position), breadth first
    reached = {H.identity}
    for cur in itertools.chain([H.identity], (w[0] for w in words)):
        for i, g in enumerate(gens):
            nxt = int(H.table[cur, g])
            if nxt not in reached:
                reached.add(nxt)
                words.append((nxt, cur, i))
    assert len(reached) == H.order
    digits, radix = [], []
    for g in gens:
        divides = H.element_orders[g] % G.element_orders == 0
        digits.append(np.cumsum(divides) - 1)
        radix.append(int(divides.sum()))
    weights = [int(np.prod(radix[i + 1:])) for i in range(len(gens))]
    tuples = np.array(list(itertools.product(range(G.order), repeat=len(gens))), dtype=np.intp)
    rows, keys = [], []
    for lo in range(0, len(tuples), 4096):
        t = tuples[lo:lo + 4096]
        images = np.empty((len(t), H.order), dtype=np.int64)
        images[:, H.identity] = G.identity
        for elem, parent, i in words:
            images[:, elem] = G.table[images[:, parent], t[:, i]]
        ok = (images[:, H.table] == G.table[images[:, :, None], images[:, None, :]]).all(axis=(1, 2))
        ok &= (images[:, gens] == t).all(axis=1)  # a generator may be the identity
        rows.append(images[ok])
        keys.append(sum(digits[i][t[ok, i]] * weights[i] for i in range(len(gens))))
    rows, keys = np.concatenate(rows), np.concatenate(keys).astype(np.int64)
    order = keys.argsort()
    return rows[order].astype(np.int32), keys[order]


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


def oracle_image_facts(images: np.ndarray, source_order: int, target_order: int) -> tuple:
    """Oracle: (injective, surjective, image members) of a map from ``np.unique`` of its images."""
    members = np.unique(images)
    return len(members) == source_order, len(members) == target_order, members


def oracle_copy_orbits(phi) -> tuple:
    """Oracle for the criterion's second condition: (single_orbit, copy_count, orbit_count, witness).

    The copies of H are the distinct images of the injective homs H -> G,
    in byte order of their int32 members.  Each copy is labelled by its
    least sorted image under all of Aut(G), one label per orbit; the
    witness is the first copy outside phi's orbit.
    """
    H, G = phi.source, phi.target
    images = {}
    for row in enumerate_homs(H, G).matrix:
        image = np.sort(row)
        if (image[1:] != image[:-1]).all():  # H.order distinct images: injective
            images[image.astype(np.int32).tobytes()] = image
    copies = [images[k] for k in sorted(images)]
    perms = automorphism_group(G).perms

    def orbit(members) -> tuple:
        return min(map(tuple, np.sort(perms[:, members], axis=1).tolist()))

    base = orbit(np.sort(phi.images))
    labels = [orbit(c) for c in copies]
    outside = [c for c, label in zip(copies, labels) if label != base]
    return not outside, len(copies), len(set(labels) | {base}), outside[0].tolist() if outside else None


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


def oracle_check_homo(G: FiniteGroup, j: int, upper, cfg, rng) -> LemmaReport:
    """Oracle: the homo report with both hypotheses evaluated on every head.

    A copy of `_check_homo` as it was before it decided a hypothesis whose
    centre term is all of G once per report: the same tables, head sources
    and scan, and a keep that tests both factors on every quad.
    """
    tables = _Tables(G, j)
    n, every, t, C, L = tables.n, tables.every, tables.t, tables.C, tables.left_normed
    in_zj, in_zj1 = upper.term(j)._member_mask, upper.term(j + 1)._member_mask

    def hypotheses(a, X, Y, Xp):
        return in_zj[C(Y, C(a, Xp))] & in_zj1[C(a, Y)]

    def holds(a, X, Y, Xp, at):
        aXXp, aY = C(a, t(X, Xp)), C(a, Y)
        lhs = L(C(a, t(t(X, Y), Xp)), at, j)
        mid = L(t(aXXp, aY), at, j)
        rhs = t(L(aXXp, at, j), L(aY, at, j))
        return (lhs == mid) & (mid == rhs)

    exhaustive = n ** (4 + j) <= cfg.max_tuples
    if exhaustive:
        bad, count = _scan(_lex([every] * 4, hypotheses), [every] * j, holds, n ** j)
    else:
        draws = _drawn(rng, cfg.samples, [n] * 4, hypotheses, [n] * j)
        bad, count = _scan(draws, [], lambda *cols: holds(*cols[:4], cols[4:]), 1)
    return LemmaReport(G.name, "homo", j, count, bad, exhaustive)
