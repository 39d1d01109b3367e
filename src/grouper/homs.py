"""Exhaustive, pruned enumeration of Hom(H, G), End(G) and Aut(G).

Candidates are tuples of generator images, iterated in lexicographic order
over per-generator candidate lists (sorted ascending), so the resulting hom
sets have a canonical, reproducible order.  Pruning: image orders must
divide generator orders, then pairwise product-order checks, then sampled
multiplicativity, then a full table check on the survivors.

Hom identity.  A hom H -> G is fixed by its images of the generators
``_gen_array(H)``.  Its key is the mixed-radix number whose digits are
the positions of those images in the per-generator candidate lists, so the
key is below the candidate-space size (at most ``CANDIDATE_CAP``) and fits
an ``int64`` for every pair that ``enumerate_homs`` accepts.  Because the
search walks the candidates in lexicographic order, the rows of every hom
set are strictly increasing in key, and ``np.searchsorted`` over the keys
finds the index of any hom.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Optional

import numpy as np

from .errors import EnumerationCapError
from .groups import FiniteGroup, GroupHom, Subgroup, center, generating_set_of_table

EXHAUSTIVE_CAP = 512
CANDIDATE_CAP = 200_000_000
_BATCH = 8192
_SAMPLE_PAIRS = 64

_hom_cache: dict = {}
_aut_cache: dict = {}


def _gen_array(G: FiniteGroup) -> np.ndarray:
    """The greedy ``generating_set_of_table`` of G as a read-only index array, memoized on G."""
    gens = G._memo.get("greedy_gens")
    if gens is None:
        gens = np.array(generating_set_of_table(G.table, G.identity), dtype=np.intp)
        gens.setflags(write=False)
        G._memo["greedy_gens"] = gens
    return gens


def first_per_key(keys: np.ndarray) -> np.ndarray:
    """Index of the first row holding each distinct row of ``keys``, in byte order of the rows.

    With one key row per hom of a hom set, in canonical order, this picks
    the canonically first hom of each key.
    """
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    order = rows.argsort(kind="stable")
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return order[first]


def _divisor_positions(G: FiniteGroup, o: int) -> tuple:
    """(pos, count): pos[x] is the rank of x among the ``count`` elements of G
    whose order divides o (0 for the others), memoized on G."""
    key = ("divisor_positions", o)
    hit = G._memo.get(key)
    if hit is None:
        members = o % G.element_orders == 0
        pos = np.cumsum(members, dtype=np.int64) - 1
        pos[~members] = 0
        pos.setflags(write=False)
        hit = G._memo[key] = (pos, int(members.sum()))
    return hit


def _word_entries(H: FiniteGroup, gens: list) -> list:
    """Breadth-first word table: (element, parent, generator position) triples."""
    seen = [False] * H.order
    seen[H.identity] = True
    queue = [H.identity]
    entries = []
    i = 0
    while i < len(queue):
        cur = queue[i]
        for gp, g in enumerate(gens):
            nxt = int(H.table[cur, g])
            if not seen[nxt]:
                seen[nxt] = True
                entries.append((nxt, cur, gp))
                queue.append(nxt)
        i += 1
    if len(queue) != H.order:
        raise ValueError("generators do not generate the group")
    return entries


def _extend_batch(H: FiniteGroup, G: FiniteGroup, entries, gen_cols: np.ndarray) -> np.ndarray:
    B = gen_cols.shape[0]
    images = np.empty((B, H.order), dtype=np.int32)
    images[:, H.identity] = G.identity
    tG = G.table
    for elem, parent, gp in entries:
        images[:, elem] = tG[images[:, parent], gen_cols[:, gp]]
    return images


def _full_check(H: FiniteGroup, G: FiniteGroup, images: np.ndarray, gens) -> np.ndarray:
    """Boolean mask of rows that are genuine homomorphisms.

    A row maps the identity to the identity, so checking f(x g) = f(x) f(g)
    for every x and every generator g suffices: induction on the length of
    y as a word in the generators then gives f(x y) = f(x) f(y).
    """
    ok = np.ones(images.shape[0], dtype=bool)
    tH, tG = H.table, G.table
    for g in gens:
        ok &= (images[:, tH[:, g]] == tG[images, images[:, g, None]]).all(axis=1)
    return ok


class HomKeys:
    """Integer key of a hom H -> G, read off its images of ``gens``.

    ``gens`` is ``_gen_array(H)``.  Digit i of a key is the position of
    the image of ``gens[i]`` in that generator's candidate list (the
    elements of G whose order divides the generator's), weighted by the
    product of the later lists' lengths.  Keys are exact on the generator
    images of homs; any other images get some key that a full-row
    comparison will not confirm.
    """

    __slots__ = ("gens", "_positions", "_weights")

    def __init__(self, H: FiniteGroup, G: FiniteGroup):
        self.gens = _gen_array(H)
        positions, weights = [], []
        weight = 1
        for o in reversed(H.element_orders[self.gens].tolist()):
            pos, count = _divisor_positions(G, o)
            positions.append(pos)
            weights.append(weight)
            weight *= count
        if weight > np.iinfo(np.int64).max:
            raise EnumerationCapError(f"hom keys for Hom({H.name},{G.name}) do not fit in 64 bits")
        self._positions = tuple(positions[::-1])
        self._weights = tuple(weights[::-1])

    def __call__(self, gen_images: np.ndarray) -> np.ndarray:
        """Keys of generator images, given along the last axis."""
        keys = 0
        for i, (pos, weight) in enumerate(zip(self._positions, self._weights)):
            digit = pos[gen_images[..., i]]
            keys = keys + (digit if weight == 1 else digit * weight)
        return keys


class KeyedRows:
    """Image rows of homs source -> target, in strictly increasing key order.

    Row ``r`` is the image array of a hom and ``keys[r]`` its ``HomKeys``
    key; keys are computed on first use.  ``locate`` maps generator images
    of member homs to row indices with one ``searchsorted``.
    """

    __slots__ = ("source", "target", "matrix", "gens", "_keygen", "_keys")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, matrix: np.ndarray):
        self.source = source
        self.target = target
        self.matrix = np.ascontiguousarray(matrix, dtype=np.int32)
        self.gens = _gen_array(source)  # the source generators whose images identify a hom
        self._keygen: Optional[HomKeys] = None
        self._keys: Optional[np.ndarray] = None

    def __len__(self):
        return int(self.matrix.shape[0])

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            self._keygen = HomKeys(self.source, self.target)
            keys = self._keygen(self.matrix[:, self.gens])
            if (np.diff(keys) <= 0).any():
                raise ValueError("hom rows are not in strictly increasing key order")
            self._keys = keys
        return self._keys

    def locate(self, gen_images: np.ndarray) -> np.ndarray:
        """Row index of each row of generator images; every one must be a member's.

        Raises KeyError when some row's key is not among the members' keys.
        """
        keys = self.keys
        want = self._keygen(gen_images)
        idx = keys.searchsorted(want)
        if not (keys.take(idx, mode="clip") == want).all():
            raise KeyError("generator images of a non-member hom")
        return idx

    def index_of(self, images) -> int:
        """Row index of a full image array; KeyError if it is not a row."""
        row = np.asarray(images)
        if row.shape != (self.source.order,) or row.min() < 0 or row.max() >= self.target.order:
            raise KeyError("not an image array of this hom set")
        i = int(self.locate(row[self.gens][None, :])[0])
        if (self.matrix[i] == row).all():
            return i
        raise KeyError("not a member of this hom set")

    def contains_images(self, images) -> bool:
        try:
            self.index_of(images)
        except KeyError:
            return False
        return True


class HomSet(KeyedRows):
    """Complete list of homomorphisms source -> target in canonical order.

    Rows are sorted lexicographically by their images of ``gens``, so their
    keys strictly increase (module docstring); lookups rely on that order
    and on completeness.
    """

    __slots__ = ()

    @property
    def homs(self) -> list:
        return [GroupHom(self.source, self.target, row, check=False) for row in self.matrix]

    def sorted_images(self) -> tuple:
        """(images, sizes): each row's images in ascending order, and how many elements it hits."""
        images = np.sort(self.matrix, axis=1)
        return images, 1 + (images[:, 1:] != images[:, :-1]).sum(axis=1)


def _candidate_lists(H: FiniteGroup, G: FiniteGroup, gens, bijective: bool):
    ordH = H.element_orders
    ordG = G.element_orders
    out = []
    for g in gens:
        o = int(ordH[g])
        if bijective:
            cand = np.nonzero(ordG == o)[0]
        else:
            cand = np.nonzero(o % ordG == 0)[0]
        out.append(cand.astype(np.int32))
    return out


@functools.lru_cache(maxsize=None)
def _sample_pairs(order: int) -> tuple:
    """The (i, j) pairs of the sampled multiplicativity check, as two index arrays."""
    rng = random.Random(0x5EED)
    pairs = [(rng.randrange(order), rng.randrange(order)) for _ in range(_SAMPLE_PAIRS)]
    cols = np.array(pairs, dtype=np.intp).T
    cols.setflags(write=False)  # shared by every caller through the cache
    return cols[0], cols[1]


def _search_homs(
    H: FiniteGroup,
    G: FiniteGroup,
    *,
    bijective: bool = False,
    first_only: bool = False,
):
    gens = _gen_array(H).tolist()
    entries = _word_entries(H, gens)
    cands = _candidate_lists(H, G, gens, bijective)
    total = 1
    for c in cands:
        total *= len(c)
    if total > CANDIDATE_CAP:
        raise EnumerationCapError(
            f"candidate space {total} for Hom({H.name},{G.name}) exceeds {CANDIDATE_CAP}"
        )
    k = len(gens)
    tH, tG = H.table, G.table
    ordH, ordG = H.element_orders, G.element_orders
    # pairwise word constraints on generator images
    pair_words = []
    for a in range(k):
        for b in range(k):
            w = int(tH[gens[a], gens[b]])
            pair_words.append((a, b, int(ordH[w])))
    si, sj = _sample_pairs(H.order)
    sij = tH[si, sj]
    found = []
    it = itertools.product(*[c.tolist() for c in cands])
    while True:
        chunk = list(itertools.islice(it, _BATCH))
        if not chunk:
            break
        cols = np.array(chunk, dtype=np.int32).reshape(len(chunk), k)
        mask = np.ones(len(chunk), dtype=bool)
        for a, b, needed in pair_words:
            prod = tG[cols[:, a], cols[:, b]]
            if bijective:
                mask &= ordG[prod] == needed
            else:
                mask &= needed % ordG[prod] == 0
        cols = cols[mask]
        if cols.size == 0:
            continue
        images = _extend_batch(H, G, entries, cols)
        ok = (images[:, sij] == tG[images[:, si], images[:, sj]]).all(axis=1)
        images = images[ok]
        if images.size == 0:
            continue
        if bijective:
            sorted_rows = np.sort(images, axis=1)
            images = images[(sorted_rows == np.arange(G.order)).all(axis=1)]
            if images.size == 0:
                continue
        good = _full_check(H, G, images, gens)
        images = images[good]
        if images.size and first_only:
            return images[:1]
        if images.size:
            found.append(images)
    if not found:
        return np.empty((0, H.order), dtype=np.int32)
    return np.concatenate(found, axis=0)


def enumerate_homs(H: FiniteGroup, G: FiniteGroup) -> HomSet:
    """All homomorphisms H -> G, canonically ordered, duplicate-free."""
    if H.order > EXHAUSTIVE_CAP or G.order > EXHAUSTIVE_CAP:
        raise EnumerationCapError(
            f"exhaustive enumeration capped at order {EXHAUSTIVE_CAP} "
            f"(got |{H.name}|={H.order}, |{G.name}|={G.order})"
        )
    key = (id(H), id(G))
    hit = _hom_cache.get(key)
    if hit is not None:
        return hit
    hs = HomSet(H, G, _search_homs(H, G))
    _hom_cache[key] = hs
    return hs


def end_set(G: FiniteGroup) -> HomSet:
    return enumerate_homs(G, G)


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup):
    """First bijective homomorphism in canonical order, or None."""
    if G1.order != G2.order:
        return None
    if G1.order > EXHAUSTIVE_CAP:
        raise EnumerationCapError(f"isomorphism search capped at order {EXHAUSTIVE_CAP}")
    matrix = _search_homs(G1, G2, bijective=True, first_only=True)
    if matrix.shape[0] == 0:
        return None
    return GroupHom(G1, G2, matrix[0], check=False)


class AutGroup:
    """Aut(G) assembled as an abstract group acting on G.

    ``group`` is the abstract group on automorphism indices; ``perms`` row a
    is the image array of automorphism a, and the rows are in strictly
    increasing hom-key order, as in End(G); ``inner`` is the subgroup of
    conjugations.
    """

    def __init__(self, base: FiniteGroup, perms: np.ndarray):
        self.base = base
        self._rows = KeyedRows(base, base, perms)
        self.perms = self._rows.matrix
        nA = self.perms.shape[0]
        gen_cols = self.perms[:, self._rows.gens]
        table = np.empty((nA, nA), dtype=np.int32)
        for a in range(nA):
            table[a] = self._rows.locate(self.perms[a][gen_cols])  # perms[a] after perms[b]
        ident = self._rows.index_of(np.arange(base.order))
        gens = generating_set_of_table(table, ident)
        self.group = FiniteGroup(
            f"Aut({base.name})",
            table,
            generators=gens,
            identity=ident,
        )
        # conjugation by g sends generator x to g x g^-1
        t, g = base.table, np.arange(base.order)[:, None]
        conj = t[g, t[self._rows.gens[None, :], base.inverses[g]]]
        self.inner = Subgroup(self.group, self._rows.locate(conj))
        z = center(base).order
        if self.inner.order * z != base.order:
            raise ValueError("inner automorphism count inconsistent with center")

    @property
    def order(self) -> int:
        return int(self.perms.shape[0])

    def index_of(self, images: np.ndarray) -> int:
        return self._rows.index_of(images)

    def hom(self, a: int) -> GroupHom:
        return GroupHom(self.base, self.base, self.perms[a], check=False)


def automorphism_group(G: FiniteGroup) -> AutGroup:
    key = id(G)
    hit = _aut_cache.get(key)
    if hit is not None:
        return hit
    ends = end_set(G).matrix
    perms = ends[(np.sort(ends, axis=1) == np.arange(G.order)).all(axis=1)]
    ag = AutGroup(G, perms)
    _aut_cache[key] = ag
    return ag


def clear_caches():
    """Drop all in-memory hom/aut caches (used by determinism tests)."""
    _hom_cache.clear()
    _aut_cache.clear()
