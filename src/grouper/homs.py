"""Exhaustive, pruned enumeration of Hom(H, G), End(G) and Aut(G).

A hom H -> G is fixed by its images of the generators ``_gen_array(H)``.
``HomKeys(H, G)`` is the candidate space: one list per generator of the
elements of G whose order divides the generator's, sorted ascending, and
a candidate is one image from each list.  Its key is the mixed-radix
number whose digits are the positions of those images in the lists, so
keys run over 0..size-1 in the lexicographic order of the candidates.

``enumerate_source(H, targets)`` searches the candidate spaces of all the
given targets of H in one walk (``_Walk``), with what the search needs of
H alone built once (``_search_plan``).  A candidate is kept when the
products of two generator images have orders dividing those in H, then
when it satisfies the hom equations.  Those are checked depth by depth
along the breadth-first word table of H, so a candidate is dropped at the
first relator of H that it fails; no random numbers are drawn.  A hom's
key is its place in its target's walk, so every hom set comes in canonical
order, strictly increasing in key, and ``np.searchsorted`` over the keys
finds the index of any hom.  Keys are below the candidate-space size (at
most ``CANDIDATE_CAP``), so they fit an ``int64`` for every pair that
``enumerate_homs`` accepts.  ``enumerate_homs(H, G)`` is a walk of one
target, and ``find_isomorphism`` walks the same way over equal-order lists.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import EnumerationCapError
from .groups import FiniteGroup, GroupHom, _close, _greedy_generators, center, generating_set_of_table, lex_rows

EXHAUSTIVE_CAP = 512
CANDIDATE_CAP = 200_000_000
_BATCH = 8192
_COLS = 64  # word-table edges per slice of the extension and relator checks, bounding their temporaries


def _gen_array(G: FiniteGroup) -> np.ndarray:
    """The greedy ``generating_set_of_table`` of G as a read-only index array, memoized on G."""

    def compute():
        close = functools.partial(_close, G.table)
        gens = np.array(_greedy_generators(close, G.identity, G.element_orders), dtype=np.intp)
        gens.setflags(write=False)
        return gens

    return G.memo("greedy_gens", compute)


_WORD_SORT_ROWS = 128  # ``key_order`` sorts at least this many rows of at most two 64-bit words as words


def key_order(keys: np.ndarray) -> tuple:
    """(order, first): the stable sort of the rows of ``keys`` in byte order of the rows, and
    the mask over it of the first row of each distinct row.

    The rows are sorted as void items, unless there are at least
    ``_WORD_SORT_ROWS`` of them and each fits in two 64-bit words: then
    they are sorted as their bytes read as big-endian 64-bit words,
    zero-padded, which compare as the bytes do, with one ``np.lexsort``
    pass per word.  On 1 024 rows that takes 0.3 of the void sort's time
    at one word and 0.85 at two, but 1.2 times it at three words and 3
    times at eight, and below about a hundred rows the void sort is
    faster.  Sorting End(C4 x C4 x C4) at three generators, 262 144 rows
    of 12 bytes, takes a third to a half of the void sort's time.
    """
    keys = np.ascontiguousarray(keys)
    n, width = len(keys), keys.dtype.itemsize * keys.shape[1]
    words = -(-width // 8)
    if n < _WORD_SORT_ROWS or words > 2:
        rows = keys.view(np.dtype((np.void, width))).ravel()
        order = rows.argsort(kind="stable")
        rows = rows[order]
        new = rows[1:] != rows[:-1]
    else:
        packed = np.zeros((n, words), dtype=">u8")
        packed.view(np.uint8)[:, :width] = keys.view(np.uint8).reshape(n, width)
        packed = packed.astype(np.uint64)
        order = np.lexsort(packed.T[::-1])
        packed = packed[order]
        new = (packed[1:] != packed[:-1]).any(axis=1)
    first = np.ones(n, dtype=bool)
    first[1:] = new
    return order, first


def first_per_key(keys: np.ndarray) -> np.ndarray:
    """Index of the first row holding each distinct row of ``keys``, in byte order of the rows.

    With one key row per hom of a hom set, in canonical order, this picks
    the canonically first hom of each key.
    """
    order, first = key_order(keys)
    return order[first]


def _divisor_positions(G: FiniteGroup, o: int) -> tuple:
    """(members, pos): the elements of G whose order divides o, ascending, and
    pos[x], the rank of x among them (0 for the others); memoized on G."""

    def compute():
        mask = o % G.element_orders == 0
        pos = np.cumsum(mask, dtype=np.int64) - 1
        pos[~mask] = 0
        members = np.flatnonzero(mask)
        members.setflags(write=False)
        pos.setflags(write=False)
        return members, pos

    return G.memo(("divisor_positions", o), compute)


def _search_plan(H: FiniteGroup) -> SimpleNamespace:
    """What a hom search from H needs of H alone, memoized on H.

    With ``gens`` the generators ``_gen_array(H)``, ``pair_orders`` holds
    (a, b, o) for each ordered pair of generator positions, o the order of
    gens[a] gens[b].  ``depths`` is the breadth-first word table of H in
    ``gens``, one pair (tree, relators) per depth d, each an index array of
    three rows (y, x, p) for the edges y = x gens[p] of the Cayley graph:
    ``tree`` the edges that first reach the elements y at depth d, and
    ``relators`` every other edge whose deeper end lies at depth d.  A map
    extended along the tree edges satisfies f(y) = f(x) f(gens[p]) on them
    by construction; on a relator edge that equation is a relator of H,
    and it can be checked once the images to depth d are known.
    """

    def compute():
        gens = _gen_array(H).tolist()
        depth = [-1] * H.order
        depth[H.identity] = 0
        queue, edges = [H.identity], []
        for cur in queue:
            for gp, g in enumerate(gens):
                nxt = int(H.table[cur, g])
                tree = depth[nxt] < 0
                if tree:
                    depth[nxt] = depth[cur] + 1
                    queue.append(nxt)
                edges.append((max(depth[cur], depth[nxt]), not tree, nxt, cur, gp))
        if len(queue) != H.order:
            raise ValueError("generators do not generate the group")
        depths = [([], []) for _ in range(max(depth) + 1)]
        for d, relator, *edge in edges:
            depths[d][relator].append(edge)
        depths = [tuple(np.array(e, dtype=np.intp).reshape(-1, 3).T for e in pair) for pair in depths]
        pair_orders = [(a, b, int(H.element_orders[H.table[x, y]]))
                       for a, x in enumerate(gens) for b, y in enumerate(gens)]
        return SimpleNamespace(depths=depths, pair_orders=pair_orders)

    return H.memo("search_plan", compute)


def _extend_depth(images: np.ndarray, table: np.ndarray, gen_cols: np.ndarray, tree: np.ndarray) -> None:
    """Write each candidate's images of the elements that the edges ``tree`` reach, ``_COLS``
    edges at a time; the images of the edges' other ends must be written already."""
    for lo in range(0, tree.shape[1], _COLS):
        y, x, gp = tree[:, lo:lo + _COLS]
        images[:, y] = table[images[:, x], gen_cols[:, gp]]


def _extend_batch(H: FiniteGroup, table: np.ndarray, identity, gen_cols: np.ndarray) -> np.ndarray:
    """Each candidate's images of every element of H, extended from its generator images
    along the tree edges of ``_search_plan(H).depths``, depth by depth.

    Row i of ``gen_cols`` holds candidate i's images of ``_gen_array(H)``
    as columns of ``table``; ``identity`` is the row of the identity (one
    per candidate, or one for all), and ``table[r, c]`` the row of the
    product of row r and column c.  For a single target G these are
    ``G.table``, ``G.identity`` and the images themselves.
    """
    images = np.empty((gen_cols.shape[0], H.order), dtype=np.int32)
    images[:, H.identity] = identity
    for tree, _ in _search_plan(H).depths:
        _extend_depth(images, table, gen_cols, tree)
    return images


class HomKeys:
    """The candidate space of homs H -> G, and the integer key of each candidate.

    ``gens`` is ``_gen_array(H)``, and ``lists[i]`` holds the possible
    images of ``gens[i]``: the elements of G whose order divides its order,
    ascending.  Digit i of a key is the position of the image of
    ``gens[i]`` in ``lists[i]``, weighted by the product of the later
    lists' lengths, so keys run over 0..``size``-1 in lexicographic order
    of the images and ``lex_rows(lists, key, key + 1)`` decodes one.  Keys
    are exact on the generator images of homs; any other images get some
    key that a full-row comparison will not confirm.
    """

    __slots__ = ("gens", "lists", "size", "positions", "weights")

    def __init__(self, H: FiniteGroup, G: FiniteGroup):
        self.gens = _gen_array(H)
        self.lists, self.positions = zip(
            *(_divisor_positions(G, o) for o in H.element_orders[self.gens].tolist())
        )
        self.size = math.prod(len(m) for m in self.lists)
        if self.size > np.iinfo(np.int64).max:
            raise EnumerationCapError(f"hom keys for Hom({H.name},{G.name}) do not fit in 64 bits")
        self.weights = tuple(math.prod(len(m) for m in self.lists[i + 1:]) for i in range(len(self.lists)))

    def __call__(self, gen_images: np.ndarray) -> np.ndarray:
        """Keys of generator images, given along the last axis."""
        return _key_sum(self.positions, self.weights, gen_images)


def _key_sum(positions, weights, gen_images: np.ndarray) -> np.ndarray:
    """Sum over i of ``positions[i]`` at the images along the last axis, times ``weights[i]``."""
    keys = 0
    for i, (pos, weight) in enumerate(zip(positions, weights)):
        digit = pos[gen_images[..., i]]
        keys = keys + (digit if weight == 1 else digit * weight)
    return keys


class HomSet:
    """Complete list of homomorphisms source -> target in canonical order.

    Row ``r`` is the image array of a hom and ``keys[r]`` its key under
    ``keygen``, the ``HomKeys(source, target)``; the walk gives both.
    Rows are sorted lexicographically by their images of ``gens``, so their
    keys strictly increase (module docstring), and ``locate`` maps
    generator images of member homs to row indices with one
    ``searchsorted``; lookups rely on that order and on completeness.
    """

    __slots__ = ("source", "target", "matrix", "gens", "_keygen", "keys")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, matrix: np.ndarray, keygen: HomKeys,
                 keys: np.ndarray):
        self.source = source
        self.target = target
        self.matrix = np.ascontiguousarray(matrix, dtype=np.int32)
        self.gens = _gen_array(source)  # the source generators whose images identify a hom
        self._keygen = keygen
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("hom rows are not in strictly increasing key order")
        self.keys = keys

    def __len__(self):
        return int(self.matrix.shape[0])

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

    @property
    def homs(self) -> list:
        return [GroupHom(self.source, self.target, row, check=False) for row in self.matrix]

    def injective(self) -> np.ndarray:
        """Mask of the injective homs: those that send only the identity to the identity."""
        return (self.matrix == self.target.identity).sum(axis=1) == 1

    def sorted_images(self) -> tuple:
        """(images, sizes): each row's images in ascending order, and how many elements it hits."""
        images = np.sort(self.matrix, axis=1)
        return images, 1 + (images[:, 1:] != images[:, :-1]).sum(axis=1)

    def injective_per_image(self) -> np.ndarray:
        """Row index of the first injective hom with each image, in byte order of the sorted images."""
        injective = np.flatnonzero(self.injective())
        return injective[first_per_key(np.sort(self.matrix[injective], axis=1))]


def orbit_labels(hom_set, aut_g, aut_h) -> np.ndarray:
    """Each hom's least orbit-mate under phi -> a.phi.b, for a in Aut(G) and b in Aut(H).

    One ``locate`` per Aut generator gives its move on the homs; the least
    label spreads along the moves, with pointer jumping, to a fixed point
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 4.1).
    """
    gens = hom_set.gens
    gen_images = hom_set.matrix[:, gens]
    moves = [hom_set.locate(aut_g.perms[a][gen_images]) for a in aut_g.generators]
    moves += [hom_set.locate(hom_set.matrix[:, aut_h.perms[b][gens]]) for b in aut_h.generators]
    labels, prev = np.arange(len(hom_set)), None
    while prev is None or (labels != prev).any():
        prev = labels
        for move in moves:
            labels = np.minimum(labels, labels[move])
        labels = labels[labels]
    return labels


class _Walk:
    """The candidate spaces of homs H -> G_t, for the targets G_0, ..., G_m-1, walked as one.

    ``lists[t]`` holds the possible images of each generator of
    ``_gen_array(H)`` in G_t, ascending.  The spaces lie end to end:
    position ``starts[t] + i`` of the walk is candidate i of target t in the
    lexicographic order of ``lists[t]`` (its key, when those are the
    ``HomKeys`` lists).  The walk goes in blocks of at most ``_BATCH``
    candidates, and a block may span targets.  Products are read from the
    run table, (sum |G_t|) x max |G_t|, whose row ``lo_t + x`` holds row x
    of G_t raised by ``lo_t``: an image is held as its row ``lo_t + x``, a
    generator image also as its column x, and a product is one lookup
    whatever its target.  For a walk of one target the run table is
    ``G.table`` itself.  With ``bijective``, a candidate must send only the
    identity to the identity, and the products of two generator images must
    have the orders of those in H, not just divide them.
    """

    def __init__(self, H: FiniteGroup, targets, lists, *, bijective: bool = False):
        self.H, self.bijective = H, bijective
        sizes = [math.prod(len(m) for m in ls) for ls in lists]
        for G, size in zip(targets, sizes):
            if size > CANDIDATE_CAP:
                raise EnumerationCapError(
                    f"candidate space {size} for Hom({H.name},{G.name}) exceeds {CANDIDATE_CAP}"
                )
        self.starts = [0, *itertools.accumulate(sizes)]
        self.ends = np.array(self.starts[1:])
        self.elem_lo = np.array([0, *itertools.accumulate(G.order for G in targets)])
        if len(targets) == 1:
            (G,) = targets
            self.table, orders = G.table, G.element_orders
        else:
            self.table = np.zeros((self.elem_lo[-1], max(G.order for G in targets)), dtype=np.int32)
            for G, lo in zip(targets, self.elem_lo.tolist()):
                self.table[lo:lo + G.order, :G.order] = G.table + lo
            orders = np.concatenate([G.element_orders for G in targets])
        self.identity = np.array([G.identity + lo for G, lo in zip(targets, self.elem_lo.tolist())])
        self.allowed = {o: orders == o if bijective else o % orders == 0
                        for o in {o for _, _, o in _search_plan(H).pair_orders}}
        self.lists = lists

    @property
    def blocks(self) -> range:
        return range(0, self.starts[-1], _BATCH)

    def _targets(self, pos: np.ndarray) -> np.ndarray:
        return self.ends.searchsorted(pos, side="right")

    def survivors(self, lo: int) -> tuple:
        """(positions, columns) of the candidates, in the block from ``lo`` on, whose products
        of two generator images have orders allowed by H."""
        hi = min(lo + _BATCH, self.starts[-1])
        cols, rows = [], []
        for t in range(bisect.bisect_right(self.starts, lo) - 1, bisect.bisect_left(self.starts, hi)):
            first, last = self.starts[t], self.starts[t + 1]
            cols.append(lex_rows(self.lists[t], max(lo, first) - first, min(hi, last) - first))
            rows.append(cols[-1] + self.elem_lo[t])
        cols, rows = (np.concatenate(x) if len(x) > 1 else x[0] for x in (cols, rows))
        keep = np.ones(hi - lo, dtype=bool)
        for a, b, o in _search_plan(self.H).pair_orders:
            keep &= self.allowed[o][self.table[rows[:, a], cols[:, b]]]
        return np.arange(lo, hi)[keep], cols[keep]

    def homs(self, pos: np.ndarray, cols: np.ndarray) -> tuple:
        """(positions, images) of the homs among the candidates at ``pos`` with generator
        images ``cols``.

        The candidates are extended as in ``_extend_batch``, depth by depth,
        and after each depth the relators that close there are checked,
        ``_COLS`` at a time; a candidate that fails one is dropped at once.
        Over all depths these are the equations f(x g) = f(x) f(g) for every
        x and each generator g, the tree edges holding by construction.
        Those equations suffice: f maps the identity to the identity, so
        induction on the length of y as a word in the generators gives
        f(x y) = f(x) f(y).  So which candidates pass does not depend on the
        order of the checks.  The images are in G_t's own labels.
        """
        H, table = self.H, self.table
        images = np.empty((len(pos), H.order), dtype=np.int32)
        images[:, H.identity] = self.identity[self._targets(pos)]
        for tree, relators in _search_plan(H).depths:
            _extend_depth(images, table, cols, tree)
            for lo in range(0, relators.shape[1], _COLS):
                y, x, gp = relators[:, lo:lo + _COLS]
                ok = (images[:, y] == table[images[:, x], cols[:, gp]]).all(axis=1)
                if not ok.all():
                    images, pos, cols = images[ok], pos[ok], cols[ok]
        if self.bijective:  # a trivial kernel, so with |H| = |G| the hom is bijective
            one = (images == images[:, H.identity, None]).sum(axis=1) == 1
            images, pos = images[one], pos[one]
        images -= self.elem_lo[self._targets(pos), None]
        return pos, images

    def hom_rows(self) -> list:
        """(images, keys) of every target's homs, in key order.

        A walk of one block keeps that block's rows.  A longer walk first
        finds every block's survivors of the product orders, then writes
        each block's homs into one array with a row per survivor: its pages
        past the last hom are never written, and the homs are never held
        twice.
        """
        found = [self.survivors(lo) for lo in self.blocks]
        if len(found) == 1:
            pos, images = self.homs(*found[0])
        else:
            room = sum(len(p) for p, _ in found)
            images = np.empty((room, self.H.order), dtype=np.int32)
            pos = np.empty(room, dtype=np.int64)
            n = 0
            for block in found:
                p, rows = self.homs(*block)
                images[n:n + len(p)], pos[n:n + len(p)] = rows, p
                n += len(p)
            images, pos = images[:n], pos[:n]
        bounds = pos.searchsorted(self.starts).tolist()
        return [(images[a:b], pos[a:b] - start) for a, b, start in zip(bounds, bounds[1:], self.starts)]


def _hom_sets(H: FiniteGroup, targets) -> list:
    """The ``HomSet`` of H -> G for each G of ``targets``, from one walk."""
    spaces = []
    for G in targets:
        if H.order > EXHAUSTIVE_CAP or G.order > EXHAUSTIVE_CAP:
            raise EnumerationCapError(
                f"exhaustive enumeration capped at order {EXHAUSTIVE_CAP} "
                f"(got |{H.name}|={H.order}, |{G.name}|={G.order})"
            )
        spaces.append(HomKeys(H, G))
    walk = _Walk(H, targets, [space.lists for space in spaces])
    return [HomSet(H, G, images, space, keys=keys)
            for G, space, (images, keys) in zip(targets, spaces, walk.hom_rows())]


def enumerate_source(H: FiniteGroup, targets) -> None:
    """Enumerate Hom(H, G), for each G of ``targets`` that H holds no hom set for, in one
    walk; ``enumerate_homs`` then reads them from H's memo."""
    todo = [G for G in {id(G): G for G in targets}.values() if not H.memoized(("homs", G))]
    if todo:
        for G, hs in zip(todo, _hom_sets(H, todo)):
            H.memo(("homs", G), lambda hs=hs: hs)


def enumerate_homs(H: FiniteGroup, G: FiniteGroup) -> HomSet:
    """All homomorphisms H -> G, canonically ordered, duplicate-free, as a walk of one
    target; memoized on H."""
    return H.memo(("homs", G), lambda: _hom_sets(H, [G])[0])


def end_set(G: FiniteGroup) -> HomSet:
    return enumerate_homs(G, G)


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup):
    """First bijective homomorphism in canonical order, or None.

    The walk covers only the generator images of the generators' own orders
    (sublists of the ``HomKeys`` lists, in the same lexicographic order);
    their sizes are what ``CANDIDATE_CAP`` bounds.
    """
    if G1.order != G2.order:
        return None
    if G1.order > EXHAUSTIVE_CAP:
        raise EnumerationCapError(f"isomorphism search capped at order {EXHAUSTIVE_CAP}")
    space, orders = HomKeys(G1, G2), G2.element_orders
    lists = [m[orders[m] == o] for m, o in zip(space.lists, G1.element_orders[space.gens].tolist())]
    walk = _Walk(G1, [G2], [lists], bijective=True)
    for lo in walk.blocks:
        images = walk.homs(*walk.survivors(lo))[1]
        if len(images):
            return GroupHom(G1, G2, images[0], check=False)
    return None


class AutGroup:
    """Aut(G) as a permutation group on G: the units of the hom set ``ends``, End(G).

    Aut indices re-index the End rows with a trivial kernel, which
    ``end_mask`` marks: automorphism a is End row ``end_rows[a]``, and
    ``perms`` row a is a copy of its image array.  ``locate`` finds
    automorphisms through ``ends.locate``.  No table over Aut is built: a
    product a.b is located when it is needed.
    ``element_orders`` come from powering the automorphisms on the
    generators of G; ``generators`` is the greedy generating set, picked as
    ``generating_set_of_table`` picks (the highest order first, ties to the
    lowest index); ``inner_order`` is the number of inner automorphisms,
    |G| / |Z(G)|.
    """

    def __init__(self, ends: HomSet):
        base = self.base = ends.source
        self.ends = ends
        self.end_mask = ends.injective()
        self.end_rows = np.flatnonzero(self.end_mask)
        self._aut_of_end = np.full(len(ends), -1, dtype=np.intp)  # Aut index of each End row, or -1
        self._aut_of_end[self.end_rows] = np.arange(len(self.end_rows))
        self.perms = ends.matrix[self.end_rows]
        self.identity = self.index_of(np.arange(base.order))
        self.element_orders = self._element_orders()
        self.generators = _greedy_generators(self._close, self.identity, self.element_orders)
        # conjugation by g sends generator x to g x g^-1; every one must be a row
        t, g = base.table, np.arange(base.order)[:, None]
        inner = np.zeros(self.order, dtype=bool)
        inner[self.locate(t[g, t[ends.gens[None, :], base.inverses[g]]])] = True
        self.inner_order = int(np.count_nonzero(inner))
        if self.inner_order * center(base).order != base.order:
            raise ValueError("inner automorphism count inconsistent with center")

    @property
    def order(self) -> int:
        return int(self.perms.shape[0])

    def locate(self, gen_images: np.ndarray) -> np.ndarray:
        """Aut index of each row of images of ``ends.gens``; KeyError if one is no automorphism's."""
        idx = self._aut_of_end[self.ends.locate(gen_images)]
        if (idx < 0).any():
            raise KeyError("generator images of an endomorphism that is not an automorphism")
        return idx

    def index_of(self, images: np.ndarray) -> int:
        """Aut index of a full image array; KeyError if it is not an automorphism."""
        a = int(self._aut_of_end[self.ends.index_of(images)])
        if a < 0:
            raise KeyError("an endomorphism that is not an automorphism")
        return a

    def _element_orders(self) -> np.ndarray:
        """Order of each automorphism: the least k with a^k fixing the generators of G."""
        gens = self.ends.gens
        orders = np.zeros(self.order, dtype=np.int32)
        todo, power = np.arange(self.order), self.perms[:, gens]
        k = 1
        while todo.size:
            done = (power == gens).all(axis=1)
            orders[todo[done]] = k
            todo, power = todo[~done], power[~done]
            power = self.perms[todo[:, None], power]
            k += 1
        return orders

    def _close(self, reached: np.ndarray, gens: list) -> np.ndarray:
        """Close the mask ``reached`` over Aut indices in place under right composition with ``gens``.

        Level by level from the newly reached automorphisms x, each x.g is
        located from its images of the generators of G: one ``locate`` per
        frontier row and generator.
        """
        cols = self.perms[:, self.ends.gens][gens]  # row j: generator j on the generators of G
        new = reached
        while True:
            frontier = new.nonzero()[0]
            if not frontier.size:
                return reached
            hit = np.zeros(len(reached), dtype=bool)
            hit[self.locate(self.perms[frontier][:, cols])] = True
            new = hit > reached
            reached |= new

    def hom(self, a: int) -> GroupHom:
        return GroupHom(self.base, self.base, self.perms[a], check=False)


class AutSubgroup:
    """A subgroup of Aut(G), such as a Galois group, by its ascending Aut indices ``members``.

    Nothing is checked at construction.  ``as_group`` builds a table for
    this subgroup alone, locating the products of its members in Aut(G),
    and raises ValueError if the identity or some product of two members is
    not a member.
    """

    __slots__ = ("aut", "members", "_as_group")

    def __init__(self, aut: AutGroup, members):
        self.aut = aut
        self.members = np.asarray(members, dtype=np.intp)
        self.members.setflags(write=False)
        self._as_group: Optional[FiniteGroup] = None

    @property
    def order(self) -> int:
        return int(len(self.members))

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def contains(self, a: int) -> bool:
        i = int(self.members.searchsorted(a))
        return i < self.order and int(self.members[i]) == a

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group: element i is ``members[i]``, and i.j is
        ``members[i]`` after ``members[j]``."""
        if self._as_group is None:
            aut, m = self.aut, self.members
            if not self.contains(aut.identity):
                raise ValueError("Aut subset without the identity")
            rows = aut.perms[m]
            cols = rows[:, aut.ends.gens]
            table = np.empty((len(m), len(m)), dtype=np.int32)
            step = max(1, _BATCH // len(m))
            for lo in range(0, len(m), step):
                products = aut.locate(rows[lo:lo + step][:, cols])
                at = m.searchsorted(products)
                if not (m.take(at, mode="clip") == products).all():
                    raise ValueError("Aut subset not closed under composition")
                table[lo:lo + step] = at
            ident = int(m.searchsorted(aut.identity))
            self._as_group = FiniteGroup(
                f"Aut({aut.base.name})-sub{len(m)}",
                table,
                generators=generating_set_of_table(table, ident),
                identity=ident,
            )
        return self._as_group


def automorphism_group(G: FiniteGroup) -> AutGroup:
    """Aut(G), memoized on G."""
    return G.memo("aut", lambda: AutGroup(end_set(G)))
