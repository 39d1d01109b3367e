"""Exhaustive, pruned enumeration of Hom(H, G), End(G) and Aut(G).

A hom H -> G is fixed by its images of the generators ``_gen_array(H)``.
``_candidate_lists(H, G)`` spans the candidate space: one list per
generator of the elements of G whose order divides the generator's,
sorted ascending, and a candidate is one image from each list.  Its key is
the mixed-radix number whose digits are the positions of those images in
the lists, so keys run over 0..size-1 in the lexicographic order of the
candidates.  The walk gives each hom its key; ``HomSet.key_of`` derives
the digits, on its first call, from the same ``_divisor_positions``.

``enumerate_source(H, targets)`` searches the candidate spaces of all the
given targets of H in one walk (``_Walk``), with what the search needs of
H alone built once (``_search_plan``).  A candidate is kept when its
products of generator images along short words (length 2 to 4, one per
rotation class; length 2 only for an abelian H) have orders dividing those
of the words in H, then when it satisfies the hom equations.  Those are
checked depth by depth along the breadth-first word table of H, one row of
images per element of H, so a candidate is dropped at the first relator of
H that it fails; no random numbers are drawn.  A hom's key is its place
in its target's walk, so every hom set comes in canonical order, strictly
increasing in key, and ``np.searchsorted`` over the keys finds the index of
any hom.  Keys are below the candidate-space size (at most
``CANDIDATE_CAP``), so they fit an ``int64`` for every pair that
``enumerate_homs`` accepts.  ``enumerate_homs(H, G)`` is a walk of one
target, and ``find_isomorphism`` walks the same way over equal-order lists.
A hom file of generator images (``cli._load_hom``) is extended and checked
by a walk of that one candidate.
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
from .groups import FiniteGroup, GroupHom, _greedy_generators, center, generating_set_of_table, lex_rows

EXHAUSTIVE_CAP = 512
CANDIDATE_CAP = 200_000_000
_BATCH = 8192
_COLS = 64  # word-table edges per slice of the extension and relator checks; a temporary holds _COLS image rows


def _gen_array(G: FiniteGroup) -> np.ndarray:
    """The greedy ``generating_set_of_table`` of G as a read-only index array, memoized on G."""

    def compute():
        gens = np.array(_greedy_generators(G.table, G.identity, G.element_orders), dtype=np.intp)
        gens.setflags(write=False)
        return gens

    return G.memo("greedy_gens", compute)


def key_groups(keys: np.ndarray, tags=None) -> tuple:
    """(firsts, inverse): the index of the first row of each distinct row of ``keys``, in byte
    order of the rows, and for each row the place of its row in ``firsts``.  Equal rows with
    different ``tags``, a per-row array ascending with the rows, are told apart.

    One stable sort: the row bytes, read as big-endian 64-bit words,
    zero-padded, compare as the bytes do and go through one ``np.lexsort``,
    after which equal rows of one tag lie together.  With one key row per
    hom of a hom set, ``firsts`` picks the canonically first hom of each key.
    """
    n, width = len(keys), keys.dtype.itemsize * keys.shape[1]
    if n < 2:
        return np.arange(n), np.zeros(n, dtype=np.intp)
    words = np.zeros((n, -(-width // 8)), dtype=">u8")
    words.view(np.uint8)[:, :width] = np.ascontiguousarray(keys).view(np.uint8).reshape(n, width)
    words = words.astype(np.uint64)
    order = np.lexsort(words.T[::-1])
    words = words[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    if tags is not None:
        first[1:] |= np.diff(tags[order]) != 0
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return order[first], inverse


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

    With ``gens`` the generators ``_gen_array(H)``, ``words`` holds (w, o)
    for each filter word: w a tuple of generator positions, of length 2 to
    4, and o the order of gens[w[0]] gens[w[1]] ... in H.  A hom maps an
    element of order o to one whose order divides o, so a candidate whose
    product of images along w has an order not dividing o is no hom.  Rotations of a
    word are conjugate, in H and in any target, so only the least rotation
    of each class is kept; a power of one generator is dropped, since
    o(x) | o(g) already gives o(x^L) | o(g^L).  For an abelian H the words
    stop at length 2: its commutation relators close at depth 2 of the word
    table, so the walk already drops there what longer words would.
    ``trie`` evaluates the words by their prefixes: one triple (parents,
    letters, checks) per length L from 2 on, whose node i is the prefix of
    length L that extends node parents[i] of length L - 1 (a generator at
    L = 1) by the generator letters[i], and ``checks`` pairs (i, o) for the
    nodes that are filter words.  The trie stays because words share prefix
    products: evaluating each word on its own took ``find_isomorphism`` of
    Heis5 and a relabelled copy from 178-206 ms to 343-372 ms.

    ``depths`` is the breadth-first word table of H in ``gens``, one pair
    (tree, relators) per depth d, each an index array of three rows
    (y, x, p) for the edges y = x gens[p] of the Cayley graph: ``tree`` the
    edges that first reach the elements y at depth d, and ``relators``
    every other edge whose deeper end lies at depth d.  A map extended
    along the tree edges satisfies f(y) = f(x) f(gens[p]) on them by
    construction; on a relator edge that equation is a relator of H, and it
    can be checked once the images to depth d are known.
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
        top = 2 if H.is_abelian else 4
        words = [w for n in range(2, top + 1) for w in itertools.product(range(len(gens)), repeat=n)
                 if len(set(w)) > 1 and w == min(w[i:] + w[:i] for i in range(n))]
        words = [(w, int(H.element_orders[functools.reduce(lambda x, a: H.table[x, gens[a]], w, H.identity)]))
                 for w in words]
        trie, nodes = [], [(a,) for a in range(len(gens))]
        for n in range(2, top + 1):
            parent_of = {w: i for i, w in enumerate(nodes)}
            nodes = sorted({w[:n] for w, _ in words if len(w) >= n})
            if not nodes:
                break
            checks = [(nodes.index(w), o) for w, o in words if len(w) == n]
            trie.append((np.array([parent_of[w[:-1]] for w in nodes], dtype=np.intp),
                         np.array([w[-1] for w in nodes], dtype=np.intp), checks))
        return SimpleNamespace(depths=depths, words=words, trie=trie)

    return H.memo("search_plan", compute)


def _candidate_lists(H: FiniteGroup, G: FiniteGroup) -> list:
    """The candidate lists of homs H -> G: for each generator of ``_gen_array(H)``, the
    elements of G whose order divides its order, ascending."""
    return [_divisor_positions(G, o)[0] for o in H.element_orders[_gen_array(H)].tolist()]


class HomSet:
    """Complete list of homomorphisms source -> target in canonical order.

    Row ``r`` is the image array of a hom and ``keys[r]`` its key (module
    docstring); the walk gives both.  Rows are sorted lexicographically by
    their images of ``gens``, so their keys strictly increase, and
    ``locate`` maps generator images of member homs to row indices with one
    ``searchsorted``; lookups rely on that order and on completeness.
    """

    __slots__ = ("source", "target", "matrix", "gens", "keys", "_digits")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, matrix: np.ndarray, keys: np.ndarray):
        self.source = source
        self.target = target
        self.matrix = np.ascontiguousarray(matrix, dtype=np.int32)
        self.gens = _gen_array(source)  # the source generators whose images identify a hom
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("hom rows are not in strictly increasing key order")
        self.keys = keys
        self._digits = None

    def __len__(self):
        return int(self.matrix.shape[0])

    def key_of(self, gen_images: np.ndarray) -> np.ndarray:
        """The ``int64`` key (module docstring) of each row of generator images.

        Keys are exact on the generator images of homs, so two member homs
        are equal exactly when their keys are, and below ``CANDIDATE_CAP``;
        any other images get some key that a full-row comparison will not
        confirm.
        """
        if self._digits is None:  # (ranks, weight) per generator, once: AutGroup locates in End(G) often
            lists = [_divisor_positions(self.target, o) for o in self.source.element_orders[self.gens].tolist()]
            self._digits = [(pos, math.prod(len(m) for m, _ in lists[i + 1:])) for i, (_, pos) in enumerate(lists)]
        key = 0
        for i, (pos, weight) in enumerate(self._digits):  # take: about half the time of indexing
            key += pos.take(gen_images[..., i]) * weight  # in place: one digit array beside the key
        return key

    def locate(self, gen_images: np.ndarray) -> np.ndarray:
        """Row index of each row of generator images; every one must be a member's.

        Raises KeyError when some row's ``key_of`` is not among the members'
        keys.
        """
        want, keys = self.key_of(gen_images), self.keys
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

    def injective_per_image(self) -> np.ndarray:
        """Row index of the first injective hom with each image, in byte order of the sorted images."""
        injective = np.flatnonzero(self.injective())
        return injective[key_groups(np.sort(self.matrix[injective], axis=1))[0]]


class _Walk:
    """The candidate spaces of homs H -> G_t, for the targets G_0, ..., G_m-1, walked as one.

    ``lists[t]`` holds the possible images of each generator of
    ``_gen_array(H)`` in G_t, ascending.  The spaces lie end to end:
    position ``starts[t] + i`` of the walk is candidate i of target t in the
    lexicographic order of ``lists[t]`` (its key, when those are the
    ``_candidate_lists``).  The walk goes in blocks of at most ``_BATCH``
    candidates, and a block may span targets.  Products are read from the
    run table, (sum |G_t|) x max |G_t|, whose row ``lo_t + x`` holds row x
    of G_t raised by ``lo_t``: an image is held as its row ``lo_t + x``, a
    generator image also as its column x, and a product is one lookup
    whatever its target, at ``row * width + column`` of the flat run table.
    For a walk of one target the run table is ``G.table`` itself.  Arrays
    of a block are element-major: one row per element of H (or per
    generator, or per word) and one column per candidate, so each row is
    contiguous.  With ``bijective``, a candidate must send only the identity
    to the identity, and its products along the filter words must have the
    orders of those in H, not just divide them.
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
        self.elem_lo = np.array([0, *itertools.accumulate(G.order for G in targets)], dtype=np.int32)
        if len(targets) == 1:
            (G,) = targets
            self.table, orders = G.table, G.element_orders
        else:
            self.table = np.zeros((self.elem_lo[-1], max(G.order for G in targets)), dtype=np.int32)
            for G, lo in zip(targets, self.elem_lo.tolist()):
                self.table[lo:lo + G.order, :G.order] = G.table + lo
            orders = np.concatenate([G.element_orders for G in targets])
        if self.table.size >= 2**31:  # flat indices are int32 products of rows and columns
            raise EnumerationCapError(f"run table of the walk from {H.name} has {self.table.size} entries")
        self.flat, self.width = self.table.ravel(), self.table.shape[1]
        self.identity = np.array([G.identity + lo for G, lo in zip(targets, self.elem_lo.tolist())])
        self.allowed = {o: orders == o if bijective else o % orders == 0
                        for o in {o for _, o in _search_plan(H).words}}
        self.lists = lists

    @property
    def blocks(self) -> range:
        return range(0, self.starts[-1], _BATCH)

    def _targets(self, pos: np.ndarray) -> np.ndarray:
        return self.ends.searchsorted(pos, side="right")

    def survivors(self, lo: int) -> tuple:
        """(positions, columns) of the candidates, in the block from ``lo`` on, whose products
        along the filter words of ``_search_plan`` have orders allowed by H; ``columns`` holds
        one row per generator.

        The words go by length through the prefix trie, one lookup per node
        on its parent's products, and the block is compacted after each
        length.
        """
        hi = min(lo + _BATCH, self.starts[-1])
        parts = []
        for t in range(bisect.bisect_right(self.starts, lo) - 1, bisect.bisect_left(self.starts, hi)):
            first, last = self.starts[t], self.starts[t + 1]
            parts.append(lex_rows(self.lists[t], max(lo, first) - first, min(hi, last) - first))
        cols = np.concatenate(parts).T.copy()
        pos = np.arange(lo, hi)
        prods = cols + self.elem_lo[self._targets(pos)]
        for parents, letters, checks in _search_plan(self.H).trie:
            prods = self.flat.take(prods[parents] * self.width + cols[letters])
            keep = np.logical_and.reduce([self.allowed[o].take(prods[node]) for node, o in checks])
            if not keep.all():
                pos, cols, prods = pos[keep], cols[:, keep], prods[:, keep]
        return pos, cols

    def homs(self, pos: np.ndarray, cols: np.ndarray) -> tuple:
        """(positions, images) of the homs among the candidates at ``pos`` with generator
        images ``cols``, one row per generator.

        Depth by depth, the candidates are extended along the tree edges and
        then checked on the relators that close there, ``_COLS`` edges at a
        time; a candidate that fails one is dropped at once.
        Over all depths these are the equations f(x g) = f(x) f(g) for every
        x and each generator g, the tree edges holding by construction.
        Those equations suffice: f maps the identity to the identity, so
        induction on the length of y as a word in the generators gives
        f(x y) = f(x) f(y).  So which candidates pass does not depend on the
        order of the checks.  The images are built element-major and come
        out one C-order row per hom, in G_t's own labels.
        """
        H, flat, width = self.H, self.flat, self.width
        images = np.empty((H.order, len(pos)), dtype=np.int32)
        images[H.identity] = self.identity[self._targets(pos)]
        for tree, relators in _search_plan(H).depths:
            for lo in range(0, tree.shape[1], _COLS):
                y, x, gp = tree[:, lo:lo + _COLS]
                images[y] = flat.take(images[x] * width + cols[gp])
            for lo in range(0, relators.shape[1], _COLS):
                y, x, gp = relators[:, lo:lo + _COLS]
                ok = (images[y] == flat.take(images[x] * width + cols[gp])).all(axis=0)
                if not ok.all():
                    images, pos, cols = images[:, ok], pos[ok], cols[:, ok]
        if self.bijective:  # a trivial kernel, so with |H| = |G| the hom is bijective
            one = (images == images[H.identity]).sum(axis=0) == 1
            images, pos = images[:, one], pos[one]
        return pos, np.subtract(images.T, self.elem_lo[self._targets(pos), None], order="C", dtype=np.int32)

    def hom_rows(self) -> list:
        """(images, keys) of every target's homs, in key order.

        A walk of one block keeps that block's rows.  A longer walk first
        finds every block's survivors of the order filter, then writes
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
    for G in targets:
        if H.order > EXHAUSTIVE_CAP or G.order > EXHAUSTIVE_CAP:
            raise EnumerationCapError(
                f"exhaustive enumeration capped at order {EXHAUSTIVE_CAP} "
                f"(got |{H.name}|={H.order}, |{G.name}|={G.order})"
            )
    walk = _Walk(H, targets, [_candidate_lists(H, G) for G in targets])
    return [HomSet(H, G, images, keys) for G, (images, keys) in zip(targets, walk.hom_rows())]


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
    (sublists of the ``_candidate_lists``, in the same lexicographic order);
    their sizes are what ``CANDIDATE_CAP`` bounds.
    """
    if G1.order != G2.order:
        return None
    if G1.order > EXHAUSTIVE_CAP:
        raise EnumerationCapError(f"isomorphism search capped at order {EXHAUSTIVE_CAP}")
    orders = G2.element_orders
    lists = [m[orders[m] == o]
             for m, o in zip(_candidate_lists(G1, G2), G1.element_orders[_gen_array(G1)].tolist())]
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
    automorphisms through ``ends.locate``.  No table over Aut is built and
    no generating set is picked: a product a.b is located when it is
    needed, and orbits are read from all of ``perms``.  ``inner_order`` is
    the number of inner automorphisms, checked against |G| / |Z(G)|.
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
