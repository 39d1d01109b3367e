"""Exhaustive, pruned enumeration of Hom(H, G), End(G) and Aut(G).

A hom H -> G is fixed by its images of the generators ``_gen_array(H)``.
``HomKeys(H, G)`` is the candidate space: one list per generator of the
elements of G whose order divides the generator's, sorted ascending, and
a candidate is one image from each list.  Its key is the mixed-radix
number whose digits are the positions of those images in the lists, so
keys run over 0..size-1 in the lexicographic order of the candidates.
``_search_homs`` walks that space in key order, block by block, and keeps
the candidates whose products of two generator images have orders
dividing those in H, then those that satisfy the hom equations; no random
numbers are drawn.  Every hom set is therefore in canonical order,
strictly increasing in key, and ``np.searchsorted`` over the keys finds
the index of any hom.  Keys are below the candidate-space size (at most
``CANDIDATE_CAP``), so they fit an ``int64`` for every pair that
``enumerate_homs`` accepts.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .errors import EnumerationCapError
from .groups import FiniteGroup, GroupHom, _close, _greedy_generators, center, generating_set_of_table, lex_rows

EXHAUSTIVE_CAP = 512
CANDIDATE_CAP = 200_000_000
_BATCH = 8192
_COLS = 64  # elements x per slice of the hom equations, bounding their temporaries


def _gen_array(G: FiniteGroup) -> np.ndarray:
    """The greedy ``generating_set_of_table`` of G as a read-only index array, memoized on G."""

    def compute():
        close = functools.partial(_close, G.table)
        gens = np.array(_greedy_generators(close, G.identity, G.element_orders), dtype=np.intp)
        gens.setflags(write=False)
        return gens

    return G.memo("greedy_gens", compute)


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

    __slots__ = ("gens", "lists", "size", "_positions", "_weights")

    def __init__(self, H: FiniteGroup, G: FiniteGroup):
        self.gens = _gen_array(H)
        self.lists, self._positions = zip(
            *(_divisor_positions(G, o) for o in H.element_orders[self.gens].tolist())
        )
        self.size = math.prod(len(m) for m in self.lists)
        if self.size > np.iinfo(np.int64).max:
            raise EnumerationCapError(f"hom keys for Hom({H.name},{G.name}) do not fit in 64 bits")
        self._weights = tuple(math.prod(len(m) for m in self.lists[i + 1:]) for i in range(len(self.lists)))

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
    key; keys are computed on first use, unless the caller passes the rows'
    keys (say, a subset of another ``KeyedRows``'s).  ``locate`` maps
    generator images of member homs to row indices with one ``searchsorted``.
    """

    __slots__ = ("source", "target", "matrix", "gens", "_keygen", "_keys")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, matrix: np.ndarray, keygen=None,
                 keys: Optional[np.ndarray] = None):
        self.source = source
        self.target = target
        self.matrix = np.ascontiguousarray(matrix, dtype=np.int32)
        self.gens = _gen_array(source)  # the source generators whose images identify a hom
        self._keygen = keygen  # the HomKeys(source, target) to reuse, if the caller has one
        self._keys = None if keys is None else self._increasing(keys)

    def __len__(self):
        return int(self.matrix.shape[0])

    @staticmethod
    def _increasing(keys: np.ndarray) -> np.ndarray:
        if (np.diff(keys) <= 0).any():
            raise ValueError("hom rows are not in strictly increasing key order")
        return keys

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            self._keygen = self._keygen or HomKeys(self.source, self.target)
            self._keys = self._increasing(self._keygen(self.matrix[:, self.gens]))
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


def _search_homs(H: FiniteGroup, G: FiniteGroup, keys: HomKeys, *,
                 first_bijection: bool = False) -> np.ndarray:
    """Image rows of the homs H -> G in key order, or just the first bijection.

    Walks the candidate space ``keys`` = ``HomKeys(H, G)`` in blocks of key
    order, so a candidate's number in the walk is its key.  A candidate is kept
    when, for each pair of generators a, b, the image of a b has an order
    dividing that of a b in H, and when the row it extends to along
    ``_word_entries`` satisfies f(x g) = f(x) f(g) for every x and each
    generator g, checked one generator and ``_COLS`` elements x at a time.
    Those equations suffice: f maps the identity to the identity, so
    induction on the length of y as a word in the generators gives
    f(x y) = f(x) f(y).

    A bijection keeps every element's order, so for it ``may_image`` asks
    for equal orders instead of dividing ones: the walk covers only the
    generator images of the generators' own orders (sublists of
    ``keys.lists``, in the same lexicographic order, and these sizes are
    what ``CANDIDATE_CAP`` bounds), and the image of a b must have the
    order of a b.  It also keeps only a trivial kernel: the identity is
    the only element mapped to the identity, so with |H| = |G| the hom is
    bijective.
    """
    gens = keys.gens.tolist()
    tH, tG = H.table, G.table
    ordH, ordG = H.element_orders, G.element_orders

    def may_image(o: int) -> np.ndarray:
        """Mask of the elements of G that can image an element of order o."""
        return ordG == o if first_bijection else o % ordG == 0

    lists = [m[may_image(o)[m]] for m, o in zip(keys.lists, ordH[gens].tolist())]
    size = math.prod(len(m) for m in lists)
    if size > CANDIDATE_CAP:
        raise EnumerationCapError(
            f"candidate space {size} for Hom({H.name},{G.name}) exceeds {CANDIDATE_CAP}"
        )
    entries = _word_entries(H, gens)
    pair_words = [(a, b, may_image(int(ordH[tH[x, y]])))
                  for a, x in enumerate(gens) for b, y in enumerate(gens)]
    found = []
    for lo in range(0, size, _BATCH):
        cols = lex_rows(lists, lo, min(lo + _BATCH, size))
        keep = np.ones(len(cols), dtype=bool)
        for a, b, allowed in pair_words:
            keep &= allowed[tG[cols[:, a], cols[:, b]]]
        cols = cols[keep]
        if not len(cols):
            continue
        images = _extend_batch(H, G, entries, cols)
        if first_bijection:
            images = images[(images == G.identity).sum(axis=1) == 1]
        for g in gens:
            for x in range(0, H.order, _COLS):
                x = slice(x, x + _COLS)
                images = images[(images[:, tH[x, g]] == tG[images[:, x], images[:, g, None]]).all(axis=1)]
        if first_bijection and len(images):
            return images[:1]
        found.append(images)
    return np.concatenate(found) if found else np.empty((0, H.order), dtype=np.int32)


def enumerate_homs(H: FiniteGroup, G: FiniteGroup) -> HomSet:
    """All homomorphisms H -> G, canonically ordered, duplicate-free; memoized on H."""
    if H.order > EXHAUSTIVE_CAP or G.order > EXHAUSTIVE_CAP:
        raise EnumerationCapError(
            f"exhaustive enumeration capped at order {EXHAUSTIVE_CAP} "
            f"(got |{H.name}|={H.order}, |{G.name}|={G.order})"
        )

    def compute():
        keys = HomKeys(H, G)
        return HomSet(H, G, _search_homs(H, G, keys), keys)

    return H.memo(("homs", G), compute)


def end_set(G: FiniteGroup) -> HomSet:
    return enumerate_homs(G, G)


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup):
    """First bijective homomorphism in canonical order, or None."""
    if G1.order != G2.order:
        return None
    if G1.order > EXHAUSTIVE_CAP:
        raise EnumerationCapError(f"isomorphism search capped at order {EXHAUSTIVE_CAP}")
    matrix = _search_homs(G1, G2, HomKeys(G1, G2), first_bijection=True)
    if matrix.shape[0] == 0:
        return None
    return GroupHom(G1, G2, matrix[0], check=False)


class AutGroup:
    """Aut(G) as a permutation group on the elements of G, from the hom set End(G).

    ``perms`` row a is the image array of automorphism a, End row
    ``end_rows[a]``, so the rows are in strictly increasing key order and an
    automorphism is found from its generator images with one ``locate``.  No
    table over Aut is built: a product a.b is located when it is needed.
    ``element_orders`` come from powering the automorphisms on the
    generators of G; ``generators`` is the greedy generating set, picked as
    ``generating_set_of_table`` picks (the highest order first, ties to the
    lowest index); ``inner_order`` is the number of inner automorphisms,
    |G| / |Z(G)|.
    """

    def __init__(self, ends: HomSet):
        base = self.base = ends.source
        self.end_rows = np.flatnonzero((ends.matrix == base.identity).sum(axis=1) == 1)
        self._rows = KeyedRows(base, base, ends.matrix[self.end_rows], ends._keygen, ends.keys[self.end_rows])
        self.perms = self._rows.matrix
        self.identity = self._rows.index_of(np.arange(base.order))
        self.element_orders = self._element_orders()
        self.generators = _greedy_generators(self._close, self.identity, self.element_orders)
        # conjugation by g sends generator x to g x g^-1; every one must be a row
        t, g = base.table, np.arange(base.order)[:, None]
        inner = np.zeros(self.order, dtype=bool)
        inner[self._rows.locate(t[g, t[self._rows.gens[None, :], base.inverses[g]]])] = True
        self.inner_order = int(np.count_nonzero(inner))
        if self.inner_order * center(base).order != base.order:
            raise ValueError("inner automorphism count inconsistent with center")

    @property
    def order(self) -> int:
        return int(self.perms.shape[0])

    def _element_orders(self) -> np.ndarray:
        """Order of each automorphism: the least k with a^k fixing the generators of G."""
        gens = self._rows.gens
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
        cols = self.perms[:, self._rows.gens][gens]  # row j: generator j on the generators of G
        new = reached
        while True:
            frontier = new.nonzero()[0]
            if not frontier.size:
                return reached
            hit = np.zeros(len(reached), dtype=bool)
            hit[self._rows.locate(self.perms[frontier][:, cols])] = True
            new = hit > reached
            reached |= new

    def index_of(self, images: np.ndarray) -> int:
        return self._rows.index_of(images)

    def hom(self, a: int) -> GroupHom:
        return GroupHom(self.base, self.base, self.perms[a], check=False)


class AutSubgroup:
    """A subgroup of Aut(G), such as a Galois group, by its ascending Aut indices ``members``.

    Nothing is checked at construction.  ``as_group`` builds a table for
    this subgroup alone, from its own rows, and raises ValueError if the
    identity or some product of two members is not a member.
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
            rows = KeyedRows(aut.base, aut.base, aut.perms[m], aut._rows._keygen, aut._rows.keys[m])
            cols = rows.matrix[:, rows.gens]
            table = np.empty((len(m), len(m)), dtype=np.int32)
            step = max(1, _BATCH // len(m))
            try:
                for lo in range(0, len(m), step):
                    table[lo:lo + step] = rows.locate(rows.matrix[lo:lo + step][:, cols])
            except KeyError:
                raise ValueError("Aut subset not closed under composition") from None
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
