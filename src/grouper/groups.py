"""Finite groups as explicit multiplication tables.

A group of order n is stored as an n x n Cayley table of element indices,
plus inverse and element-order tables and a distinguished generating set.
Groups built from permutation generators get a deterministic element
ordering: breadth-first closure from the identity, applying generators in
their declared order.
"""

from __future__ import annotations

import copy
import functools
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ClosureCapExceeded,
    EnumerationCapError,
    MalformedPermutation,
    NotNormalError,
    OrderCapExceeded,
    UnsupportedFamily,
)

POINT_CAP = 64
CLOSURE_CAP = 5000
ORDER_CAP = 5000
ASSOC_CHUNK = 2 ** 16  # table entries per row block of the associativity check


# ---------------------------------------------------------------------------
# permutation helpers (0-based image tuples)

def perm_identity(degree: int) -> tuple:
    return tuple(range(degree))


def perm_compose(p: Sequence[int], q: Sequence[int]) -> tuple:
    """Function composition p after q: (p*q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def perm_inverse(p: Sequence[int]) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_order(p: Sequence[int]) -> int:
    order = 1
    q = tuple(p)
    e = perm_identity(len(p))
    while q != e:
        q = perm_compose(q, p)
        order += 1
    return order


def perm_from_cycles(text: str, degree: Optional[int] = None) -> tuple:
    """Parse cycle notation like ``(1 2 3)(4 5)`` with 1-based points."""
    cycles = []
    i = 0
    s = text.strip()
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise MalformedPermutation(f"expected '(' at position {i} in {s!r}")
        j = s.find(")", i)
        if j < 0:
            raise MalformedPermutation(f"unclosed cycle in {s!r}")
        body = s[i + 1 : j].replace(",", " ")
        pts = []
        for tok in body.split():
            if not tok.isdigit() or int(tok) < 1:
                raise MalformedPermutation(f"bad point {tok!r} in {s!r}")
            pts.append(int(tok) - 1)
        if len(set(pts)) != len(pts):
            raise MalformedPermutation(f"repeated point in cycle {s[i:j+1]!r}")
        cycles.append(pts)
        i = j + 1
    d = degree if degree is not None else max((max(c) + 1 for c in cycles if c), default=1)
    images = list(range(d))
    for cyc in cycles:
        if cyc and max(cyc) >= d:
            raise MalformedPermutation(f"point {max(cyc)+1} exceeds degree {d}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


def perm_to_cycles(p: Sequence[int]) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def _normalize_perms(gens: Iterable[Sequence[int]]):
    gens = [tuple(g) for g in gens]
    degree = max((len(g) for g in gens), default=1)
    if degree > POINT_CAP:
        raise MalformedPermutation(f"degree {degree} exceeds point cap {POINT_CAP}")
    out = []
    for g in gens:
        if sorted(g) != list(range(len(g))):
            raise MalformedPermutation(f"not a bijection: {g!r}")
        out.append(tuple(g) + tuple(range(len(g), degree)))
    return out, degree


def _element_orders(table: np.ndarray, identity: int) -> np.ndarray:
    """Order of every element of the group with Cayley table ``table``: the least k with
    x^k the identity, powering only the elements whose order is not yet known."""
    n = len(table)
    orders = np.zeros(n, dtype=np.int32)
    todo = power = np.arange(n)
    k = 1
    while todo.size:
        if k > n:
            raise ValueError("element order exceeds group order")
        done = power == identity
        orders[todo[done]] = k
        todo, power = todo[~done], power[~done]
        power = table[power, todo]
        k += 1
    return orders


def _table_close(table: np.ndarray, reached: np.ndarray, gens) -> np.ndarray:
    """Close the element mask ``reached`` in place under right multiplication by ``gens``.

    Products are taken level by level from the newly reached elements.  The
    repeated squares g^2, g^4, ... of the generators lie in the monoid they
    span, so multiplying by them as well reaches the same set, in about
    log2 |G| levels rather than up to |G| (a cyclic group's diameter).
    """
    steps = [np.asarray(gens, dtype=np.intp)]
    for _ in range(len(table).bit_length() - 1):
        steps.append(table[steps[-1], steps[-1]])
    cols = table[:, np.concatenate(steps)]
    new = reached
    while True:
        frontier = new.nonzero()[0]
        if not frontier.size:
            return reached
        hit = np.zeros(len(reached), dtype=bool)
        hit[cols[frontier]] = True
        new = hit > reached
        reached |= new


def _adjoin(table: np.ndarray, reached: np.ndarray, gens: list, candidates) -> list:
    """Extend ``gens``, which generate the subgroup ``reached`` of the group with Cayley
    table ``table``, from ``candidates``.

    Each pick is the first candidate outside the subgroup generated so far,
    after which ``_table_close`` closes ``reached`` again in place; in the
    end every candidate lies in it.  Each pick at least doubles the subgroup, so at
    most log2 |G| elements are added.  Returns ``gens``, extended in place.
    """
    candidates = np.asarray(candidates)
    while True:
        candidates = candidates[~reached[candidates]]
        if not candidates.size:
            return gens
        gens.append(int(candidates[0]))
        _table_close(table, reached, gens)


def lex_rows(axes, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the lexicographic product of the arrays ``axes``, one tuple per row.

    Row i takes axes[k][d_k], where d_0 d_1 ... are the digits of i in the
    mixed radix of the axis lengths.
    """
    rows = np.empty((hi - lo, len(axes)), dtype=np.int32)
    flat = np.arange(lo, hi)
    for k in reversed(range(len(axes))):
        flat, digit = np.divmod(flat, len(axes[k]))
        rows[:, k] = axes[k][digit]
    return rows


# ---------------------------------------------------------------------------
# core types

class FiniteGroup:
    """Immutable finite group on element indices 0..order-1."""

    def __init__(
        self,
        name: str,
        table,
        *,
        generators: Sequence[int],
        identity: int = 0,
        element_perms: Optional[list] = None,
        check: bool = True,
    ):
        self.name = name
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self.order = int(self.table.shape[0])
        self.identity = int(identity)
        self.generators = [int(g) for g in generators]
        self.element_perms = element_perms
        if check:
            self._check_shape()
        self.inverses = self._compute_inverses()
        self.element_orders = _element_orders(self.table, self.identity)
        self._memo: dict = {}  # derived data; see ``memo``
        if check:
            self._check_generators()
            self._check_group_law()

    # -- construction-time validation ------------------------------------

    def _check_shape(self):
        n = self.order
        if self.table.shape != (n, n):
            raise ValueError("table must be square")
        if n == 0:
            raise ValueError("empty table")
        if self.table.min() < 0 or self.table.max() >= n:
            raise ValueError("table entries out of range")
        e = self.identity
        if not (np.array_equal(self.table[e], np.arange(n)) and np.array_equal(self.table[:, e], np.arange(n))):
            raise ValueError("identity row/column inconsistent")

    def _compute_inverses(self):
        rows, cols = np.nonzero(self.table == self.identity)
        inv = np.full(self.order, -1, dtype=np.int32)
        inv[rows] = cols
        if (inv < 0).any():
            raise ValueError("element without inverse")
        return inv

    def _check_group_law(self):
        """Light's associativity test over the generators: (x a) y = x (a y) for
        all x, y and every generator a, in k n^2 entries rather than n^3.

        It is exact.  Call an element a good when (x a) y = x (a y) for all
        x, y.  The identity is good, and the test shows every generator is.
        Good elements are closed under products: for good a, b,
        (x (a b)) y = ((x a) b) y = (x a)(b y) = x (a (b y)) = x ((a b) y).
        ``_check_generators`` ran first and found that ``_table_close`` reaches
        every element from the identity by right multiplication with the
        generators and their repeated squares g^2 = g g, g^4 = g^2 g^2, ...;
        that is a statement about the table alone and holds whether or not
        it is associative.  Each step multiplies good elements, so every
        element is good and the table is associative.
        """
        t = self.table
        gens = np.asarray(self.generators)
        by_gen = t[gens]  # row a: a y for every y
        step = max(1, ASSOC_CHUNK // (max(1, gens.size) * self.order))  # rows x per gather
        for lo in range(0, self.order, step):
            rows = t[lo:lo + step]
            bad = (t[rows[:, gens]] != rows[:, by_gen]).any(axis=(1, 2))
            if bad.any():
                raise ValueError(f"associativity fails at element {lo + int(bad.argmax())}")

    def _check_generators(self):
        if len(self.closure(self.generators)) != self.order:
            raise ValueError("declared generators do not generate")

    # -- basic arithmetic -------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverses[i])

    def memo(self, key, compute):
        """``compute()``, memoized under ``key`` for exactly the group's lifetime.

        Data about a pair of groups is kept on the source, with the target
        in the key, so the source's memo keeps the target alive.
        """
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self._memo[key] = compute()
        return value

    def memoized(self, key) -> bool:
        """Whether ``memo`` holds a value under ``key``."""
        return key in self._memo

    @property
    def is_abelian(self) -> bool:
        return self.memo("abelian", lambda: bool(np.array_equal(self.table, self.table.T)))

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def closure(self, seed: Iterable[int]) -> np.ndarray:
        """Sorted members of the subgroup generated by ``seed``."""
        return np.flatnonzero(self._generate(seed)[0])

    def _generate(self, seed: Iterable[int]) -> tuple:
        """(mask, gens): the subgroup generated by ``seed``, and the seed elements
        that ``_adjoin`` picked to generate it."""
        seed = np.fromiter(seed, dtype=np.intp)
        bad = seed[(seed < 0) | (seed >= self.order)]
        if bad.size:
            raise IndexError(f"element index {bad[0]} out of range")
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        return reached, _adjoin(self.table, reached, [], seed)

    def renamed(self, name: str) -> "FiniteGroup":
        """A copy under another name; ``self`` (possibly a shared, cached group) is untouched."""
        clone = copy.copy(self)
        clone.name = name
        clone._memo = {}  # memoized data may hold the original, e.g. as the source of its hom sets
        return clone

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _elements(values) -> np.ndarray:
    """``values`` as an index array; ValueError unless they are integers, so 2.5 is not truncated."""
    a = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"group elements must be integers, not {a.dtype}")
    return a.astype(np.intp, copy=False)


class Subgroup:
    """A subset of a parent group's indices, verified closed at construction."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        self.parent = parent
        self._member_mask = np.zeros(parent.order, dtype=bool)
        self._member_mask[_elements(members)] = True
        self._member_mask[parent.identity] = True
        self.members = np.flatnonzero(self._member_mask).astype(np.int32)
        # read-only: memoized subgroups are shared by every caller
        self._member_mask.setflags(write=False)
        self.members.setflags(write=False)
        self._verify()
        self.is_normal = self._compute_normal()
        self._as_group: Optional[FiniteGroup] = None

    def _verify(self):
        t = self.parent.table
        m = self.members
        prods = t[m[:, None], m]
        if not self._member_mask[prods].all():
            raise ValueError("subset not closed under product")
        if not self._member_mask[self.parent.inverses[m]].all():
            raise ValueError("subset not closed under inverse")
        # Lagrange, asserted not assumed
        if self.parent.order % len(m) != 0:
            raise ValueError("subgroup order does not divide group order")

    def _compute_normal(self) -> bool:
        """Conjugation by each generator of the parent maps the subgroup into itself."""
        G = self.parent
        g = np.asarray(G.generators)[:, None]
        return bool(self._member_mask[G.table[G.table[g, self.members], G.inverses[g]]].all())

    @property
    def order(self) -> int:
        return int(len(self.members))

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def contains(self, x: int) -> bool:
        return bool(self._member_mask[x])

    def contains_all(self, xs) -> bool:
        return bool(self._member_mask[np.asarray(xs, dtype=np.int32)].all())

    def same_members(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and np.array_equal(self.members, other.members)

    def as_group(self, name: Optional[str] = None) -> FiniteGroup:
        """The subgroup as a standalone group (indices 0..order-1, sorted by parent index)."""
        if self._as_group is None:
            G = self.parent
            m = self.members
            pos = np.full(G.order, -1, dtype=np.int32)
            pos[m] = np.arange(len(m), dtype=np.int32)
            table = pos[G.table[np.ix_(m, m)]]
            ident = int(pos[G.identity])
            gens = generating_set_of_table(table, ident)
            self._as_group = FiniteGroup(
                name or f"{G.name}-sub{len(m)}",
                table,
                generators=gens,
                identity=ident,
            )
        return self._as_group

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name}, normal={self.is_normal})"


class GroupHom:
    """Total multiplicative map between finite groups, stored as an image array."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images, check: bool = True):
        self.source = source
        self.target = target
        self.images = np.ascontiguousarray(_elements(images) if check else images, dtype=np.int32)
        if check:
            self._verify()

    def _verify(self):
        H, G = self.source, self.target
        if self.images.shape != (H.order,):
            raise ValueError("image array has wrong length")
        if self.images.min() < 0 or self.images.max() >= G.order:
            raise ValueError("image out of range")
        lhs = self.images[H.table]
        rhs = G.table[self.images[:, None], self.images[None, :]]
        if not np.array_equal(lhs, rhs):
            raise ValueError("map is not multiplicative")
        if self.images[H.identity] != G.identity:
            raise ValueError("identity not preserved")

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        return GroupHom(other.source, self.target, self.images[other.images], check=False)

    @property
    def is_injective(self) -> bool:
        """A trivial kernel: only the identity maps to the identity."""
        return int(np.count_nonzero(self.images == self.target.identity)) == 1

    @property
    def is_surjective(self) -> bool:
        return len(self.image_members()) == self.target.order

    @property
    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and self.is_injective

    @property
    def is_trivial(self) -> bool:
        return bool((self.images == self.target.identity).all())

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, np.nonzero(self.images == self.target.identity)[0])

    def image_members(self) -> np.ndarray:
        """The elements of the target hit by the map, ascending."""
        return np.flatnonzero(np.bincount(self.images, minlength=self.target.order))

    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.target, self.image_members())

    def equal(self, other: "GroupHom") -> bool:
        return (
            self.source is other.source
            and self.target is other.target
            and np.array_equal(self.images, other.images)
        )

    def __repr__(self):
        return f"GroupHom({self.source.name} -> {self.target.name}, {self.images.tolist()})"


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, np.arange(G.order, dtype=np.int32), check=False)


def trivial_hom(H: FiniteGroup, G: FiniteGroup) -> GroupHom:
    return GroupHom(H, G, np.full(H.order, G.identity, dtype=np.int32), check=False)


# ---------------------------------------------------------------------------
# constructors

def build_from_permutations(gens: Iterable[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Group generated by permutations, breadth-first element ordering.

    The search records ``right[c, k]``, the index of elems[c] * gens[k], and
    the element and generator through which it first reached each element.
    Composition is associative, so a (p g) = (a p) g fills the table one
    column per element, parents before children.
    """
    gens, degree = _normalize_perms(gens)
    ident = perm_identity(degree)
    elems = [ident]
    index = {ident: 0}
    right = []
    tree = []  # (element, parent, generator position), in search order
    i = 0
    while i < len(elems):
        cur = elems[i]
        row = []
        for k, g in enumerate(gens):
            nxt = perm_compose(cur, g)
            j = index.get(nxt)
            if j is None:
                if len(elems) >= CLOSURE_CAP:
                    raise ClosureCapExceeded(
                        f"closure reached cap {CLOSURE_CAP} while generating {name!r}"
                    )
                j = index[nxt] = len(elems)
                elems.append(nxt)
                tree.append((j, i, k))
            row.append(j)
        right.append(row)
        i += 1
    n = len(elems)
    right = np.array(right, dtype=np.int32).reshape(n, len(gens))
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    for b, parent, k in tree:
        table[:, b] = right[table[:, parent], k]
    return FiniteGroup(
        name,
        table,
        generators=right[0].tolist() if gens else [0],
        element_perms=elems,
    )


def generating_set_of_table(table: np.ndarray, identity: int) -> list:
    """Greedy generating set: repeatedly add the max-order element outside the closure.

    Ties go to the least index.
    """
    return _greedy_generators(table, identity, _element_orders(table, identity))


def _greedy_generators(table: np.ndarray, identity: int, orders: np.ndarray) -> list:
    """``generating_set_of_table`` given the element orders ``orders``."""
    reached = np.zeros(len(orders), dtype=bool)
    reached[identity] = True
    # sorted() is stable; np.argsort would map numpy's sort kernels, a few hundred kB of RSS
    by_order = sorted(range(len(orders)), key=(-orders).tolist().__getitem__)
    gens = _adjoin(table, reached, [], by_order)
    return gens or [identity]


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    n1, n2 = A.order, B.order
    if n1 * n2 > ORDER_CAP:
        raise OrderCapExceeded(f"product order {n1 * n2} exceeds cap {ORDER_CAP}")
    t1 = A.table.astype(np.int64)
    t2 = B.table.astype(np.int64)
    table = (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    gens = [g * n2 + B.identity for g in A.generators if g != A.identity]
    gens += [A.identity * n2 + g for g in B.generators if g != B.identity]
    ident = A.identity * n2 + B.identity
    if not gens:
        gens = [ident]
    return FiniteGroup(f"{A.name}x{B.name}", table, generators=gens, identity=ident)


def _cyclic(n: int) -> FiniteGroup:
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return FiniteGroup(f"C{n}", table, generators=[1] if n > 1 else [0])


def _permutation_family(name: str, gens, order: int) -> FiniteGroup:
    """``build_from_permutations``, checked to reach ``order``."""
    G = build_from_permutations(gens, name=name)
    if G.order != order:
        raise UnsupportedFamily(f"{name} construction produced order {G.order}")
    return G


def _dihedral(order: int) -> FiniteGroup:
    if order % 2 != 0 or order < 2:
        raise UnsupportedFamily(f"dihedral order must be even and >= 2, got {order}")
    n = order // 2
    if n == 1:
        gens = [perm_identity(2), (1, 0)]
    elif n == 2:
        gens = [(1, 0, 3, 2), (1, 0, 2, 3)]
    else:
        rot = tuple((i + 1) % n for i in range(n))
        refl = tuple((n - i) % n for i in range(n))
        gens = [rot, refl]
    return _permutation_family(f"D{order}", gens, order)


def _symmetric(n: int) -> FiniteGroup:
    if n > 7:
        raise UnsupportedFamily(f"symmetric({n}) not supported, n must be <= 7")
    order = math.factorial(n)
    if order > ORDER_CAP:
        raise OrderCapExceeded(f"|S_{n}| = {order} exceeds cap {ORDER_CAP}")
    if n <= 1:
        return _permutation_family(f"S{n}", [], order)
    if n == 2:
        return _permutation_family("S2", [(1, 0)], order)
    trans = perm_from_cycles("(1 2)", degree=n)
    ncyc = tuple((i + 1) % n for i in range(n))
    return _permutation_family(f"S{n}", [trans, ncyc], order)


def _alternating(n: int) -> FiniteGroup:
    if n > 7:
        raise UnsupportedFamily(f"alternating({n}) not supported, n must be <= 7")
    order = math.factorial(n) // 2 if n >= 2 else 1
    if order > ORDER_CAP:
        raise OrderCapExceeded(f"|A_{n}| = {order} exceeds cap {ORDER_CAP}")
    if n <= 2:
        return _permutation_family(f"A{n}", [], order)
    if n == 3:
        return _permutation_family("A3", [perm_from_cycles("(1 2 3)")], order)
    three = perm_from_cycles("(1 2 3)", degree=n)
    if n % 2 == 1:
        big = tuple((i + 1) % n for i in range(n))
    else:
        big = (0,) + tuple(1 + (i + 1) % (n - 1) for i in range(n - 1))
    return _permutation_family(f"A{n}", [three, big], order)


def _quaternion8() -> FiniteGroup:
    """Left multiplication by i and by j on the units e, -e, i, -i, j, -j, k, -k."""
    gens = [perm_from_cycles("(1 3 2 4)(5 7 6 8)"), perm_from_cycles("(1 5 2 6)(3 8 4 7)")]
    return _permutation_family("Q8", gens, 8)


def _heisenberg(p: int) -> FiniteGroup:
    if p not in (2, 3, 5):
        raise UnsupportedFamily(f"heisenberg({p}) needs a prime p <= 5")
    n = p ** 3
    idx = np.arange(n)
    a = idx // (p * p)
    b = (idx // p) % p
    c = idx % p
    a1, a2 = a[:, None], a[None, :]
    b1, b2 = b[:, None], b[None, :]
    c1, c2 = c[:, None], c[None, :]
    table = ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p
    return FiniteGroup(f"Heis{p}", table, generators=[p * p, p])


_FAMILIES = {
    "cyclic": _cyclic,
    "dihedral": _dihedral,
    "symmetric": _symmetric,
    "alternating": _alternating,
    "heisenberg": _heisenberg,
}


@functools.lru_cache(maxsize=None)
def standard_group(descriptor: str) -> FiniteGroup:
    """Build a named family group from a descriptor like ``dihedral:8``."""
    desc = descriptor.strip()
    if desc == "quaternion8":
        return _quaternion8()
    family, colon, arg = desc.partition(":")
    if family == "product" and colon:
        parts = [part.strip() for part in arg.split(",") if part.strip()]
        if len(parts) < 2:
            raise UnsupportedFamily(f"product needs at least two factors, got {arg!r}")
        # every factor first, so a bad factor wins over the product's order cap
        return functools.reduce(direct_product, [standard_group(part) for part in parts])
    if not colon:
        raise UnsupportedFamily(f"unrecognized family descriptor {descriptor!r}")
    try:
        n = int(arg)
    except ValueError:
        raise UnsupportedFamily(f"bad numeric argument in {descriptor!r}") from None
    if n < 1:
        raise UnsupportedFamily(f"argument must be positive in {descriptor!r}")
    if family not in _FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}")
    if family in ("cyclic", "dihedral") and n > ORDER_CAP:
        raise OrderCapExceeded(f"{family}({n}) exceeds order cap {ORDER_CAP}")
    return _FAMILIES[family](n)


# ---------------------------------------------------------------------------
# subgroup machinery

def subgroup_generated(G: FiniteGroup, seed: Iterable[int], normal: bool = False) -> Subgroup:
    """Smallest (normal) subgroup containing ``seed``.

    The normal closure conjugates the subgroup's generators by ``G.generators``
    and adjoins the conjugates outside it, until there are none: a subgroup
    that every generator of G conjugates into itself is normal.
    """
    reached, gens = G._generate(seed)
    if normal:
        t, g = G.table, np.asarray(G.generators)[:, None]
        while True:
            conj = t[t[g, gens], G.inverses[g]].ravel()
            if reached[conj].all():
                break
            _adjoin(t, reached, gens, conj)
    return Subgroup(G, np.flatnonzero(reached))


def centralizer(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    s = np.fromiter(elements, dtype=np.intp)
    return Subgroup(G, np.flatnonzero((G.table[:, s] == G.table[s, :].T).all(axis=1)))


def center(G: FiniteGroup) -> Subgroup:
    """The centralizer of the generators."""
    return centralizer(G, G.generators)


def quotient_group(G: FiniteGroup, N: Subgroup) -> tuple:
    """Coset group of a normal subgroup plus the projection homomorphism.

    Cosets are ordered by least member index.
    """
    if N.parent is not G:
        raise ValueError("subgroup belongs to a different group")
    if not N.is_normal:
        raise NotNormalError(f"subgroup of order {N.order} is not normal in {G.name}")
    coset_min = G.table[:, N.members].min(axis=1)  # least member of each coset xN
    reps = np.flatnonzero(coset_min == np.arange(G.order))
    proj = reps.searchsorted(coset_min).astype(np.int32)
    qtable = proj[G.table[np.ix_(reps, reps)]]
    ident = int(proj[G.identity])
    gens = [int(proj[g]) for g in G.generators]
    if all(g == ident for g in gens):
        gens = generating_set_of_table(qtable, ident)
    Q = FiniteGroup(
        f"{G.name}/{N.order}",
        qtable,
        generators=gens,
        identity=ident,
    )
    pi = GroupHom(G, Q, proj, check=False)
    return Q, pi


def preimage_subgroup(pi: GroupHom, S: Subgroup) -> Subgroup:
    """Pull a subgroup of the target back along a homomorphism."""
    if S.parent is not pi.target:
        raise ValueError("subgroup belongs to a different group")
    mask = S._member_mask[pi.images]
    return Subgroup(pi.source, np.nonzero(mask)[0])


def isomorphism(G1: FiniteGroup, G2: FiniteGroup):
    """A bijective homomorphism G1 -> G2, or None.

    Invariants first, then the equal-order walk of ``homs.find_isomorphism``.
    """
    if G1.order != G2.order:
        return None
    if sorted(G1.element_orders.tolist()) != sorted(G2.element_orders.tolist()):
        return None
    if G1.is_abelian != G2.is_abelian:
        return None
    from . import homs  # deferred: homs builds on this module

    return homs.find_isomorphism(G1, G2)


def are_isomorphic(G1: FiniteGroup, G2: FiniteGroup) -> bool:
    """Whether G1 and G2 are isomorphic; memoized on G1, and true at once for one group or
    for two with equal tables and identities, such as a renamed copy."""
    if G1 is G2:
        return True
    return G1.memo(("isomorphic", G2), lambda: (G1.identity == G2.identity and np.array_equal(G1.table, G2.table))
                   or isomorphism(G1, G2) is not None)


# ---------------------------------------------------------------------------
# structure naming (display only)

def _divisor_chains(n: int, smallest: int = 2):
    """Ascending factorizations of n; combined with _chain_ok these give invariant-factor chains."""
    if n == 1:
        yield ()
        return
    for d in range(smallest, n + 1):
        if n % d == 0:
            for rest in _divisor_chains(n // d, d):
                yield (d,) + rest


def _chain_ok(chain) -> bool:
    return all(b % a == 0 for a, b in zip(chain, chain[1:]))


def describe_structure(G: FiniteGroup) -> str:
    """Human-readable isomorphism-type label for small groups; ``nonabelian(n)`` when no
    candidate family matches or the isomorphism search would pass ``homs.EXHAUSTIVE_CAP``."""
    n = G.order
    if n == 1:
        return "1"
    if G.is_abelian:
        counts = {}
        orders = G.element_orders
        for d in _divisors(n):
            counts[d] = int((d % orders == 0).sum())
        for chain in sorted(_divisor_chains(n), key=lambda c: (len(c), c)):
            if not _chain_ok(chain):
                continue
            if all(
                math.prod(math.gcd(d, f) for f in chain) == counts[d] for d in counts
            ):
                return " x ".join(f"C{f}" for f in chain)
        return f"abelian({n})"
    candidates = []
    if n % 2 == 0 and n >= 6 and n // 2 <= POINT_CAP:  # dihedral:n acts on n/2 points
        candidates.append(f"dihedral:{n}")
    if n == 8:
        candidates.append("quaternion8")
    for k in range(3, 8):
        if math.factorial(k) == n:
            candidates.append(f"symmetric:{k}")
        if math.factorial(k) // 2 == n:
            candidates.append(f"alternating:{k}")
    for p in (2, 3, 5):
        if p ** 3 == n:
            candidates.append(f"heisenberg:{p}")
    for cand in candidates:
        try:
            if are_isomorphic(G, standard_group(cand)):
                return standard_group(cand).name
        except (UnsupportedFamily, OrderCapExceeded, EnumerationCapError):
            continue
    return f"nonabelian({n})"


def _divisors(n: int) -> list:
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))
