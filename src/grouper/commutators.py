"""Commutator calculus, central series, and brute-force lemma checking.

Convention: [x, y] = x y x^-1 y^-1, and the left-normed iterated commutator
[y1, ..., yr] = [[...[y1, y2], ...], yr].

Each lemma is one equation over columns of tuples, read off the group's
product table and an n x n commutator table built for the check, each
through one flat `take` per lookup.  One scan (`_scan`) evaluates every
lemma.  It takes the whole lexicographic grid when that has at most
`LemmaConfig.max_tuples` tuples, and drawn samples otherwise; either way at
most CHUNK tuples go through numpy at once.  The scan contract:

- Tuple order.  A tuple is a head followed by a tail.  Heads are the pairs
  (a, x) for the identities, the triples (a, b, c) for the central lemmas
  and the quads (a, X, Y, X') that pass both hypotheses for homo.  Tails are
  ("first" then "second", y) for the identities and z1..zj otherwise, in
  lexicographic order; a sample is a head that carries its own z's.
  Counterexamples come in scan order: grid order (for the identities by
  pair, then "first" before "second", then y), or draw order.
- Crossing.  Heads and tails are crossed by numpy broadcasting, never
  copied into rows: a block of B heads goes to the equation as (B, 1)
  columns and a part of T tails as (1, T) columns, so a term of the head
  alone is computed once per head, and the (B, T) verdict read in C order
  is the scan order.  Only failing tuples are built as rows.
- Stop.  A report keeps at most LIMIT = 21 counterexamples, and the scan
  stops after the head that holds the 21st.
- Count.  `tuples_checked` counts whole heads up to that point: n per
  identities pair, n^j per (a, b, c) or per quad that passes the
  hypotheses, and 1 per sample.
- Draws.  Each report draws from its own `random.Random`, and a sample's
  coordinates are the values one `randrange` call each would return, in
  this order: the identities draw a, x per pair; the central lemmas draw a,
  c, the index of b in Z_j (Z_{j+1} for centrals-2), then z1..zj; homo draws
  a, X, Y, X', then z1..zj only when both hypotheses hold.  `_drawn` reads
  them in bulk from the generator's stream of 32-bit Mersenne Twister
  words.  In CPython, `randrange(m)` for m < 2**32 is rejection sampling
  over `getrandbits(m.bit_length())`, which is one word w shifted to
  w >> (32 - m.bit_length()); the draw is the first shifted word below m.
  `getrandbits(32 * w)` returns the next w words, the first one generated
  least significant.  Words read past a report's last sample are never
  used, since no other draw shares the generator.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .groups import FiniteGroup, Subgroup, center, lex_rows, preimage_subgroup, quotient_group, subgroup_generated

DEFAULT_MAX_TUPLES = 10 ** 6
DEFAULT_SAMPLES = 10 ** 5
DEFAULT_SEED = 0xC0FFEE
CHUNK = 4096  # tuples evaluated per numpy pass; bounds the scan's working set
DRAWS = 512  # samples per block of drawn heads; larger blocks raise peak memory, not speed
WORDS = 2048  # Mersenne Twister words read per getrandbits call
LIMIT = 21  # counterexamples kept per report; the scan stops once it has them

LEMMA_IDS = ("identities", "centrals-1", "centrals-2", "homo")


def commutator(G: FiniteGroup, x, y):
    """[x, y] = x y x^-1 y^-1.  Accepts scalars or broadcastable index arrays."""
    t, inv = G.table, G.inverses
    out = t[t[t[x, y], inv[x]], inv[y]]
    if np.isscalar(x) and np.isscalar(y):
        return int(out)
    return out


def left_normed_commutator(G: FiniteGroup, ys: Sequence):
    """[y1, y2, ..., yr], folding commutators left to right; [y1] = y1."""
    if len(ys) == 0:
        raise ValueError("left-normed commutator of an empty list")
    acc = ys[0]
    for y in ys[1:]:
        acc = commutator(G, acc, y)
    return acc


@dataclass
class CentralSeries:
    group: FiniteGroup
    kind: str  # "lower" | "upper"
    terms: list  # list[Subgroup]
    nilpotency_class: Optional[int]

    def term(self, j: int) -> Subgroup:
        """Stabilized lookup: indices past the computed chain return the last term."""
        return self.terms[min(j, len(self.terms) - 1)]


def lower_central_series(G: FiniteGroup) -> CentralSeries:
    """G = Gamma^1 >= Gamma^2 = [G, G] >= ... until stabilization."""
    terms = [Subgroup(G, range(G.order))]
    gens = np.asarray(G.generators)
    while True:
        cur = terms[-1]
        # [N, G] is the normal closure of the commutators of N's members with G's generators
        nxt = subgroup_generated(G, commutator(G, cur.members[:, None], gens).ravel(), normal=True)
        if not nxt.is_normal:
            raise AssertionError("lower central term failed normality")
        if nxt.same_members(cur):
            break
        terms.append(nxt)
        if nxt.is_trivial:
            break
    ncl = None
    if terms[-1].is_trivial:
        ncl = len(terms) - 1  # terms[r] = Gamma^{r+1}; trivial at index r means class r
    return CentralSeries(G, "lower", terms, ncl)


def upper_central_series(G: FiniteGroup) -> CentralSeries:
    """1 = Z_0 <= Z_1 = Z(G) <= ... with Z_{j+1} the preimage of Z(G/Z_j)."""
    terms = [Subgroup(G, [G.identity])]
    while True:
        cur = terms[-1]
        Q, pi = quotient_group(G, cur)
        nxt = preimage_subgroup(pi, center(Q))
        if nxt.same_members(cur):
            break
        terms.append(nxt)
        if nxt.is_whole:
            break
    ncl = len(terms) - 1 if terms[-1].is_whole else None
    return CentralSeries(G, "upper", terms, ncl)


def nilpotency_class(G: FiniteGroup) -> Optional[int]:
    return lower_central_series(G).nilpotency_class


def is_j_central(series: CentralSeries, x: int, j: int) -> bool:
    """x in Z_j, via a computed upper central series."""
    if series.kind != "upper":
        raise ValueError("j-central test needs the upper series")
    return series.term(j).contains(x)


def j_central_by_commutators(G: FiniteGroup, x: int, j: int) -> bool:
    """x in Z_j iff every left-normed [x, g1, ..., gj] is trivial."""
    for gs in itertools.product(range(G.order), repeat=j):
        if left_normed_commutator(G, (x,) + gs) != G.identity:
            return False
    return True


@dataclass
class LemmaConfig:
    max_tuples: int = DEFAULT_MAX_TUPLES
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    js: Optional[Sequence[int]] = None  # default: 1 .. nilpotency-relevant bound


@dataclass
class LemmaReport:
    group_name: str
    lemma: str
    j: Optional[int]
    tuples_checked: int
    counterexamples: list = field(default_factory=list)
    exhaustive: bool = True

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "lemma": self.lemma,
            "j": self.j,
            "tuplesChecked": self.tuples_checked,
            "exhaustive": self.exhaustive,
            "counterexamples": [list(c) for c in sorted(self.counterexamples)],
        }


def _tables(G: FiniteGroup):
    """n, every element, and x, y -> x y and x, y -> [x, y] over broadcast index
    arrays, each read off its n x n table by one flat `take`."""
    n, every = G.order, np.arange(G.order, dtype=np.int32)
    t, c = G.table.ravel(), commutator(G, every[:, None], every[None, :]).ravel()
    return n, every, lambda x, y: t.take(x * n + y), lambda x, y: c.take(x * n + y)


def _left_normed(C, x, zs):
    """[x, z1, ..., zj] over columns, read off the commutator table as `C(x, z)`."""
    for z in zs:
        x = C(x, z)
    return x


def _lex(axes, keep=None):
    """Head source: the lexicographic product of `axes`, less the rows `keep` rejects."""
    total = math.prod(len(a) for a in axes)

    def blocks(m):
        for lo in range(0, total, m):
            rows = lex_rows(axes, lo, min(lo + m, total))
            yield rows if keep is None else rows[keep(*rows.T)]

    return blocks


def _words(rng, count: int) -> np.ndarray:
    """The next `count` 32-bit words of `rng`'s Mersenne Twister, in the order generated."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")


def _draw_columns(words, moduli, pos, accepted):
    """Draw below each of `moduli` in turn, for a sample starting at each word of `pos`.

    A draw below m takes the first word w at or after the position with
    w >> (32 - m.bit_length()) < m, as `randrange(m)` does.  Returns the
    draws, one column per modulus, and the position after the last word
    taken; len(words) + 1 means the words ran out.  `accepted` memoizes,
    per modulus, the draw and the position after it from each start.
    """
    n, cols = len(words), []
    for m in moduli:
        if m not in accepted:
            shifted = np.append(words >> (32 - m.bit_length()), 0)
            nxt = np.where(shifted < m, np.arange(n + 1), n)  # a 0 stands in at n
            nxt = np.minimum.accumulate(nxt[::-1])[::-1]
            accepted[m] = np.append(shifted[nxt], 0), np.append(nxt + 1, n + 1)
        first, after = accepted[m]
        cols.append(first[pos])
        pos = after[pos]
    return cols, pos


def _drawn(rng, count: int, head, keep=None, tail=()):
    """Head source: `count` samples drawn from `rng` as `randrange` calls would draw them.

    A sample draws once below each of the `head` moduli and, where `keep`
    holds on those draws (everywhere without `keep`), once below each of the
    `tail` moduli; a sample `keep` rejects adds no row.  Words are read
    WORDS at a time, and the draws of a sample starting at each word are
    computed at once by `_draw_columns`, so the walk from one sample to the
    next is one lookup.  A block holds the rows of at most min(m, DRAWS)
    samples.
    """
    def columns(words):
        """Every column, and where the next sample starts, for a sample at each word."""
        accepted = {}
        cols, pos = _draw_columns(words, head, np.arange(len(words) + 1), accepted)
        tail_cols, end = _draw_columns(words, tail, pos, accepted)
        kept = np.ones(len(pos), bool) if keep is None else keep(*cols)
        return cols + tail_cols, kept, np.where(kept, end, pos)

    def blocks(m):
        m = room = min(m, DRAWS)
        words, left, block = np.empty(0, np.int64), count, []
        while left:
            words = np.concatenate([words, _words(rng, WORDS).astype(np.int64)])
            cols, kept, step = columns(words)
            n, step, p = len(words), memoryview(step), 0
            while left:
                starts = []
                for _ in range(min(left, room)):
                    q = step[p]
                    if q > n:
                        break
                    starts.append(p)
                    p = q
                starts = np.array(starts, dtype=np.intp)
                block.append(np.stack([c[starts] for c in cols], axis=1)[kept[starts]])
                left -= len(starts)
                room -= len(starts)
                if room and left:  # the words ran out first
                    break
                yield np.concatenate(block)
                block, room = [], m
            words = words[p:]

    return blocks


def _scan(heads, tail, holds, weight: int):
    """Evaluate `holds` on every head followed by every tuple of `tail`.

    Blocks of heads are crossed with parts of the tail grid as the module
    docstring's "Crossing" says, at most CHUNK tuples at a time.  Returns the
    failing rows in order, at most LIMIT of them, and `weight` times the
    number of heads scanned: all of them, or those up to and including the
    head of the LIMIT-th failing row, where the scan stops.
    """
    tails = lex_rows(tail, 0, math.prod(len(a) for a in tail))
    bad, done = [], 0
    for block in heads(max(1, CHUNK // len(tails))):
        for lo in range(0, len(tails), CHUNK):
            part = tails[lo:lo + CHUNK]
            ok = holds(*block.T[:, :, None], *part.T[:, None])
            fails = np.flatnonzero(~ok)[:LIMIT - len(bad)]
            head, at = np.divmod(fails, len(part))
            bad += map(tuple, np.hstack([block[head], part[at]]).tolist())
            if len(bad) == LIMIT:
                return bad, (done + int(head[-1]) + 1) * weight
        done += len(block)
    return bad, done * weight


def _check_identities(G: FiniteGroup, cfg: LemmaConfig, rng) -> LemmaReport:
    n, every, t, C = _tables(G)

    def holds(a, x, side, y):
        # [a, xy] = [a,x] [x,[a,y]] [a,y]
        first = C(a, t(x, y)) == t(t(C(a, x), C(x, C(a, y))), C(a, y))
        # [xy, z] = [x,[y,z]] [y,z] [x,z], with (x,y,z) := (a,x,y)
        second = C(t(a, x), y) == t(t(C(a, C(x, y)), C(x, y)), C(a, y))
        return np.where(side == 0, first, second)

    exhaustive = n ** 3 <= cfg.max_tuples
    if exhaustive:
        pairs = _lex([every, every])
    else:
        pairs = _drawn(rng, max(cfg.samples // n, 1), [n, n])
    bad, count = _scan(pairs, [np.arange(2), every], holds, n)
    bad = [(a, x, ("first", "second")[side], y) for a, x, side, y in bad]
    return LemmaReport(G.name, "identities", None, count, bad, exhaustive)


def _check_centrals(G: FiniteGroup, variant: int, j: int, upper: CentralSeries,
                    cfg: LemmaConfig, rng) -> LemmaReport:
    n, every, t, C = _tables(G)
    zmem = upper.term(j if variant == 1 else j + 1).members

    def holds(a, b, c, *zs):
        ac = t(a, c)
        lhs = _left_normed(C, t(t(a, b), c), zs)
        if variant == 1:
            return lhs == _left_normed(C, ac, zs)
        mid = _left_normed(C, t(ac, b), zs)
        merged = _left_normed(C, t(C(ac, zs[0]), C(b, zs[0])), zs[1:])
        rhs = t(_left_normed(C, ac, zs), _left_normed(C, b, zs))
        return (lhs == mid) & (mid == merged) & (merged == rhs)

    exhaustive = n * len(zmem) * n * n ** j <= cfg.max_tuples
    if exhaustive:
        bad, count = _scan(_lex([every, zmem, every]), [every] * j, holds, n ** j)
    else:
        draws = _drawn(rng, cfg.samples, [n, n, len(zmem)] + [n] * j)

        def heads(m):
            for a, c, k, *zs in (block.T for block in draws(m)):
                yield np.stack([a, zmem[k], c, *zs], axis=1)

        bad, count = _scan(heads, [], holds, 1)
    return LemmaReport(G.name, f"centrals-{variant}", j, count, bad, exhaustive)


def _check_homo(G: FiniteGroup, j: int, upper: CentralSeries, cfg: LemmaConfig, rng) -> LemmaReport:
    n, every, t, C = _tables(G)
    in_zj, in_zj1 = upper.term(j)._member_mask, upper.term(j + 1)._member_mask

    def hypotheses(a, X, Y, Xp):
        # they do not involve the z's; tested, never assumed
        return in_zj[C(Y, C(a, Xp))] & in_zj1[C(a, Y)]

    def holds(a, X, Y, Xp, *zs):
        aXXp, aY = C(a, t(X, Xp)), C(a, Y)
        lhs = _left_normed(C, C(a, t(t(X, Y), Xp)), zs)
        mid = _left_normed(C, t(aXXp, aY), zs)
        rhs = t(_left_normed(C, aXXp, zs), _left_normed(C, aY, zs))
        return (lhs == mid) & (mid == rhs)

    exhaustive = n ** (4 + j) <= cfg.max_tuples
    if exhaustive:
        bad, count = _scan(_lex([every] * 4, hypotheses), [every] * j, holds, n ** j)
    else:
        bad, count = _scan(_drawn(rng, cfg.samples, [n] * 4, hypotheses, [n] * j), [], holds, 1)
    return LemmaReport(G.name, "homo", j, count, bad, exhaustive)


def check_commutator_lemmas(G: FiniteGroup, cfg: Optional[LemmaConfig] = None) -> list:
    """Verify the base commutator identities and both central-element lemmas on G.

    Returns one LemmaReport per (lemma, j) combination; counterexample lists
    are expected empty on every group.
    """
    cfg = cfg or LemmaConfig()
    upper = upper_central_series(G)
    if cfg.js is not None:
        js = list(cfg.js)
    else:
        # beyond class + 1 every side of the lemmas is the identity
        bound = (upper.nilpotency_class or (len(upper.terms) - 1)) + 1
        js = list(range(1, max(bound, 1) + 1))
    reports = []
    for lemma_pos, lemma in enumerate(LEMMA_IDS):
        if lemma == "identities":
            rng = random.Random(cfg.seed + lemma_pos)
            reports.append(_check_identities(G, cfg, rng))
            continue
        for j in js:
            rng = random.Random(cfg.seed + 1000 * lemma_pos + j)
            if lemma == "centrals-1":
                reports.append(_check_centrals(G, 1, j, upper, cfg, rng))
            elif lemma == "centrals-2":
                reports.append(_check_centrals(G, 2, j, upper, cfg, rng))
            else:
                reports.append(_check_homo(G, j, upper, cfg, rng))
    return reports
