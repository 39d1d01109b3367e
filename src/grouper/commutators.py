"""Commutator calculus, central series, and brute-force lemma checking.

Convention: [x, y] = x y x^-1 y^-1, and the left-normed iterated commutator
[y1, ..., yr] = [[...[y1, y2], ...], yr].

Each lemma is one equation over columns of tuples, read off tables of the
group built once per `check_commutator_lemmas` call (`_Tables`): the product
table, the commutator table, and left-normed tables of [x, z1, ..., zk], each
through one lookup per term.  One scan (`_scan`) evaluates every lemma.  It
takes the whole lexicographic grid when that has at most
`LemmaConfig.max_tuples` tuples, and drawn samples otherwise; either way at
most CHUNK tuples go through numpy at once.  The scan contract:

- Tuple order.  A tuple is a head followed by a tail.  Heads are the pairs
  (a, x) for the identities, the triples (a, b, c) for the central lemmas
  and the quads (a, X, Y, X') that pass both hypotheses for homo: a
  hypothesis whose centre term, Z_j or Z_{j+1}, is all of G passes every
  quad, so it is decided once per report and not per quad.  Tails are
  ("first" then "second", y) for the identities and z1..zj otherwise, in
  lexicographic order; a sample is a head that carries its own z's.
  Counterexamples come in scan order: grid order (for the identities by
  pair, then "first" before "second", then y), or draw order.
- Crossing.  Heads and tails are crossed by numpy broadcasting, never
  copied into rows: a block of B heads goes to the equation as (B, 1)
  columns, so a term of the head alone is computed once per head, and a
  part of T tails as the slice lo:hi of their rows in the tail grid, so a
  left-normed side of a head column x is the row slice left[j][x, lo:hi].
  The (B, T) verdict read in C order is the scan order.  Only failing
  tuples are built as rows.
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
  least significant.  When every coordinate of a sample has one modulus and
  every sample is kept, a sample is the next k accepted words, and `_drawn`
  reads the samples of a read as consecutive k-tuples of its accepted
  draws.  Otherwise it walks a read over ranks among the words a sample's
  first modulus accepts, finds the ranks where samples start by pointer
  jumping, and gathers their draws there only.  Words read past a report's
  last sample are never used: no other draw shares the generator.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidOption
from .groups import FiniteGroup, Subgroup, center, lex_rows, preimage_subgroup, quotient_group, subgroup_generated

DEFAULT_MAX_TUPLES = 10 ** 6
DEFAULT_SAMPLES = 10 ** 5
DEFAULT_SEED = 0xC0FFEE
CHUNK = 16384  # tuples evaluated per numpy pass; bounds the scan's working set
DRAWS = 2048  # rows per block of drawn heads; bounds the sampled scan's working set
WORDS = 4096  # Mersenne Twister words per getrandbits call; a read draws from all its words at once
TABLE_CAP = 1 << 16  # entries per left-normed table (256 KB of int32); deeper z's use C
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


class _Tables:
    """G's tables for the lemma checks of one `check_commutator_lemmas` call.

    `t(x, y)` is x y and `C(x, y)` is [x, y] over broadcast index arrays, each
    one flat `take`.  left[k] is the n x n^k table of [x, z1, ..., zk] over x
    and the code of z1..zk (the number whose base-n digits they are); left[0]
    is x and left[1] is C.  The tables go up to `depth` while they have at
    most TABLE_CAP entries.
    """

    def __init__(self, G: FiniteGroup, depth: int):
        self.n = n = G.order
        self.every = every = np.arange(n, dtype=np.int32)
        self.left = [every[:, None], commutator(G, every[:, None], every[None, :])]
        while len(self.left) <= depth and n ** (len(self.left) + 1) <= TABLE_CAP:
            self.left.append(self.left[1][self.left[-1]].reshape(n, -1))
        t, c = G.table.ravel(), self.left[1].ravel()
        self.t, self.C = lambda x, y: t.take(x * n + y), lambda x, y: c.take(x * n + y)

    def zs(self, at, k: int):
        """The columns z1..zk that `at` picks: for a slice lo:hi, those of the z-tuples with
        codes lo..hi-1, the rows lo..hi-1 of their lex grid; else `at` holds them."""
        return lex_rows([self.every] * k, at.start, at.stop).T if isinstance(at, slice) else at

    def left_normed(self, x, at, k: int):
        """[x, z1, ..., zk] for the z's that `at` picks, as `zs` says.

        Over a slice, this is the row slice left[k][x, lo:hi] for each head
        column x.  Otherwise the code of z1..zd picks x's entry of the deepest
        table, left[d], and one `C` lookup follows for each z past it.
        """
        if isinstance(at, slice) and k < len(self.left):
            return self.left[k][x, at].reshape(-1, at.stop - at.start)
        zs, d, code = self.zs(at, k), min(k, len(self.left) - 1), 0
        for z in zs[:d]:
            code = code * self.n + z
        x = self.left[d].ravel().take(x * self.n ** d + code)
        for z in zs[d:]:
            x = self.C(x, z)
        return x


def _lex(axes, keep=None):
    """Head source: the lexicographic product of `axes`, less the rows `keep` rejects."""
    total = math.prod(len(a) for a in axes)

    def blocks(m):
        for lo in range(0, total, m):
            rows = lex_rows(axes, lo, min(lo + m, total))
            yield rows if keep is None else rows[keep(*rows.T)]

    return blocks


def _accepted(words, m: int, pad: int, ranks: bool):
    """Positions and draws of the words w that `randrange(m)` accepts (w >> (32 - m.bit_length())
    < m), then `pad` sentinels (position len(words), draw 0); and `first` where `ranks` asks for it
    (else None): first[p] is the rank of the first accepted word at or after p, for p in
    0..len(words), first[-1] the second sentinel's."""
    shifted = words >> (32 - m.bit_length())
    ok = shifted < m
    pos = np.flatnonzero(ok)
    first = np.concatenate([[0], np.cumsum(ok), [len(pos) + 1]]) if ranks else None
    return np.append(pos, np.full(pad, len(words))), np.append(shifted.take(pos), np.zeros(pad, np.intp)), first


def _drawn(rng, count: int, head, keep=None, tail=()):
    """Head source: `count` samples drawn from `rng` as `randrange` calls would draw them.

    A sample draws once below each of the `head` moduli and, where `keep`
    holds on those draws (everywhere without `keep`), once below each of the
    `tail` moduli; a sample `keep` rejects adds no row.  Words are read WORDS
    at a time.  A read names each sample by the rank of its first draw among
    the words the first modulus accepts.  Without `keep` and with one modulus
    for all k coordinates, sample i is the accepted draws k*i .. k*i + k - 1.
    Otherwise a draw takes the next rank when its modulus is the previous
    draw's, else one lookup in `first`; per rank the walk computes the draws,
    `keep` and the step (the rank where the next sample starts), then the
    samples' starts as the path of rank 0 under the step, by pointer jumping.
    Either way the next read carries on from the first word of the sample the
    read could not finish.  A block holds at most min(m, DRAWS) rows.
    """
    moduli, k = (*head, *tail), len(head) + len(tail)
    stride = keep is None and len(set(moduli)) == 1

    def blocks(m):
        m = min(m, DRAWS)
        words, left, rows = np.empty(0, np.uint32), count, np.empty((0, k), np.int64)
        while left:
            read = rng.getrandbits(32 * WORDS).to_bytes(4 * WORDS, "little")
            words = np.concatenate([words, np.frombuffer(read, "<u4")])
            acc = {mod: _accepted(words, mod, k + 1, not stride) for mod in set(moduli)}
            pos, draws, first = acc[moduli[0]]
            if stride:
                done = min((len(pos) - k - 1) // k, left)
                new, nxt = draws[:done * k].reshape(done, k), done * k
            else:
                out = int(first[-1])  # the second sentinel's rank: where a sample out of words steps
                after = lambda i, mod: acc[mod][2].take(acc[moduli[i]][0].take(ranks[i]) + 1)
                ranks = [np.arange(out + 1)]  # ranks[i]: the rank of draw i, for a sample at each rank
                for i, mod in enumerate(moduli[1:]):
                    ranks.append(ranks[i] + 1 if mod == moduli[i] else after(i, mod))
                step = after(-1, moduli[0])
                if keep is not None:
                    kept = keep(*(acc[mod][1].take(at) for mod, at in zip(head, ranks)))
                    step = np.where(kept, step, after(len(head) - 1, moduli[0]))
                path, jump = np.zeros(1, np.intp), step  # path[i]: the rank where sample i starts
                while len(path) <= left and path[-1] < out:
                    path, jump = np.concatenate([path, jump.take(path)]), jump.take(jump)
                done = min(int(np.count_nonzero(path < out)) - 1, left)
                starts, nxt = path[:done], path[done]
                new = np.stack([acc[mod][1].take(at.take(starts)) for mod, at in zip(moduli, ranks)], 1)
                new = new if keep is None else new[kept[starts]]
            rows = np.concatenate([rows, new])
            words, left = words[pos[nxt]:], left - done
            full = len(rows) if not left else len(rows) - len(rows) % m
            for lo in range(0, full, m):
                yield rows[lo:lo + m]
            rows = rows[full:]

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
            hi = min(lo + CHUNK, len(tails))
            part = (slice(lo, hi),) if tail else ()  # the codes of the part; none for bare heads
            ok = holds(*block.T[:, :, None], *part)
            fails = np.flatnonzero(~ok)[:LIMIT - len(bad)]
            if len(fails) == 0:
                continue
            head, at = np.divmod(fails, hi - lo)
            bad += map(tuple, np.hstack([block[head], tails[lo + at]]).tolist())
            if len(bad) == LIMIT:
                return bad, (done + int(head[-1]) + 1) * weight
        done += len(block)
    return bad, done * weight


def _check_identities(G: FiniteGroup, cfg: LemmaConfig, rng, tables=None) -> LemmaReport:
    tables = tables or _Tables(G, 1)
    n, every, t, C = tables.n, tables.every, tables.t, tables.C

    def holds(a, x, at):
        side, y = np.divmod(np.arange(at.start, at.stop), n)
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
                    cfg: LemmaConfig, rng, tables=None) -> LemmaReport:
    tables = tables or _Tables(G, j)
    n, every, t, C, L = tables.n, tables.every, tables.t, tables.C, tables.left_normed
    zmem = upper.term(j if variant == 1 else j + 1).members

    def holds(a, b, c, at):
        ac = t(a, c)
        lhs = L(t(t(a, b), c), at, j)
        if variant == 1:
            return lhs == L(ac, at, j)
        mid = L(t(ac, b), at, j)
        z1, *rest = tables.zs(at, j)
        merged = L(t(C(ac, z1), C(b, z1)), rest, j - 1)
        rhs = t(L(ac, at, j), L(b, at, j))
        return (lhs == mid) & (mid == merged) & (merged == rhs)

    exhaustive = n * len(zmem) * n * n ** j <= cfg.max_tuples
    if exhaustive:
        bad, count = _scan(_lex([every, zmem, every]), [every] * j, holds, n ** j)
    else:
        draws = _drawn(rng, cfg.samples, [n, n, len(zmem)] + [n] * j)

        def heads(m):
            for a, c, k, *zs in (block.T for block in draws(m)):
                yield np.stack([a, zmem[k], c, *zs], axis=1)

        bad, count = _scan(heads, [], lambda *cols: holds(*cols[:3], cols[3:]), 1)
    return LemmaReport(G.name, f"centrals-{variant}", j, count, bad, exhaustive)


def _check_homo(G: FiniteGroup, j: int, upper: CentralSeries, cfg: LemmaConfig, rng,
                tables=None) -> LemmaReport:
    tables = tables or _Tables(G, j)
    n, every, t, C, L = tables.n, tables.every, tables.t, tables.C, tables.left_normed
    in_zj, in_zj1 = upper.term(j)._member_mask, upper.term(j + 1)._member_mask
    whole_j, whole_j1 = bool(in_zj.all()), bool(in_zj1.all())

    def hypotheses(a, X, Y, Xp):
        # they do not involve the z's.  Tested, never assumed: a factor whose centre term is
        # all of G holds on every head, and that is tested once per report, on its mask above
        return (whole_j or in_zj[C(Y, C(a, Xp))]) & (whole_j1 or in_zj1[C(a, Y)])

    keep = None if whole_j and whole_j1 else hypotheses

    def holds(a, X, Y, Xp, at):
        aXXp, aY = C(a, t(X, Xp)), C(a, Y)
        lhs = L(C(a, t(t(X, Y), Xp)), at, j)
        mid = L(t(aXXp, aY), at, j)
        rhs = t(L(aXXp, at, j), L(aY, at, j))
        return (lhs == mid) & (mid == rhs)

    exhaustive = n ** (4 + j) <= cfg.max_tuples
    if exhaustive:
        bad, count = _scan(_lex([every] * 4, keep), [every] * j, holds, n ** j)
    else:
        draws = _drawn(rng, cfg.samples, [n] * 4, keep, [n] * j)
        bad, count = _scan(draws, [], lambda *cols: holds(*cols[:4], cols[4:]), 1)
    return LemmaReport(G.name, "homo", j, count, bad, exhaustive)


def _integer(value) -> bool:
    """Whether `value` is an integer, not a bool; numpy integers count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _at_least(value, least: int) -> bool:
    """Whether `value` is an integer, not a bool, of at least `least`."""
    return _integer(value) and value >= least


def check_commutator_lemmas(G: FiniteGroup, cfg: Optional[LemmaConfig] = None) -> list:
    """Verify the base commutator identities and both central-element lemmas on G.

    Returns one LemmaReport per (lemma, j) combination; counterexample lists
    are expected empty on every group.  Raises InvalidOption unless every j
    of `cfg.js` is an integer >= 1, `cfg.max_tuples` and `cfg.samples` are
    integers >= 0 and `cfg.seed` is an integer (none of them a bool).
    """
    cfg = cfg or LemmaConfig()
    for name in ("max_tuples", "samples"):
        if not _at_least(getattr(cfg, name), 0):
            raise InvalidOption(f"LemmaConfig.{name} must be an integer >= 0, got {getattr(cfg, name)!r}")
    if not _integer(cfg.seed):
        raise InvalidOption(f"LemmaConfig.seed must be an integer, got {cfg.seed!r}")
    seed = int(cfg.seed)
    js = list(cfg.js) if isinstance(cfg.js, Iterable) else cfg.js
    if js is not None and not (isinstance(js, list) and all(_at_least(j, 1) for j in js)):
        raise InvalidOption(f"LemmaConfig.js must hold integers >= 1, got {cfg.js!r}")
    upper = upper_central_series(G)
    if js is not None:
        js = [int(j) for j in js]
    else:
        # beyond class + 1 every side of the lemmas is the identity
        bound = (upper.nilpotency_class or (len(upper.terms) - 1)) + 1
        js = list(range(1, max(bound, 1) + 1))
    tables = _Tables(G, max(js, default=1))  # shared by this call's reports, then freed
    reports = []
    for lemma_pos, lemma in enumerate(LEMMA_IDS):
        if lemma == "identities":
            rng = random.Random(seed + lemma_pos)
            reports.append(_check_identities(G, cfg, rng, tables))
            continue
        for j in js:
            rng = random.Random(seed + 1000 * lemma_pos + j)
            if lemma == "centrals-1":
                reports.append(_check_centrals(G, 1, j, upper, cfg, rng, tables))
            elif lemma == "centrals-2":
                reports.append(_check_centrals(G, 2, j, upper, cfg, rng, tables))
            else:
                reports.append(_check_homo(G, j, upper, cfg, rng, tables))
    return reports
