"""Desk-scale corpus generation and theorem suites.

The corpus is built from standard families only (cyclic, products of up to
three cyclic factors, dihedral, quaternion, symmetric, alternating,
Heisenberg), deduplicated up to isomorphism.  Suites quantify over every
ordered pair in the corpus within a per-pair cost budget; every pair is
either examined or listed as skipped with a reason.  The classification
suites read their verdicts from one walk and one count pass per source
over all of its budgeted targets (``classify_source``); the counts are
memoized on the groups, per image and per kernel, for every pair to share.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .approx import (
    GroupClass,
    _per_key,
    f_socle,
    galois_group,
    image_masks,
    local_kernel,
    postcomposition,
    precomposition,
    run_flags,
)
from .commutators import LemmaConfig, check_commutator_lemmas, nilpotency_class
from .groups import FiniteGroup, GroupHom, are_isomorphic, standard_group
from .homs import _gen_array, automorphism_group, enumerate_homs, enumerate_source, key_groups

PAIR_BUDGET = 100_000_000
CORPUS_CAP = 512
SUITE_IDS = ("cogalois", "galois", "socle-cover", "radical-envelope", "reduction", "lemmas")


def generate_corpus(max_order: int):
    """Deterministic family corpus, deduplicated up to isomorphism."""
    if max_order > CORPUS_CAP:
        raise ValueError(f"corpus capped at order {CORPUS_CAP}")
    descriptors = []
    for n in range(1, max_order + 1):
        descriptors.append(f"cyclic:{n}")
    for a in range(2, max_order + 1):
        for b in range(a, max_order // a + 1):
            descriptors.append(f"product:cyclic:{a},cyclic:{b}")
            for c in range(b, max_order // (a * b) + 1):
                descriptors.append(f"product:cyclic:{a},cyclic:{b},cyclic:{c}")
    for n in range(4, max_order + 1, 2):
        descriptors.append(f"dihedral:{n}")
    if max_order >= 8:
        descriptors.append("quaternion8")
    for n in range(2, 8):
        if math.factorial(n) <= max_order:
            descriptors.append(f"symmetric:{n}")
        if n >= 3 and math.factorial(n) // 2 <= max_order:
            descriptors.append(f"alternating:{n}")
    for p in (2, 3, 5):
        if p ** 3 <= max_order:
            descriptors.append(f"heisenberg:{p}")
    groups = []
    for d in descriptors:
        G = standard_group(d)
        if not any(H.order == G.order and are_isomorphic(H, G) for H in groups):
            groups.append(G)
    groups.sort(key=lambda g: (g.order, g.name))
    return groups


def _is_nilpotent(G: FiniteGroup) -> bool:
    return G.memo("nilpotent", lambda: nilpotency_class(G) is not None)


@dataclass
class SuiteReport:
    suite: str
    max_order: int
    pairs_examined: int = 0
    homs_classified: int = 0
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    pair_seconds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "maxOrder": self.max_order,
            "pairsExamined": self.pairs_examined,
            "homsClassified": self.homs_classified,
            "violations": self.violations,
            "skipped": self.skipped,
            "notes": self.notes,
        }


def _budget_ok(H: FiniteGroup, G: FiniteGroup) -> bool:
    return G.order ** len(_gen_array(H)) <= PAIR_BUDGET


@dataclass
class HomVerdicts:
    """Per-hom absolute flags for one (source, target) pair, all rows."""

    source: FiniteGroup
    target: FiniteGroup
    matrix: np.ndarray
    is_envelope: np.ndarray
    is_localization: np.ndarray
    is_cover: np.ndarray
    is_cellular: np.ndarray
    is_preenvelope: np.ndarray
    is_precover: np.ndarray
    galois_orders: np.ndarray
    co_galois_orders: np.ndarray

    def __len__(self):
        return int(self.matrix.shape[0])


def classify_pair(H: FiniteGroup, G: FiniteGroup) -> HomVerdicts:
    """Classify every hom H -> G at once, as ``classify_source`` of one target; memoized on H."""
    return H.memo(("verdicts", G), lambda: _classify_run(H, [G])[0])


def classify_source(H: FiniteGroup, targets) -> None:
    """Classify every hom H -> G, for each G of ``targets`` that H has no verdicts for, in one
    ``_classify_run``; ``classify_pair`` then reads them from H's memo."""
    todo = [G for G in {id(G): G for G in targets}.values() if not H.memoized(("verdicts", G))]
    if todo:
        for G, v in zip(todo, _classify_run(H, todo)):
            H.memo(("verdicts", G), lambda v=v: v)


def _classify_run(H: FiniteGroup, targets) -> list:
    """The verdicts of every hom H -> G, for each G of ``targets``, from one count pass
    (``approx.run_flags``) over all of their homs.

    The counts (``approx.side_counts``) count a hom's composites by their
    keys in its own hom set, and depend on the hom only through its image
    and its kernel: the homs of all targets are grouped by (target, image)
    and by kernel, the counts, memoized on G per image and on H per
    kernel, are broadcast to the groups, and each target's verdicts are a
    slice of the per-row arrays.
    ``enumerate_source`` first searches the hom sets of every target in
    one walk; the ``enumerate_homs`` calls per target then read H's memo.
    End(X) is ``automorphism_group(X).ends``.
    """
    enumerate_source(H, targets)
    hom_sets = [enumerate_homs(H, G) for G in targets]
    aut_h = automorphism_group(H)
    (t_pre, t_approx, t_bij, gal), (s_pre, s_approx, s_bij, cogal) = run_flags(
        aut_h, [(hs.matrix, hs, automorphism_group(hs.target)) for hs in hom_sets])
    flags = (t_approx, t_bij, s_approx, s_bij, t_pre, s_pre, gal, cogal)
    bounds = np.cumsum([0, *map(len, hom_sets)]).tolist()
    return [HomVerdicts(H, hs.target, hs.matrix, *(f[lo:hi] for f in flags))
            for hs, lo, hi in zip(hom_sets, bounds, bounds[1:])]


def search_approximations(H: FiniteGroup, G: FiniteGroup, kind: str, injective_only: bool = False):
    """All homs H -> G carrying the requested flag, in canonical order."""
    v = classify_pair(H, G)
    flag = {
        "envelope": v.is_envelope,
        "cover": v.is_cover,
        "localization": v.is_localization,
        "cellular": v.is_cellular,
    }.get(kind)
    if flag is None:
        raise ValueError(f"unknown kind {kind!r}")
    if injective_only:
        flag = flag & enumerate_homs(H, G).injective()
    return [GroupHom(H, G, row, check=False) for row in v.matrix[flag]]


def _pair_name(H, G):
    return f"{H.name}->{G.name}"


def _run(tasks, worker, report: SuiteReport, sort_key):
    """Apply worker to each (name, args, before) task in order, timing each call; sorted merge.

    The callables of the list ``before`` are called first, in order, and
    timed with the task.  A worker returns (items checked, violations, notes).
    """
    for name, args, before in tasks:
        t0 = time.perf_counter()
        for f in before:
            f()
        count, violations, notes = worker(*args)
        report.pair_seconds[name] = time.perf_counter() - t0
        report.pairs_examined += 1
        report.homs_classified += count
        report.violations.extend(violations)
        report.notes.extend(notes)
    report.violations.sort(key=sort_key)
    report.notes.sort(key=sort_key)


def _run_pairs(corpus, worker, report: SuiteReport, by_source: bool = False):
    """Apply worker to every ordered pair under the budget; list the rest as skipped.

    Each source's budgeted targets are walked together (``enumerate_source``)
    before the first pair, and with ``by_source`` classified together
    (``classify_source``) before the source's first pair; a pair's time
    includes what runs before it.
    """
    tasks, walks = [], []
    for H in corpus:
        targets = []
        for G in corpus:
            if _budget_ok(H, G):
                targets.append(G)
            else:
                report.skipped.append({"pair": _pair_name(H, G), "reason": "candidate-budget"})
        walks.append(functools.partial(enumerate_source, H, targets))
        for i, G in enumerate(targets):
            before = [functools.partial(classify_source, H, targets)] if by_source and i == 0 else []
            tasks.append((_pair_name(H, G), (H, G), before))
    if tasks:
        name, args, before = tasks[0]
        tasks[0] = (name, args, walks + before)
    _run(tasks, worker, report, lambda v: sorted(v.items()))


def _violations(v: HomVerdicts, bad: np.ndarray, law: str) -> list:
    """One violation of ``law`` per hom row that the mask ``bad`` selects."""
    if not bad.any():
        return []
    pair = _pair_name(v.source, v.target)
    return [{"pair": pair, "hom": row, "law": law} for row in v.matrix[bad].tolist()]


def _cogalois_worker(H, G):
    """Cover with trivial co-Galois must be a cellular cover."""
    v = classify_pair(H, G)
    bad = v.is_cover & (v.co_galois_orders == 1) & ~v.is_cellular
    return len(v), _violations(v, bad, "cover-trivial-cogalois-implies-cellular"), []


def _galois_worker(H, G):
    """Envelope with trivial Galois and abelian source or nilpotent target
    must be a localization; abelian-source case forces abelian target."""
    v = classify_pair(H, G)
    ab_h = H.is_abelian
    nil_g = _is_nilpotent(G)
    trivial = v.is_envelope & (v.galois_orders == 1)
    violations = []
    if ab_h or nil_g:
        violations += _violations(v, trivial & ~v.is_localization,
                                  "envelope-trivial-galois-implies-localization")
    if ab_h and not G.is_abelian:
        violations += _violations(v, trivial, "abelian-source-envelope-implies-abelian-target")
    return len(v), violations, []


def _surjective_reps_by_kernel(H, G):
    """One surjective hom per kernel, first in canonical order: phi is onto when |ker phi|.|G| = |H|."""
    matrix = enumerate_homs(H, G).matrix
    kernels = matrix == G.identity
    onto = kernels.sum(axis=1) * G.order == H.order
    return matrix[onto][key_groups(kernels[onto])[0]]


def _make_socle_worker(corpus):
    classes = [(F0, GroupClass(F0.name, [F0]), len(_gen_array(F0))) for F0 in corpus]

    def worker(H, G):
        violations = []
        notes = []
        hs = enumerate_homs(H, G)
        reps = hs.matrix[hs.injective_per_image()]
        images = np.sort(reps, axis=1)
        count = 0
        for F0, cls, rank in classes:
            if max(G.order, H.order) ** rank > PAIR_BUDGET:
                continue
            socle = f_socle(G, cls)
            source_in_class = cls.contains(H)
            for row, image in zip(reps, images):
                count += 1
                is_socle = np.array_equal(socle.members, image)
                precover = source_in_class and postcomposition(row, H, G, F0).surjective
                if source_in_class and precover != is_socle:
                    violations.append(
                        {"pair": _pair_name(H, G), "class": F0.name,
                         "hom": row.tolist(),
                         "law": "injective-precover-iff-image-is-socle"}
                    )
                elif not source_in_class and is_socle:
                    notes.append(
                        {"pair": _pair_name(H, G), "class": F0.name,
                         "note": "image-equals-socle-but-source-not-in-class"}
                    )
        return count, violations, notes

    return worker


def _make_radical_worker(corpus):
    """The surjective-preenvelope law on one surjective hom per kernel, for each singleton class
    of ``corpus``.  Unique liftings need no check: for phi onto, f.phi = g.phi forces f = g,
    so precomposition with phi is one-to-one into every class member."""
    classes = [(F0, GroupClass(F0.name, [F0])) for F0 in corpus]

    def worker(H, G):
        violations = []
        reps = _surjective_reps_by_kernel(H, G)
        kernels = [np.flatnonzero(row == G.identity) for row in reps]
        rank = max(len(_gen_array(G)), len(_gen_array(H)))
        count = 0
        for F0, cls in classes:
            if F0.order ** rank > PAIR_BUDGET:
                continue
            target_in_class = cls.contains(G)
            kf = local_kernel(H, cls)
            for row, kernel in zip(reps, kernels):
                count += 1
                comp = precomposition(row, H, G, F0)  # always: perfbench pins its enumerate_homs calls
                pre = target_in_class and comp.surjective
                epireflection = target_in_class and np.array_equal(kf.members, kernel)
                if pre != epireflection:
                    violations.append(
                        {"pair": _pair_name(H, G), "class": F0.name,
                         "hom": row.tolist(),
                         "law": "surjective-preenvelope-iff-epireflection-kernel"}
                    )
        return count, violations, []

    return worker


def _orders_per_key(v: HomVerdicts, homs: np.ndarray, orders: np.ndarray, side: str, law: str) -> list:
    """``law`` violations: the homs of the mask ``homs`` whose ``orders`` are not ``galois_group(rep,
    side).order``, for rep the first of them with their image (target side) or kernel (source side) mask."""
    if not homs.any():
        return []
    rows = v.matrix[homs]
    keys = image_masks(rows, v.target.order) if side == "target" else rows == v.target.identity
    (want,) = _per_key(keys, lambda key, i: (
        galois_group(GroupHom(v.source, v.target, rows[i], check=False), side).order,))
    bad = homs.copy()
    bad[homs] = orders[homs] != want
    return _violations(v, bad, law)


def _reduction_worker(H, G):
    """The Galois orders of ``classify_pair``, checked against ``galois_group`` once per image or kernel.

    Gal(phi), the automorphisms a of G with a.phi = phi, fix Im phi pointwise:
    Gal(phi) depends on the image only, and is the Galois group of the
    inclusion Im phi -> G.  Dually co-Gal(phi), the automorphisms b of H with
    phi.b = phi, move each x within x ker phi: it depends on the kernel only.
    """
    v = classify_pair(H, G)
    violations = _orders_per_key(v, v.is_envelope, v.galois_orders, "target",
                                 "envelope-image-inclusion-same-galois")
    violations += _orders_per_key(v, v.is_cover, v.co_galois_orders, "source",
                                  "cover-image-projection-same-cogalois")
    return len(v), violations, []


def _lemma_worker(G):
    """Commutator identity checks; central-series lemmas on nilpotent members."""
    if _is_nilpotent(G):
        reports = check_commutator_lemmas(G, LemmaConfig())
    else:
        reports = [r for r in check_commutator_lemmas(G, LemmaConfig(js=[1])) if r.lemma == "identities"]
    violations = [
        {"group": G.name, "lemma": r.lemma, "j": r.j, "tuple": list(bad)}
        for r in reports
        for bad in r.counterexamples
    ]
    return sum(r.tuples_checked for r in reports), violations, []


def run_theorem_suite(corpus, suite: str, jobs: int = 1) -> SuiteReport:
    """Run one theorem suite over every ordered corpus pair within budget.

    Pairs run serially, in corpus order.  Before the first pair, every pair
    suite enumerates the homs from each source to all of its budgeted
    targets in one walk per source (``enumerate_source``): a socle or
    radical worker reads the hom sets of every corpus member.  The
    classification suites (cogalois, galois, reduction) then batch by
    source: before the first pair of a source H, ``classify_source``
    classifies its homs and memoizes the verdicts on H, which the pair
    workers read through ``classify_pair``.  A batch's time counts in its
    first pair's ``pair_seconds``.  ``jobs`` is accepted and has no effect.
    The report's ``max_order`` is the largest order in ``corpus``.
    """
    if suite not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_IDS}")
    if not corpus:
        raise ValueError("corpus is empty")
    report = SuiteReport(suite=suite, max_order=max(g.order for g in corpus))
    if suite == "lemmas":
        # lemma violations carry j=None for identities, which does not compare with ints
        _run([(G.name, (G,), []) for G in corpus], _lemma_worker, report,
             lambda v: sorted((k, str(x)) for k, x in v.items()))
        return report
    worker = {
        "cogalois": _cogalois_worker,
        "galois": _galois_worker,
        "socle-cover": _make_socle_worker(corpus),
        "radical-envelope": _make_radical_worker(corpus),
        "reduction": _reduction_worker,
    }[suite]
    _run_pairs(corpus, worker, report, by_source=suite in ("cogalois", "galois", "reduction"))
    return report
