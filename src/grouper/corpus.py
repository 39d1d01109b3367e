"""Desk-scale corpus generation and theorem suites.

The corpus is built from standard families only (cyclic, products of up to
three cyclic factors, dihedral, quaternion, symmetric, alternating,
Heisenberg), deduplicated up to isomorphism.  Suites quantify over every
ordered pair in the corpus within a per-pair cost budget; every pair is
either examined or listed as skipped with a reason.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .approx import (
    EndData,
    GroupClass,
    f_socle,
    local_kernel,
    postcomposition,
    precomposition,
    side_profile,
)
from .commutators import LemmaConfig, check_commutator_lemmas, nilpotency_class
from .groups import FiniteGroup, GroupHom, are_isomorphic, standard_group
from .homs import HomRun, _gen_array, automorphism_group, enumerate_homs, first_per_key

PAIR_BUDGET = 100_000_000
CORPUS_CAP = 512
# composites (both sides) plus counted homs per chunk of a source's run, which bounds its
# working memory; a representative that needs more is a chunk of its own
_CHUNK = 1 << 13
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

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "maxOrder": self.max_order,
            "pairsExamined": self.pairs_examined,
            "homsClassified": self.homs_classified,
            "violations": self.violations,
            "skipped": self.skipped,
            "notes": self.notes,
        }
        if include_timings:
            out["timings"] = {k: round(v, 6) for k, v in self.pair_seconds.items()}
        return out


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
    """Classify every hom H -> G at once, as a run of one target; memoized on H."""
    return H.memo(("verdicts", G), lambda: _classify_run(H, [G])[0])


def classify_source(H: FiniteGroup, targets) -> None:
    """Classify every hom H -> G, for each G of ``targets`` that H has no verdicts for,
    in one run; ``classify_pair`` then reads them from H's memo."""
    todo = [G for G in {id(G): G for G in targets}.values() if not H.memoized(("verdicts", G))]
    if todo:
        for G, v in zip(todo, _classify_run(H, todo)):
            H.memo(("verdicts", G), lambda v=v: v)


def _orbit_labels(hom_set, aut_g, aut_h) -> np.ndarray:
    """Each hom's least orbit-mate under phi -> a.phi.b, for a in Aut(G) and b in Aut(H).

    One ``locate`` per Aut generator gives its move on the homs; the least
    label spreads along the moves, with pointer jumping, to a fixed point
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 4.1).
    ``hom_set`` may be a ``HomRun``, with ``aut_g`` from ``_joined_auts``.
    """
    gens = hom_set.gens
    gen_images = hom_set.images(gens)
    moves = [hom_set.locate(aut_g.perms[a][gen_images]) for a in aut_g.generators]
    moves += [hom_set.locate(hom_set.images(aut_h.perms[b][gens])) for b in aut_h.generators]
    labels, prev = np.arange(len(hom_set)), None
    while prev is None or (labels != prev).any():
        prev = labels
        for move in moves:
            labels = np.minimum(labels, labels[move])
        labels = labels[labels]
    return labels


def _joined_auts(auts, elem_starts: np.ndarray) -> SimpleNamespace:
    """The Aut(G_t) of a run's segments side by side, on the run's element labels.

    Row s of ``perms`` moves each segment by its generator s, or by the
    identity past its last generator.
    """
    width = max(len(aut.generators) for aut in auts)
    perms = np.tile(np.arange(elem_starts[-1], dtype=np.int32), (width, 1))
    for aut, lo in zip(auts, elem_starts.tolist()):
        perms[:len(aut.generators), lo:lo + aut.base.order] = aut.perms[aut.generators] + lo
    return SimpleNamespace(perms=perms, generators=range(len(perms)))


def _classify_run(H: FiniteGroup, targets) -> list:
    """The verdicts of every hom H -> G, for each G of ``targets``, from one keyed run.

    One hom per Aut(H) x Aut(G) orbit is classified, and the rest of its
    orbit shares its verdicts.  Verdicts are invariant under phi -> a.phi.b
    (a in Aut(G), b in Aut(H)).  f -> f.a permutes End(G) and keeps Aut(G),
    psi -> psi.b permutes Hom(H, G), and f.(a.phi.b) = ((f.a).phi).b; so
    a.phi.b has the composites of phi relabelled, hence the same
    surjectivity and injectivity.  Its fixers are a F a^-1 for the fixers F
    of phi, so the approximation test agrees and the Galois groups are
    conjugate.  The source side is dual.

    The hom sets lie end to end in a ``HomRun``.  Orbits are labelled over
    the whole run, and the representatives are composed with their
    segment's End(G) and with End(H), at most ``_CHUNK`` composites (and
    counted homs) at a time; each side of a chunk is one ``side_profile``
    over all of its segments.
    """
    hom_sets, end_gs = [], []
    for G in targets:
        hom_sets.append(enumerate_homs(H, G))
        end_gs.append(EndData(G))
        end_h = EndData(H)  # once per target: perfbench pins the enumerate_homs calls this makes
    run = HomRun(hom_sets)
    reps, inverse = np.unique(
        _orbit_labels(run, _joined_auts([e.aut for e in end_gs], run.elem_starts), end_h.aut),
        return_inverse=True,
    )
    segs = np.searchsorted(run.row_starts, reps, side="right") - 1
    end_sizes = np.array([len(e.homs) for e in end_gs])
    gens, end_h_gens = run.gens, end_h.homs.matrix[:, run.gens]
    k = len(gens)
    # composites of both sides plus counted homs, up to and including each representative
    cost = np.cumsum(end_sizes[segs] + len(end_h.homs) + np.diff(run.row_starts)[segs])
    parts, lo = [], 0
    while lo < len(reps):
        done = cost[lo - 1] if lo else 0
        hi = max(lo + 1, int(cost.searchsorted(done + _CHUNK, side="right")))
        rows, seg = reps[lo:hi], segs[lo:hi]
        # segment by segment, the generator images of target side f.phi on End(G_t) and of
        # source side phi.f on End(H), in run labels
        t_images, s_images, is_aut = [], [], []
        cuts = [0, *(np.flatnonzero(seg[1:] != seg[:-1]) + 1).tolist(), len(seg)]
        for a, b in zip(cuts, cuts[1:]):
            u = int(seg[a])
            phis, first = hom_sets[u].matrix[rows[a:b] - run.row_starts[u]], int(run.elem_starts[u])
            t_images.append((end_gs[u].homs.matrix[:, phis[:, gens]] + first).transpose(1, 0, 2)
                            .reshape(-1, k))
            s_images.append(phis[:, end_h_gens].reshape(-1, k) + first)
            is_aut.append(np.tile(end_gs[u].aut.end_mask, b - a))
        t = side_profile(run, np.concatenate(t_images), rows, np.concatenate(is_aut), end_sizes[seg], seg)
        s = side_profile(run, np.concatenate(s_images), rows, np.tile(end_h.aut.end_mask, len(rows)),
                         np.full(len(rows), len(end_h.homs)), seg)
        parts.append((t.approximation, t.bijective, s.approximation, s.bijective,
                      t.surjective, s.surjective, t.galois_orders, s.galois_orders))
        lo = hi
    fields = [np.concatenate(p)[inverse] for p in zip(*parts)]
    bounds = run.row_starts.tolist()
    return [HomVerdicts(H, G, hs.matrix, *(f[a:b] for f in fields))
            for G, hs, a, b in zip(targets, hom_sets, bounds, bounds[1:])]


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
    out = []
    for i in np.nonzero(flag)[0]:
        row = v.matrix[i]
        if injective_only and len(np.unique(row)) != H.order:
            continue
        out.append(GroupHom(H, G, row, check=False))
    return out


def _pair_name(H, G):
    return f"{H.name}->{G.name}"


def _run(tasks, worker, report: SuiteReport, sort_key):
    """Apply worker to each (name, args, before) task in order, timing each call; sorted merge.

    ``before``, if not None, is called first and timed with the task.  A
    worker returns (items checked, violations, notes).
    """
    for name, args, before in tasks:
        t0 = time.perf_counter()
        if before is not None:
            before()
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

    With ``by_source``, each source's targets are classified in one run
    (``classify_source``) before its first pair, whose time includes the run.
    """
    tasks = []
    for H in corpus:
        targets = []
        for G in corpus:
            if _budget_ok(H, G):
                targets.append(G)
            else:
                report.skipped.append({"pair": _pair_name(H, G), "reason": "candidate-budget"})
        for i, G in enumerate(targets):
            before = functools.partial(classify_source, H, targets) if by_source and i == 0 else None
            tasks.append((_pair_name(H, G), (H, G), before))
    _run(tasks, worker, report, lambda v: sorted(v.items()))


def _violations(v: HomVerdicts, bad: np.ndarray, law: str) -> list:
    """One violation of ``law`` per hom row that the mask ``bad`` selects."""
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


def _injective_reps_by_image(H, G):
    """One injective hom per image subgroup, first in canonical order."""
    hs = enumerate_homs(H, G)
    images, sizes = hs.sorted_images()
    injective = sizes == H.order
    return hs.matrix[injective][first_per_key(images[injective])]


def _surjective_reps_by_kernel(H, G):
    """One surjective hom per kernel, first in canonical order."""
    hs = enumerate_homs(H, G)
    rows = hs.matrix[hs.sorted_images()[1] == G.order]
    return rows[first_per_key(rows == G.identity)]


def _make_socle_worker(corpus):
    classes = [(F0, GroupClass(F0.name, [F0]), len(_gen_array(F0))) for F0 in corpus]

    def worker(H, G):
        violations = []
        notes = []
        reps = _injective_reps_by_image(H, G)
        count = 0
        for F0, cls, rank in classes:
            if max(G.order, H.order) ** rank > PAIR_BUDGET:
                continue
            socle = f_socle(G, cls)
            source_in_class = cls.contains(H)
            for row in reps:
                count += 1
                image = np.sort(row)
                is_socle = socle.order == len(image) and bool(
                    (socle.members == image).all()
                )
                precover = source_in_class and bool(postcomposition(row, H, G, F0).surjective)
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
    classes = [(F0, GroupClass(F0.name, [F0])) for F0 in corpus]

    def worker(H, G):
        violations = []
        notes = []
        reps = _surjective_reps_by_kernel(H, G)
        rank = max(len(_gen_array(G)), len(_gen_array(H)))
        count = 0
        for F0, cls in classes:
            if F0.order ** rank > PAIR_BUDGET:
                continue
            target_in_class = cls.contains(G)
            kf = local_kernel(H, cls)
            for row in reps:
                count += 1
                comp = precomposition(row, H, G, F0)
                pre = target_in_class and bool(comp.surjective)
                kernel = np.nonzero(row == G.identity)[0]
                epireflection = target_in_class and kf.order == len(kernel) and bool(
                    (kf.members == kernel).all()
                )
                if pre != epireflection:
                    violations.append(
                        {"pair": _pair_name(H, G), "class": F0.name,
                         "hom": row.tolist(),
                         "law": "surjective-preenvelope-iff-epireflection-kernel"}
                    )
                # unique liftings clause: reported, not asserted
                if pre and not comp.injective:
                    notes.append(
                        {"pair": _pair_name(H, G), "class": F0.name,
                         "note": "preenvelope-without-unique-liftings"}
                    )
        return count, violations, notes

    return worker


def _reduction_worker(H, G):
    """Envelope factorization keeps the Galois group; dually for covers."""
    v = classify_pair(H, G)
    violations = []
    aut_g = automorphism_group(G)
    aut_h = automorphism_group(H)
    for i in range(len(v)):
        row = v.matrix[i]
        if v.is_envelope[i]:
            image = np.sort(np.unique(row))
            fix_phi = (aut_g.perms[:, row] == row[None, :]).all(axis=1)
            fix_img = (aut_g.perms[:, image] == image[None, :]).all(axis=1)
            if not (fix_phi == fix_img).all():
                violations.append(
                    {"pair": _pair_name(H, G), "hom": row.tolist(),
                     "law": "envelope-image-inclusion-same-galois"}
                )
        if v.is_cover[i]:
            # the images of image_factorize's epi, whose image members ascend, without a group for the image
            epi = np.unique(row, return_inverse=True)[1]
            fix_phi = (row[aut_h.perms] == row[None, :]).all(axis=1)
            fix_epi = (epi[aut_h.perms] == epi[None, :]).all(axis=1)
            if not (fix_phi == fix_epi).all():
                violations.append(
                    {"pair": _pair_name(H, G), "hom": row.tolist(),
                     "law": "cover-image-projection-same-cogalois"}
                )
    return len(v), violations, []


def _make_lemma_worker(lemma_config):
    """Commutator identity checks; central-series lemmas on nilpotent members."""
    cfg_ids = LemmaConfig(
        max_tuples=lemma_config.max_tuples,
        samples=lemma_config.samples,
        seed=lemma_config.seed,
        js=[1],
    )

    def worker(G):
        if _is_nilpotent(G):
            reports = check_commutator_lemmas(G, lemma_config)
        else:
            reports = [r for r in check_commutator_lemmas(G, cfg_ids) if r.lemma == "identities"]
        violations = [
            {"group": G.name, "lemma": r.lemma, "j": r.j, "tuple": list(bad)}
            for r in reports
            for bad in r.counterexamples
        ]
        return sum(r.tuples_checked for r in reports), violations, []

    return worker


def run_theorem_suite(
    corpus,
    suite: str,
    max_order: int = 0,
    jobs: int = 1,
    lemma_config: LemmaConfig = None,
) -> SuiteReport:
    """Run one theorem suite over every ordered corpus pair within budget.

    Pairs run serially, in corpus order.  The classification suites
    (cogalois, galois, reduction) batch by source: before the first pair
    of a source H, ``classify_source`` classifies H against all of its
    budgeted targets in one run and memoizes the verdicts on H, and the
    pair workers then read them through ``classify_pair``.  That pair's
    time in ``pair_seconds`` includes the run.  ``jobs`` is accepted for
    compatibility and has no effect.
    """
    if suite not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_IDS}")
    if not corpus:
        raise ValueError("corpus is empty")
    if max_order == 0:
        max_order = max(g.order for g in corpus)
    report = SuiteReport(suite=suite, max_order=max_order)
    if suite == "lemmas":
        worker = _make_lemma_worker(lemma_config or LemmaConfig())
        # lemma violations carry j=None for identities, which does not compare with ints
        _run([(G.name, (G,), None) for G in corpus], worker, report,
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
