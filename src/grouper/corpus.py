"""Desk-scale corpus generation and theorem suites.

The corpus is built from standard families only (cyclic, products of up to
three cyclic factors, dihedral, quaternion, symmetric, alternating,
Heisenberg), deduplicated up to isomorphism.  Suites quantify over every
ordered pair in the corpus within a per-pair cost budget; every pair is
either examined or listed as skipped with a reason.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .approx import (
    EndData,
    GroupClass,
    f_socle,
    image_factorize,
    local_kernel,
    postcomposition,
    precomposition,
    side_profile,
)
from .commutators import LemmaConfig, check_commutator_lemmas, nilpotency_class
from .groups import FiniteGroup, GroupHom, are_isomorphic, standard_group
from .homs import _gen_array, automorphism_group, enumerate_homs, first_per_key

PAIR_BUDGET = 100_000_000
CORPUS_CAP = 512
_CHUNK = 1 << 14  # composites per batch in classify_pair, bounding its working memory
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
    """Classify every hom H -> G at once; memoized on H."""
    return H.memo(("verdicts", G), lambda: _classify_pair(H, G))


def _orbit_labels(hom_set, aut_g, aut_h) -> np.ndarray:
    """Each hom's least orbit-mate under phi -> a.phi.b, for a in Aut(G) and b in Aut(H).

    One ``locate`` per Aut generator gives its move on the homs; the least
    label spreads along the moves, with pointer jumping, to a fixed point
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 4.1).
    """
    rows, gens = hom_set.matrix, hom_set.gens
    moves = [hom_set.locate(aut_g.perms[a][rows[:, gens]]) for a in aut_g.group.generators]
    moves += [hom_set.locate(rows[:, aut_h.perms[b][gens]]) for b in aut_h.group.generators]
    labels, prev = np.arange(len(hom_set)), None
    while prev is None or (labels != prev).any():
        prev = labels
        for move in moves:
            labels = np.minimum(labels, labels[move])
        labels = labels[labels]
    return labels


def _classify_pair(H: FiniteGroup, G: FiniteGroup) -> HomVerdicts:
    """Classify one hom per Aut(H) x Aut(G) orbit; the rest of its orbit shares its verdicts.

    Verdicts are invariant under phi -> a.phi.b (a in Aut(G), b in Aut(H)).
    f -> f.a permutes End(G) and keeps Aut(G), psi -> psi.b permutes
    Hom(H, G), and f.(a.phi.b) = ((f.a).phi).b; so a.phi.b has the
    composites of phi relabelled, hence the same surjectivity and
    injectivity.  Its fixers are a F a^-1 for the fixers F of phi, so the
    approximation test agrees and the Galois groups are conjugate.  The
    source side is dual.
    """
    hom_set = enumerate_homs(H, G)
    end_g, end_h = EndData(G), EndData(H)
    reps, inverse = np.unique(_orbit_labels(hom_set, end_g.aut, end_h.aut), return_inverse=True)
    gens = hom_set.gens
    end_h_gens = end_h.homs.matrix[:, gens]
    step = max(1, _CHUNK // max(len(hom_set), len(end_g.homs), len(end_h.homs)))
    parts = []
    for lo in range(0, len(reps), step):
        rows = reps[lo:lo + step]
        phis = hom_set.matrix[rows]
        # target side f.phi on End(G), source side phi.f on End(H)
        t = side_profile(hom_set, end_g, end_g.homs.matrix[:, phis[:, gens]].transpose(1, 0, 2), rows)
        s = side_profile(hom_set, end_h, phis[np.arange(len(rows))[:, None, None], end_h_gens], rows)
        parts.append((t.approximation, t.bijective, s.approximation, s.bijective,
                      t.surjective, s.surjective, t.galois.sum(axis=1), s.galois.sum(axis=1)))
    return HomVerdicts(H, G, hom_set.matrix, *(np.concatenate(p)[inverse] for p in zip(*parts)))


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
    """Apply worker to each (name, args) task in order, timing each call; sorted merge.

    A worker returns (items checked, violations, notes).
    """
    for name, args in tasks:
        t0 = time.perf_counter()
        count, violations, notes = worker(*args)
        report.pair_seconds[name] = time.perf_counter() - t0
        report.pairs_examined += 1
        report.homs_classified += count
        report.violations.extend(violations)
        report.notes.extend(notes)
    report.violations.sort(key=sort_key)
    report.notes.sort(key=sort_key)


def _run_pairs(corpus, worker, report: SuiteReport):
    """Apply worker to every ordered pair under the budget; list the rest as skipped."""
    tasks = []
    for H in corpus:
        for G in corpus:
            if _budget_ok(H, G):
                tasks.append((_pair_name(H, G), (H, G)))
            else:
                report.skipped.append({"pair": _pair_name(H, G), "reason": "candidate-budget"})
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
            phi = GroupHom(H, G, row, check=False)
            epi, _mono = image_factorize(phi)
            fix_phi = (row[aut_h.perms] == row[None, :]).all(axis=1)
            fix_epi = (epi.images[aut_h.perms] == epi.images[None, :]).all(axis=1)
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

    Pairs run serially, in corpus order.  ``jobs`` is accepted for
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
        _run([(G.name, (G,)) for G in corpus], worker, report,
             lambda v: sorted((k, str(x)) for k, x in v.items()))
        return report
    worker = {
        "cogalois": _cogalois_worker,
        "galois": _galois_worker,
        "socle-cover": _make_socle_worker(corpus),
        "radical-envelope": _make_radical_worker(corpus),
        "reduction": _reduction_worker,
    }[suite]
    _run_pairs(corpus, worker, report)
    return report
