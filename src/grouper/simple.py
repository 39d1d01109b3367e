"""Structural predicates and the embedding criterion for simple sources.

For an embedding H -> G with H simple, two checkable conditions predict
that the embedding is an envelope and determine its Galois group as the
centralizer of the image:

  1. every automorphism of H extends along the embedding to an
     automorphism of G, and
  2. all subgroups of G isomorphic to H form a single orbit under Aut(G).

The criterion report carries both the prediction and, when feasible, a
direct cross-check against the exhaustive classification.

The copies of H in G are the images of the injective homs H -> G.  The
Aut(G)-orbit of a copy K is {a(K) : a in Aut(G)}, read directly from all
of ``AutGroup.perms``: condition 2 needs no generating set of Aut(G) or
Aut(H).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .approx import classify_hom, image_masks
from .commutators import commutator
from .errors import NonInjectiveInput
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    center,
    centralizer,
    describe_structure,
    subgroup_generated,
)
from .homs import automorphism_group, enumerate_homs, key_groups


def is_simple(G: FiniteGroup) -> bool:
    """No proper nontrivial normal subgroup.

    The normal closure of any non-identity element of a simple group is
    the whole group, and conversely.
    """
    if G.order == 1:
        return False
    t, inv = G.table, G.inverses
    checked = np.zeros(G.order, dtype=bool)
    checked[G.identity] = True
    while not checked.all():
        x = int(checked.argmin())
        if not subgroup_generated(G, [x], normal=True).is_whole:
            return False
        checked[t[t[:, x], inv]] = True  # conjugates of x share x's normal closure
    return True


def is_perfect(G: FiniteGroup) -> bool:
    """Equal to its own commutator subgroup.

    That subgroup is the normal closure of the commutators of the generators.
    """
    g = np.asarray(G.generators)
    return subgroup_generated(G, commutator(G, g[:, None], g[None, :]).ravel(), normal=True).is_whole


def is_complete(G: FiniteGroup) -> bool:
    """Trivial center and no outer automorphisms."""
    if center(G).order != 1:
        return False
    ag = automorphism_group(G)
    return ag.order == ag.inner_order


def structural_flags(G: FiniteGroup) -> dict:
    return {
        "isSimple": is_simple(G),
        "isPerfect": is_perfect(G),
        "isComplete": is_complete(G),
    }


def subgroups_isomorphic_to(G: FiniteGroup, H: FiniteGroup) -> list:
    """All subgroups of G isomorphic to H, as Subgroups, deduplicated.

    Enumerated as images of injective homomorphisms, so every returned
    subgroup genuinely carries a copy of H.
    """
    hs = enumerate_homs(H, G)
    return [Subgroup(G, hs.matrix[i]) for i in hs.injective_per_image()]


@dataclass
class CriterionReport:
    hom: GroupHom
    applicable: bool               # source simple and map injective
    source_simple: bool
    every_automorphism_extends: bool
    copies_conjugate_under_aut: bool
    copy_count: int
    orbit_count: int
    predicted_galois_order: Optional[int]
    predicted_galois_structure: Optional[str]
    direct_is_envelope: Optional[bool] = None
    direct_is_localization: Optional[bool] = None
    direct_galois_order: Optional[int] = None
    agrees: Optional[bool] = None
    witnesses: list = field(default_factory=list)

    @property
    def conditions_hold(self) -> bool:
        return (
            self.applicable
            and self.every_automorphism_extends
            and self.copies_conjugate_under_aut
        )

    def to_dict(self) -> dict:
        return {
            "source": {"name": self.hom.source.name, "order": self.hom.source.order},
            "target": {"name": self.hom.target.name, "order": self.hom.target.order},
            "hom": self.hom.images.tolist(),
            "applicable": self.applicable,
            "sourceSimple": self.source_simple,
            "everyAutomorphismExtends": self.every_automorphism_extends,
            "copiesConjugateUnderAut": self.copies_conjugate_under_aut,
            "copyCount": self.copy_count,
            "orbitCount": self.orbit_count,
            "predictedGaloisOrder": self.predicted_galois_order,
            "predictedGaloisStructure": self.predicted_galois_structure,
            "directIsEnvelope": self.direct_is_envelope,
            "directIsLocalization": self.direct_is_localization,
            "directGaloisOrder": self.direct_galois_order,
            "agrees": self.agrees,
            "witnesses": self.witnesses,
        }


def _automorphisms_extend(phi: GroupHom) -> tuple:
    """(all_extend, first_unextended_automorphism_images or None).

    alpha in Aut(H) extends when some f in Aut(G) satisfies
    f(phi(h)) = phi(alpha(h)) for all h.
    """
    H, G = phi.source, phi.target
    aut_h = automorphism_group(H)
    aut_g = automorphism_group(G)
    homs = enumerate_homs(H, G)
    # both sides are homs H -> G, compared by their rows of Hom(H, G)
    avail = np.zeros(len(homs), dtype=bool)
    avail[homs.locate(aut_g.perms[:, phi.images[homs.gens]])] = True
    missing = np.flatnonzero(~avail[homs.locate(phi.images[aut_h.perms[:, homs.gens]])])
    if missing.size:
        return False, aut_h.perms[missing[0]].tolist()
    return True, None


def _copies_single_orbit(phi: GroupHom) -> tuple:
    """(single_orbit, copy_count, orbit_count, witness_copy or None).

    The copies are the images of ``injective_per_image``, in byte order, and
    phi's image is labelled with them as one more row.  Each pass takes the
    least row not yet labelled, moves it by every automorphism of G, and
    labels every row whose packed member mask is among the moved masks: one
    pass per orbit.  The witness is the first copy outside phi's orbit.
    """
    H, G = phi.source, phi.target
    homs = enumerate_homs(H, G)
    rows = np.concatenate([homs.matrix[homs.injective_per_image()], phi.images[None, :]])
    perms = automorphism_group(G).perms
    masks = image_masks(rows, G.order)
    labels = np.full(len(rows), -1)
    orbits = 0
    while (labels < 0).any():
        moved = image_masks(perms[:, rows[np.flatnonzero(labels < 0)[0]]], G.order)
        ids = key_groups(np.concatenate([masks, moved]))[1]
        labels[np.isin(ids[:len(rows)], ids[len(rows):])] = orbits
        orbits += 1
    outside = np.flatnonzero(labels[:-1] != labels[-1])
    witness = np.sort(rows[outside[0]]).tolist() if outside.size else None
    return not outside.size, len(rows) - 1, orbits, witness


def simple_envelope_criterion(phi: GroupHom, cross_check: bool = True) -> CriterionReport:
    """Evaluate both criterion conditions and predict the Galois group.

    Raises NonInjectiveInput for non-embeddings.  When ``cross_check`` is
    set, also runs the exhaustive classifier and records agreement.
    """
    if not phi.is_injective:
        raise NonInjectiveInput(
            f"criterion needs an embedding; {phi.source.name} -> {phi.target.name} is not injective"
        )
    H, G = phi.source, phi.target
    source_simple = is_simple(H)
    applicable = source_simple
    extends, bad_auto = _automorphisms_extend(phi)
    single, n_copies, n_orbits, bad_copy = _copies_single_orbit(phi)
    witnesses = []
    if not extends:
        witnesses.append({"flag": "everyAutomorphismExtends", "automorphism": bad_auto})
    if not single:
        witnesses.append({"flag": "copiesConjugateUnderAut", "subgroup": bad_copy})
    cent = centralizer(G, phi.image_members())
    pred_order = pred_struct = None
    if applicable and extends and single:
        pred_order = cent.order
        pred_struct = describe_structure(cent.as_group())
    report = CriterionReport(
        phi, applicable, source_simple, extends, single,
        n_copies, n_orbits, pred_order, pred_struct, witnesses=witnesses,
    )
    if cross_check:
        cr = classify_hom(phi)
        report.direct_is_envelope = cr.flags["isEnvelope"]
        report.direct_is_localization = cr.flags["isLocalization"]
        report.direct_galois_order = cr.galois_order
        if pred_order is not None:
            report.agrees = bool(
                cr.flags["isEnvelope"] and cr.galois_order == pred_order
            )
    return report
