"""Classification of homomorphisms as localizations, cellular covers,
envelopes, and covers, absolutely and relative to a finite class of groups.

Absolute envelope/cover verdicts use the singleton-class characterization:
a map is an envelope iff precomposition End(G) -> Hom(H, G) is surjective
and every endomorphism fixing the map is an automorphism (dually for
covers).  Every false flag carries the first witness in canonical hom
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional
import numpy as np

from .errors import EmptyClassError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    are_isomorphic,
    describe_structure,
    preimage_subgroup,
    quotient_group,
    subgroup_generated,
)
from .homs import AutSubgroup, HomSet, automorphism_group, enumerate_homs

FLAG_NAMES = (
    "isLocalization",
    "isCellularCover",
    "isEnvelope",
    "isCover",
    "isPreenvelopeOfTargetClass",
    "isPrecoverOfSourceClass",
)


class GroupClass:
    """A finite list of representatives; membership is up to isomorphism."""

    def __init__(self, name: str, members):
        self.name = name
        self.members = list(members)
        if not self.members:
            raise EmptyClassError(f"class {name!r} has no representatives")

    def contains(self, G: FiniteGroup) -> bool:
        return any(are_isomorphic(G, rep) for rep in self.members)

    def __repr__(self):
        return f"GroupClass({self.name!r}, {[g.name for g in self.members]})"


@dataclass
class Witness:
    flag: str
    kind: str  # unlifted-hom | non-automorphism-preimage | non-injective-pair
    data: dict

    def to_dict(self) -> dict:
        return {"flag": self.flag, "kind": self.kind, "data": self.data}


@dataclass
class ClassificationReport:
    hom: GroupHom
    flags: dict
    galois: AutSubgroup       # of Aut(target)
    co_galois: AutSubgroup    # of Aut(source)
    witnesses: list = field(default_factory=list)

    @property
    def galois_order(self) -> int:
        return self.galois.order

    @property
    def co_galois_order(self) -> int:
        return self.co_galois.order

    def to_dict(self) -> dict:
        return {
            "source": {"name": self.hom.source.name, "order": self.hom.source.order},
            "target": {"name": self.hom.target.name, "order": self.hom.target.order},
            "hom": self.hom.images.tolist(),
            "flags": {k: bool(v) for k, v in sorted(self.flags.items())},
            "galois": {
                "order": self.galois.order,
                "structure": describe_structure(self.galois.as_group()),
            },
            "coGalois": {
                "order": self.co_galois.order,
                "structure": describe_structure(self.co_galois.as_group()),
            },
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offset of each of consecutive blocks of ``sizes`` rows."""
    starts = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts


@dataclass
class Composites:
    """Composites located in a hom set or a ``HomRun``, in blocks.

    ``idx[j]`` is the row of composite j in ``homs``; block b holds the
    composites from ``starts[b]`` on and ``counts[count_starts[b] + i]``
    counts those equal to hom i of the block's hom set (its segment of a
    run).  The flags hold per block.  For the absolute verdicts
    (``side_profile``), a block composes one hom with each endomorphism of
    one side: ``fixers`` marks the composites equal to that hom and
    ``galois`` those whose endomorphism is, besides, an automorphism.
    """

    idx: np.ndarray
    counts: np.ndarray
    homs: HomSet  # or a HomRun
    starts: np.ndarray
    count_starts: np.ndarray
    fixers: Optional[np.ndarray] = None
    galois: Optional[np.ndarray] = None

    @property
    def surjective(self):
        return np.minimum.reduceat(self.counts, self.count_starts) > 0

    @property
    def injective(self):
        return np.maximum.reduceat(self.counts, self.count_starts) <= 1

    @property
    def bijective(self):
        return self.surjective & self.injective

    @property
    def galois_orders(self):
        return np.add.reduceat(self.galois, self.starts, dtype=np.int_)

    @property
    def approximation(self):
        """Surjective, and every endomorphism fixing the hom is an automorphism."""
        fixed = np.add.reduceat(self.fixers, self.starts, dtype=np.int_)
        return self.surjective & (fixed == self.galois_orders)

    def first_unhit(self) -> int:
        """Lowest hom index that no composite reaches (one block, not surjective)."""
        return int(np.argmin(self.counts))

    def first_duplicate_pair(self):
        """Smallest (i, j), i < j, with equal composites (one block), or None."""
        _, first = np.unique(self.idx, return_index=True)
        repeated = np.ones(len(self.idx), dtype=bool)
        repeated[first] = False
        if not repeated.any():
            return None
        j = int(np.argmax(repeated))
        return int(np.argmax(self.idx == self.idx[j])), j


def composites(homs, gen_images: np.ndarray, sizes=None, segments=None) -> Composites:
    """Locate composites, given by their images of ``homs.gens`` along the last axis, in ``homs``.

    ``homs`` is a hom set or a ``HomRun``.  The composites come in blocks
    of ``sizes[b]`` consecutive rows, block b lying in segment
    ``segments[b]`` of the run; by default they are one block over all of
    ``homs``.
    """
    idx = homs.locate(gen_images.reshape(-1, gen_images.shape[-1]))
    if sizes is None:
        one = np.zeros(1, dtype=np.intp)
        return Composites(idx, np.bincount(idx, minlength=len(homs)), homs, one, one)
    lows = homs.row_starts[segments]
    widths = homs.row_starts[segments + 1] - lows
    count_starts = _starts(widths)
    counts = np.bincount(idx + np.repeat(count_starts - lows, sizes), minlength=int(widths.sum()))
    return Composites(idx, counts, homs, _starts(sizes), count_starts)


def precomposition(phi_images: np.ndarray, H: FiniteGroup, G: FiniteGroup, F: FiniteGroup) -> Composites:
    """f |-> f.phi for every f in Hom(G, F), located in Hom(H, F), for phi: H -> G."""
    outer, inner = enumerate_homs(G, F), enumerate_homs(H, F)
    return composites(inner, outer.matrix[:, phi_images[inner.gens]])


def postcomposition(phi_images: np.ndarray, H: FiniteGroup, G: FiniteGroup, F: FiniteGroup) -> Composites:
    """f |-> phi.f for every f in Hom(F, H), located in Hom(F, G), for phi: H -> G."""
    outer, inner = enumerate_homs(F, H), enumerate_homs(F, G)
    return composites(inner, phi_images[outer.matrix[:, inner.gens]])


class EndData:
    """End(X) with the End indices of Aut(X), for the absolute verdicts."""

    def __init__(self, X: FiniteGroup):
        self.homs = enumerate_homs(X, X)
        self.aut = automorphism_group(X)
        self.aut_rows = self.aut.end_rows


def side_profile(homs, gen_images: np.ndarray, phi_idx: np.ndarray, is_aut: np.ndarray,
                 sizes=None, segments=None) -> Composites:
    """The kernel of every absolute verdict: homs ``phi_idx`` composed with the endomorphisms of one side.

    Block b of ``gen_images`` (see ``composites``) holds the generator
    images of hom ``phi_idx[b]`` composed with each endomorphism of its
    side, in End order, and ``is_aut`` marks the composites whose
    endomorphism is an automorphism.
    """
    comp = composites(homs, gen_images, sizes, segments)
    comp.fixers = comp.idx == (phi_idx if sizes is None else np.repeat(phi_idx, sizes))
    comp.galois = comp.fixers & is_aut
    return comp


def galois_group(phi: GroupHom, side: str = "target") -> AutSubgroup:
    """Automorphisms fixing phi: f.phi = phi (target side) or phi.f = phi (source side)."""
    if side not in ("target", "source"):
        raise ValueError("side must be 'target' or 'source'")
    ag = automorphism_group(phi.target if side == "target" else phi.source)
    comp = ag.perms[:, phi.images] if side == "target" else phi.images[ag.perms]
    return AutSubgroup(ag, np.flatnonzero((comp == phi.images[None, :]).all(axis=1)))


def _side_witnesses(prof: Composites, end: EndData, flags, who) -> list:
    """Witnesses for the (pre-approximation, approximation, bijection) flags of one hom."""
    _, flag_approx, flag_bij = flags
    if not prof.surjective[0]:
        data = {"unliftedHom": prof.homs.matrix[prof.first_unhit()].tolist()}
        return [Witness(f, "unlifted-hom", data) for f in flags]
    out = []
    if not prof.approximation[0]:
        bad = int(np.flatnonzero(prof.fixers & ~prof.galois)[0])
        out.append(Witness(flag_approx, "non-automorphism-preimage",
                           {"endomorphism": end.homs.matrix[bad].tolist(), "of": who}))
    dup = prof.first_duplicate_pair()
    if dup is not None:
        i, j = dup
        out.append(Witness(flag_bij, "non-injective-pair",
                           {"first": end.homs.matrix[i].tolist(),
                            "second": end.homs.matrix[j].tolist(), "of": who}))
    return out


def classify_hom(phi: GroupHom) -> ClassificationReport:
    """Full absolute classification of one homomorphism."""
    H, G = phi.source, phi.target
    hom_set = enumerate_homs(H, G)
    end_g, end_h = EndData(G), EndData(H)
    i = np.array([hom_set.index_of(phi.images)])
    gens = hom_set.gens
    # one block per side: target side f |-> f.phi on End(G), source side f |-> phi.f on End(H)
    t = side_profile(hom_set, end_g.homs.matrix[:, phi.images[gens]], i, end_g.aut.end_mask)
    s = side_profile(hom_set, phi.images[end_h.homs.matrix[:, gens]], i, end_h.aut.end_mask)
    flags = {
        "isLocalization": bool(t.bijective[0]),
        "isCellularCover": bool(s.bijective[0]),
        "isEnvelope": bool(t.approximation[0]),
        "isCover": bool(s.approximation[0]),
        "isPreenvelopeOfTargetClass": bool(t.surjective[0]),
        "isPrecoverOfSourceClass": bool(s.surjective[0]),
    }
    witnesses = _side_witnesses(
        t, end_g, ("isPreenvelopeOfTargetClass", "isEnvelope", "isLocalization"), "target"
    ) + _side_witnesses(
        s, end_h, ("isPrecoverOfSourceClass", "isCover", "isCellularCover"), "source"
    )
    gal = AutSubgroup(end_g.aut, np.flatnonzero(t.galois[end_g.aut_rows]))
    cogal = AutSubgroup(end_h.aut, np.flatnonzero(s.galois[end_h.aut_rows]))
    return ClassificationReport(phi, flags, gal, cogal, witnesses)


@dataclass
class RelativeReport:
    """Verdict for one homomorphism against an explicit finite class."""

    hom: GroupHom
    side: str                      # "envelope" | "cover"
    group_class: GroupClass
    in_class: bool                 # target (envelope) or source (cover) lies in the class
    is_preapproximation: bool      # F-preenvelope / F-precover
    is_approximation: bool         # F-envelope / F-cover
    has_unique_liftings: bool
    galois: AutSubgroup            # Gal for envelope side, coGal for cover side
    witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        key = "galois" if self.side == "envelope" else "coGalois"
        return {
            "source": {"name": self.hom.source.name, "order": self.hom.source.order},
            "target": {"name": self.hom.target.name, "order": self.hom.target.order},
            "hom": self.hom.images.tolist(),
            "class": self.group_class.name,
            "side": self.side,
            "flags": {
                "inClass": self.in_class,
                "isPreapproximation": self.is_preapproximation,
                "isApproximation": self.is_approximation,
                "hasUniqueLiftings": self.has_unique_liftings,
            },
            key: {
                "order": self.galois.order,
                "structure": describe_structure(self.galois.as_group()),
            },
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def classify_against_class(phi: GroupHom, cls: GroupClass, side: str) -> RelativeReport:
    """F-(pre)envelope / F-(pre)cover verdict with witnesses."""
    if side not in ("envelope", "cover"):
        raise ValueError("side must be 'envelope' or 'cover'")
    H, G = phi.source, phi.target
    envelope = side == "envelope"
    X = G if envelope else H  # the end that must lie in the class
    witnesses: list = []
    in_class = cls.contains(X)
    surj_all = True
    inj_all = True
    lift = precomposition if envelope else postcomposition
    for rep in cls.members:
        comp = lift(phi.images, H, G, rep)
        if not comp.surjective:
            surj_all = False
            witnesses.append(Witness("isPreapproximation", "unlifted-hom",
                                     {"class_member": rep.name,
                                      "unliftedHom": comp.homs.matrix[comp.first_unhit()].tolist()}))
            break
        inj_all = inj_all and bool(comp.injective)
    pre = in_class and surj_all
    end = enumerate_homs(X, X)
    comp_x = end.matrix[:, phi.images] if envelope else phi.images[end.matrix]
    fixers = np.nonzero((comp_x == phi.images[None, :]).all(axis=1))[0]
    bij = (np.sort(end.matrix[fixers], axis=1) == np.arange(X.order)).all(axis=1)
    approx = pre and bool(bij.all())
    if pre and not bij.all():
        bad = int(fixers[np.nonzero(~bij)[0][0]])
        witnesses.append(Witness("isApproximation", "non-automorphism-preimage",
                                 {"endomorphism": end.matrix[bad].tolist()}))
    unique = approx and surj_all and inj_all
    gal = galois_group(phi, "target" if envelope else "source")
    return RelativeReport(phi, side, cls, in_class, pre, approx, unique, gal, witnesses)


def f_socle(G: FiniteGroup, cls: GroupClass) -> Subgroup:
    """Normal subgroup generated by all images of homs from class members.

    Each member's part, the normal closure of its hom images, is memoized on
    the member, keyed by G; several members' parts generate the socle.
    """
    parts = [_image_closure(rep, G) for rep in cls.members]
    if len(parts) == 1:
        return parts[0]
    return subgroup_generated(G, np.concatenate([p.members for p in parts]), normal=True)


def _image_closure(F: FiniteGroup, G: FiniteGroup) -> Subgroup:
    """Normal closure of the images of all homs F -> G; memoized on F.

    A hom's image is generated by its images of the source generators.
    """
    hs = enumerate_homs(F, G)  # outside the memo: perfbench pins the enumerate_homs calls
    return F.memo(("image_closure", G),
                  lambda: subgroup_generated(G, hs.matrix[:, hs.gens].ravel(), normal=True))


def f_radical(G: FiniteGroup, cls: GroupClass):
    """Iterated socle-of-quotient chain; returns (radical, epireflection projection)."""
    T = f_socle(G, cls)
    while True:
        Q, pi = quotient_group(G, T)
        S = f_socle(Q, cls)
        if S.is_trivial:
            return T, pi
        pre = preimage_subgroup(pi, S)
        if pre.same_members(T):
            return T, pi
        T = pre


def is_orthogonal(g: GroupHom, cls: GroupClass) -> bool:
    """g in the left-orthogonal class of F: precomposition bijects hom-sets."""
    return all(precomposition(g.images, g.source, g.target, rep).bijective for rep in cls.members)


def local_kernel(H: FiniteGroup, cls: GroupClass) -> Subgroup:
    """Intersection of all kernels of homs from H into class members.

    This is the kernel of the epireflection onto the largest quotient of H
    all of whose maps into the class factor uniquely: a surjection onto a
    class member is an F-preenvelope exactly when its kernel equals this
    intersection (the radical-envelope suite checks that law).
    """
    parts = [_common_kernel(H, rep) for rep in cls.members]
    if len(parts) == 1:
        return parts[0]
    return Subgroup(H, np.flatnonzero(np.logical_and.reduce([p._member_mask for p in parts])))


def _common_kernel(H: FiniteGroup, F: FiniteGroup) -> Subgroup:
    """Intersection of the kernels of all homs H -> F; memoized on H."""
    hs = enumerate_homs(H, F)  # outside the memo, as in _image_closure
    return H.memo(("common_kernel", F),
                  lambda: Subgroup(H, np.flatnonzero((hs.matrix == F.identity).all(axis=0))))


def image_factorize(phi: GroupHom):
    """Split phi into an epi onto its image and the inclusion of the image."""
    H, G = phi.source, phi.target
    img = phi.image_subgroup()
    img_group = img.as_group(name=f"Im({H.name}->{G.name})")
    pos = np.full(G.order, -1, dtype=np.int32)
    pos[img.members] = np.arange(img.order, dtype=np.int32)
    epi = GroupHom(H, img_group, pos[phi.images], check=False)
    mono = GroupHom(img_group, G, img.members.copy(), check=False)
    return epi, mono


def homs_equal_up_to_target_iso(phi1: GroupHom, phi2: GroupHom) -> bool:
    """Exists an automorphism a of the common target with a.phi1 = phi2."""
    if phi1.source is not phi2.source or phi1.target is not phi2.target:
        return False
    ag = automorphism_group(phi1.target)
    comp = ag.perms[:, phi1.images]
    return bool((comp == phi2.images[None, :]).all(axis=1).any())
