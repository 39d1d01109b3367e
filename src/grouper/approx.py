"""Classification of homomorphisms as localizations, cellular covers,
envelopes, and covers, absolutely and relative to a finite class of groups.

Absolute envelope/cover verdicts use the singleton-class characterization:
a map is an envelope iff precomposition End(G) -> Hom(H, G) is surjective
and every endomorphism fixing the map is an automorphism (dually for
covers).  Every false flag carries the first witness in canonical hom
order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
from .homs import (_BATCH, AutGroup, AutSubgroup, HomSet, _gen_array, automorphism_group, enumerate_homs,
                   first_per_key, key_order)

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


def _structure(gal: AutSubgroup) -> str:
    """``describe_structure`` of a subgroup of Aut(G), memoized on G by its members."""
    return gal.aut.base.memo(("structure", gal.members.tobytes()), lambda: describe_structure(gal.as_group()))


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
                "structure": _structure(self.galois),
            },
            "coGalois": {
                "order": self.co_galois.order,
                "structure": _structure(self.co_galois),
            },
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


@dataclass
class Composites:
    """Composites in the hom set ``homs``, row j of ``rows`` holding composite j's images of ``homs.gens``.
    Homs with equal such images are equal, so composition is onto when the ``distinct`` rows
    are as many as the homs, and one-to-one when they are as many as the rows."""

    rows: np.ndarray
    homs: HomSet

    @functools.cached_property
    def distinct(self) -> int:
        return len(first_per_key(self.rows))

    @property
    def surjective(self) -> bool:
        return self.distinct == len(self.homs)

    @property
    def injective(self) -> bool:
        return self.distinct == len(self.rows)

    @property
    def bijective(self) -> bool:
        return self.surjective and self.injective

    def first_unhit(self) -> int:
        """Lowest hom index that no composite reaches (not surjective)."""
        hit = np.zeros(len(self.homs), dtype=bool)
        hit[self.homs.locate(self.rows)] = True
        return int(np.argmin(hit))

    def first_duplicate_pair(self) -> tuple:
        """Smallest (i, j), i < j, with equal composites (not injective)."""
        order, first = key_order(self.rows)
        j = int(order[~first].min())
        return int(np.argmax((self.rows == self.rows[j]).all(axis=1))), j


def precomposition(phi_images: np.ndarray, H: FiniteGroup, G: FiniteGroup, F: FiniteGroup) -> Composites:
    """f |-> f.phi for every f in Hom(G, F), as composites in Hom(H, F), for phi: H -> G."""
    outer, inner = enumerate_homs(G, F), enumerate_homs(H, F)
    return Composites(outer.matrix[:, phi_images[inner.gens]], inner)


def postcomposition(phi_images: np.ndarray, H: FiniteGroup, G: FiniteGroup, F: FiniteGroup) -> Composites:
    """f |-> phi.f for every f in Hom(F, H), as composites in Hom(F, G), for phi: H -> G."""
    outer, inner = enumerate_homs(F, H), enumerate_homs(F, G)
    return Composites(phi_images[outer.matrix[:, inner.gens]], inner)


def _counts(aut: AutGroup, rows: np.ndarray, fixed: np.ndarray) -> tuple:
    """(distinct, fixers, galois): the distinct rows of ``rows``, one per endomorphism in
    ``aut.ends``, the rows equal to ``fixed``, and those of them that belong to automorphisms."""
    fixers = (rows == fixed).all(axis=1)
    return len(first_per_key(rows)), int(fixers.sum()), int((fixers & aut.end_mask).sum())


def _kernel_counts(aut_h: AutGroup, kernel: np.ndarray) -> tuple:
    """``_counts`` of phi.f for f in End(H), for the homs phi with the kernel mask ``kernel``.

    phi.f = phi.g exactly when f and g agree modulo N = ker phi, so the
    rows are End(H)'s images of the generators of H, each replaced by the
    least member of its coset xN.
    """
    H, gens = aut_h.base, aut_h.ends.gens
    label = H.table[:, np.flatnonzero(kernel)].min(axis=1)
    ends = H.memo("end_gen_images", lambda: aut_h.ends.matrix[:, gens])
    return _counts(aut_h, label[ends], label[gens])


def _per_key(keys: np.ndarray, counts) -> list:
    """``counts(key, i)`` for each row of ``keys``, called once per distinct row, with ``key``
    its bytes and i its first row: an int array per entry of its tuples, one entry per row."""
    order, first = key_order(keys)
    inverse = np.empty_like(order)
    inverse[order] = first.cumsum() - 1
    per_key = np.array([counts(keys[i].tobytes(), i) for i in order[first].tolist()], dtype=np.int_)
    return [column[inverse] for column in per_key.T]


def _packed(rows: np.ndarray, mask) -> np.ndarray:
    """The bool rows ``mask(block)`` of each block of ``_BATCH`` rows, packed to bits; a block at
    a time bounds the temporaries."""
    return np.concatenate([np.packbits(mask(rows[lo:lo + _BATCH]), axis=1) for lo in range(0, len(rows), _BATCH)])


def kernel_keys(rows: np.ndarray, identity: int) -> np.ndarray:
    """The packed kernel mask of each hom of ``rows``, whose target has the identity ``identity``."""
    return _packed(rows, lambda block: block == identity)


def image_counts(rows: np.ndarray, aut_g: AutGroup, gens: np.ndarray) -> list:
    """The counts (distinct, fixers, galois) of f |-> f.phi on End(G), for each hom phi: H -> G
    of ``rows``, with ``gens`` the generators of H.

    With K = Im phi, f.phi = g.phi exactly when f and g agree on K, since
    H -> K is onto.  So the composites are counted by the distinct rows of
    End(G) at phi's images of ``gens``, which generate K, and the fixers
    are the f that fix those images.  The counts depend on phi only
    through K: they are memoized on G, keyed by the packed member mask of
    K, for every source to share.
    """
    G = aut_g.base

    def hit(block):
        mask = np.zeros((len(block), G.order), dtype=bool)
        mask[np.arange(len(block))[:, None], block] = True
        return mask

    def counts(key, i):
        def compute():
            images = rows[i, gens]
            return _counts(aut_g, aut_g.ends.matrix[:, images], images)

        return G.memo(("image_counts", key), compute)

    return _per_key(_packed(rows, hit), counts)


def kernel_counts(keys: np.ndarray, aut_h: AutGroup) -> list:
    """The counts (distinct, fixers, galois) of f |-> phi.f on End(H), for each hom phi from H
    with the packed kernel mask of that row of ``keys`` (``kernel_keys``).

    With N = ker phi, phi.f = phi.g exactly when f and g agree modulo N
    (``_kernel_counts``).  The counts depend on phi only through N: they
    are memoized on H, keyed by the packed mask of N, for every target to
    share.
    """
    H = aut_h.base

    def counts(key, i):
        kernel = np.unpackbits(keys[i], count=H.order).astype(bool)
        return H.memo(("kernel_counts", key), lambda: _kernel_counts(aut_h, kernel))

    return _per_key(keys, counts)


def side_flags(counts, homs: int, ends: int) -> tuple:
    """(pre-approximation, approximation, bijection, Galois order) from the counts of one side,
    with ``homs`` = |Hom(H, G)| and ``ends`` the size of that side's End.

    Composition with End is onto Hom(H, G) when its ``distinct`` composites
    are all of Hom(H, G), and one-to-one when there are as many as
    endomorphisms; an approximation is onto and all of its fixers are
    automorphisms.
    """
    distinct, fixers, galois = counts
    pre = distinct == homs
    return pre, pre & (fixers == galois), pre & (distinct == ends), galois


def _fixers(phi: GroupHom, ends: np.ndarray, side: str) -> np.ndarray:
    """Mask of the endomorphisms f, rows of ``ends``, with f.phi = phi (target side) or
    phi.f = phi (source side).  Both are homs from the source, so they are compared on its
    generators ``_gen_array``, whose images fix a hom."""
    gens = _gen_array(phi.source)
    comp = ends[:, phi.images[gens]] if side == "target" else phi.images[ends[:, gens]]
    return (comp == phi.images[gens]).all(axis=1)


def galois_group(phi: GroupHom, side: str = "target") -> AutSubgroup:
    """Automorphisms fixing phi: f.phi = phi (target side) or phi.f = phi (source side)."""
    if side not in ("target", "source"):
        raise ValueError("side must be 'target' or 'source'")
    ag = automorphism_group(phi.target if side == "target" else phi.source)
    return AutSubgroup(ag, np.flatnonzero(_fixers(phi, ag.perms, side)))


def _non_automorphism_fixer(phi: GroupHom, aut: AutGroup, side: str):
    """End index of the first endomorphism fixing phi on ``side`` that is no automorphism, or None."""
    bad = _fixers(phi, aut.ends.matrix, side) & ~aut.end_mask
    return int(np.argmax(bad)) if bad.any() else None


def _side_witnesses(phi: GroupHom, hom_set: HomSet, aut: AutGroup, gen_images, flags, names, who) -> list:
    """Witnesses of the false flags among (pre-approximation, approximation, bijection) of phi,
    a hom of ``hom_set``, whose composites with the endomorphisms ``aut.ends`` have ``gen_images``."""
    pre, approx, bij = flags
    if bij:  # only the identity fixes a hom that composition is one-to-one on
        return []
    comp = Composites(gen_images, hom_set)
    if not pre:
        data = {"unliftedHom": hom_set.matrix[comp.first_unhit()].tolist()}
        return [Witness(f, "unlifted-hom", data) for f in names]
    out = []
    if not approx:
        bad = _non_automorphism_fixer(phi, aut, who)
        out.append(Witness(names[1], "non-automorphism-preimage",
                           {"endomorphism": aut.ends.matrix[bad].tolist(), "of": who}))
    a, b = comp.first_duplicate_pair()
    out.append(Witness(names[2], "non-injective-pair",
                       {"first": aut.ends.matrix[a].tolist(), "second": aut.ends.matrix[b].tolist(), "of": who}))
    return out


def classify_hom(phi: GroupHom) -> ClassificationReport:
    """Full absolute classification of one homomorphism, from ``image_counts`` and ``kernel_counts``."""
    H, G = phi.source, phi.target
    hom_set = enumerate_homs(H, G)
    aut_g, aut_h = automorphism_group(G), automorphism_group(H)
    gens = hom_set.gens
    t = image_counts(phi.images[None, :], aut_g, gens)
    s = kernel_counts(kernel_keys(phi.images[None, :], G.identity), aut_h)
    # target side f |-> f.phi on End(G), source side f |-> phi.f on End(H)
    sides = (
        ("target", t, aut_g, aut_g.ends.matrix[:, phi.images[gens]],
         ("isPreenvelopeOfTargetClass", "isEnvelope", "isLocalization")),
        ("source", s, aut_h, phi.images[aut_h.ends.matrix[:, gens]],
         ("isPrecoverOfSourceClass", "isCover", "isCellularCover")),
    )
    flags, witnesses = {}, []
    for who, counts, aut, gen_images, names in sides:
        side = tuple(bool(f) for f in side_flags(counts, len(hom_set), len(aut.ends))[:3])
        flags.update(zip(names, side))
        witnesses += _side_witnesses(phi, hom_set, aut, gen_images, side, names, who)
    return ClassificationReport(phi, flags, galois_group(phi, "target"), galois_group(phi, "source"),
                                witnesses)


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
                "structure": _structure(self.galois),
            },
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def classify_against_class(phi: GroupHom, cls: GroupClass, side: str) -> RelativeReport:
    """F-(pre)envelope / F-(pre)cover verdict with witnesses."""
    if side not in ("envelope", "cover"):
        raise ValueError("side must be 'envelope' or 'cover'")
    H, G = phi.source, phi.target
    # X is the end that must lie in the class, and the side on which its endomorphisms fix phi
    X, fixed_on, lift = (G, "target", precomposition) if side == "envelope" else (H, "source", postcomposition)
    witnesses: list = []
    in_class = cls.contains(X)
    inj_all = True
    for rep in cls.members:
        comp = lift(phi.images, H, G, rep)
        if not comp.surjective:
            witnesses.append(Witness("isPreapproximation", "unlifted-hom",
                                     {"class_member": rep.name,
                                      "unliftedHom": comp.homs.matrix[comp.first_unhit()].tolist()}))
            break
        inj_all = inj_all and comp.injective
    pre = in_class and not witnesses  # every member's homs lift
    aut = automorphism_group(X)
    bad = _non_automorphism_fixer(phi, aut, fixed_on) if pre else None
    if bad is not None:
        witnesses.append(Witness("isApproximation", "non-automorphism-preimage",
                                 {"endomorphism": aut.ends.matrix[bad].tolist()}))
    approx = pre and bad is None
    return RelativeReport(phi, side, cls, in_class, pre, approx, approx and inj_all, galois_group(phi, fixed_on),
                          witnesses)


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

