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
from .homs import _BATCH, AutGroup, AutSubgroup, HomSet, _gen_array, automorphism_group, enumerate_homs, key_groups

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
    Each composite is a member of ``homs``, named by its ``keys`` entry (``HomSet.key_of``), and
    equal homs have equal keys, so composition is onto when the ``distinct`` keys are as many as
    the homs, and one-to-one when they are as many as the rows."""

    rows: np.ndarray
    homs: HomSet

    @functools.cached_property
    def keys(self) -> np.ndarray:
        return self.homs.key_of(self.rows)

    @functools.cached_property
    def distinct(self) -> int:
        keys = np.sort(self.keys)
        return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))

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
        """(i, j): the smallest j whose composite equals an earlier one, and the first index i
        of that composite (not injective).  For composites A B B A this is (1, 2)."""
        keys = self.keys
        order = keys.argsort(kind="stable")
        j = int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())
        return int(np.argmax(keys == keys[j])), j


def precomposition(phi_images: np.ndarray, H: FiniteGroup, G: FiniteGroup, F: FiniteGroup) -> Composites:
    """f |-> f.phi for every f in Hom(G, F), as composites in Hom(H, F), for phi: H -> G."""
    outer, inner = enumerate_homs(G, F), enumerate_homs(H, F)
    return Composites(outer.matrix[:, phi_images[inner.gens]], inner)


def postcomposition(phi_images: np.ndarray, H: FiniteGroup, G: FiniteGroup, F: FiniteGroup) -> Composites:
    """f |-> phi.f for every f in Hom(F, H), as composites in Hom(F, G), for phi: H -> G."""
    outer, inner = enumerate_homs(F, H), enumerate_homs(F, G)
    return Composites(phi_images[outer.matrix[:, inner.gens]], inner)


def _side_composites(phi: np.ndarray, hom_set: HomSet, aut: AutGroup, side: str) -> Composites:
    """The composites in ``hom_set`` = Hom(H, G) of its hom with images ``phi`` and each
    endomorphism of ``aut.ends``: f.phi for f in End(G), with rows End(G) at phi's images of
    the generators of H (target side), or phi.f for f in End(H), with rows phi at End(H)'s
    images of those generators, memoized on H (source side)."""
    gens = hom_set.gens
    if side == "target":
        return Composites(aut.ends.matrix[:, phi[gens]], hom_set)
    return Composites(phi[hom_set.source.memo("end_gen_images", lambda: aut.ends.matrix[:, gens])], hom_set)


def _counts(aut: AutGroup, comp: Composites, key) -> tuple:
    """(distinct, fixers, galois): the distinct composites of ``comp``, one per endomorphism in
    ``aut.ends``, the composites with hom key ``key``, and those of them from automorphisms."""
    fixers = comp.keys == key
    return comp.distinct, int(fixers.sum()), int((fixers & aut.end_mask).sum())


def _per_key(keys: np.ndarray, counts, tags=None) -> list:
    """``counts(key, i)`` for each row of ``keys``, called once per ``key_groups`` group (with ``tags``),
    with ``key`` its bytes and i its first row: an int array per entry of its tuples, one per row."""
    firsts, inverse = key_groups(keys, tags)
    per_key = np.array([counts(keys[i].tobytes(), i) for i in firsts.tolist()], dtype=np.int_)
    return [column[inverse] for column in per_key.T]


def side_counts(keys: np.ndarray, runs, starts: list, aut_h: AutGroup, side: str) -> list:
    """The counts (distinct, fixers, galois) of one side's composites, for each hom phi: H -> G
    of ``runs`` (``run_flags``), with ``keys`` their image keys (target side) or kernel keys
    (source side), ``starts`` the first row of each run and H = ``aut_h.base``.

    The target side counts f.phi for f in End(G), the source side phi.f
    for f in End(H) (``_side_composites``).  Both are composites in phi's
    own Hom(H, G), counted by their hom keys, and phi's fixers are those
    with phi's key.  With K = Im phi, f.phi = g.phi exactly when f and g
    agree on K, since H -> K is onto; with N = ker phi, phi.f = phi.g
    exactly when f and g agree modulo N.  So the target counts depend on
    phi only through K and are memoized on G, keyed by the packed member
    mask of K, the image key cut to |G| bits: the bits past |G| are zero,
    so every source and ``classify_hom`` share the entries, and homs of
    different runs with equal keys are counted apart.  The source counts
    depend on phi only through N and are memoized on H, keyed by the
    packed mask of N, for all to share.
    """
    tags = np.repeat(np.arange(len(runs), dtype=np.min_scalar_type(len(runs))), np.diff(starts))

    def counts(key, i):
        t = int(tags[i])
        rows, hom_set, aut_g = runs[t]
        phi, aut = rows[i - starts[t]], aut_g if side == "target" else aut_h

        def compute():
            return _counts(aut, _side_composites(phi, hom_set, aut, side), hom_set.key_of(phi[hom_set.gens]))

        if side == "target":
            return aut_g.base.memo(("image_counts", key[:-(-aut_g.base.order // 8)]), compute)
        return aut_h.base.memo(("kernel_counts", key), compute)

    return _per_key(keys, counts, tags if side == "target" else None)


def image_masks(rows: np.ndarray, width: int) -> np.ndarray:
    """The packed member mask, ``width`` bits wide, of the set of entries of each row."""
    hit = np.zeros((len(rows), width), dtype=bool)
    hit[np.arange(len(rows))[:, None], rows] = True
    return np.packbits(hit, axis=1)


def run_flags(aut_h: AutGroup, runs) -> tuple:
    """(target, source): the ``side_flags`` of f |-> f.phi on End(G) and of f |-> phi.f on End(H),
    for each hom phi of ``runs``, a list of (rows, hom_set, aut_g) whose rows are homs of
    hom_set = Hom(H, G), from H = ``aut_h.base`` to G = aut_g.base, taken end to end.

    One count pass over per-row arrays (``side_counts``): a hom's image key
    is its packed image mask (``image_masks``) padded to the largest G, and
    its kernel key its packed kernel mask, built in blocks of at most
    ``_BATCH`` rows that may span runs, so that only the keys hold every hom.
    """
    sizes = [len(rows) for rows, *_ in runs]
    starts = np.cumsum([0, *sizes]).tolist()
    n, width, e = starts[-1], max(aut.base.order for *_, aut in runs), aut_h.base.identity
    image = np.empty((n, -(-width // 8)), dtype=np.uint8)
    kernel = np.empty((n, -(-aut_h.base.order // 8)), dtype=np.uint8)
    for lo in range(0, n, _BATCH):
        hi = min(lo + _BATCH, n)
        block = np.concatenate([rows[max(lo, a) - a:hi - a]
                                for (rows, *_), a, b in zip(runs, starts, starts[1:]) if a < hi and b > lo])
        image[lo:hi] = image_masks(block, width)
        kernel[lo:hi] = np.packbits(block == block[:, e, None], axis=1)  # phi sends e to the identity
        del block  # else it lives on while the next block is built, and raises the peak
    homs = np.repeat([len(hs) for _, hs, _ in runs], sizes)
    ends = np.repeat([len(aut.ends) for *_, aut in runs], sizes)
    return (side_flags(side_counts(image, runs, starts, aut_h, "target"), homs, ends),
            side_flags(side_counts(kernel, runs, starts, aut_h, "source"), homs, len(aut_h.ends)))


def side_flags(counts, homs, ends) -> tuple:
    """(pre-approximation, approximation, bijection, Galois order) from the counts of one side,
    with ``homs`` = |Hom(H, G)| and ``ends`` the size of that side's End, or one of each per row.

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


def _side_witnesses(phi: GroupHom, hom_set: HomSet, aut: AutGroup, flags, names, who) -> list:
    """Witnesses of the false flags among (pre-approximation, approximation, bijection) of phi,
    a hom of ``hom_set``, on side ``who`` of its composites with the endomorphisms ``aut.ends``."""
    pre, approx, bij = flags
    if bij:  # only the identity fixes a hom that composition is one-to-one on
        return []
    comp = _side_composites(phi.images, hom_set, aut, who)
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
    """Full absolute classification of one homomorphism, as a ``run_flags`` of one hom."""
    H, G = phi.source, phi.target
    hom_set = enumerate_homs(H, G)
    aut_g, aut_h = automorphism_group(G), automorphism_group(H)
    t, s = run_flags(aut_h, [(phi.images[None, :], hom_set, aut_g)])
    # target side f |-> f.phi on End(G), source side f |-> phi.f on End(H)
    sides = (
        ("target", t, aut_g, ("isPreenvelopeOfTargetClass", "isEnvelope", "isLocalization")),
        ("source", s, aut_h, ("isPrecoverOfSourceClass", "isCover", "isCellularCover")),
    )
    flags, witnesses = {}, []
    for who, side_f, aut, names in sides:
        side = tuple(bool(f[0]) for f in side_f[:3])
        flags.update(zip(names, side))
        witnesses += _side_witnesses(phi, hom_set, aut, side, names, who)
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

