"""Command-line front end.

Groups are given either as inline spec text (family descriptors such as
``cyclic:4``, or cycle-notation generators separated by ``;``) or as paths
to spec files.  Homomorphisms are given as files listing target element
indices: either one per source element, or one per source generator.

Exit codes: 0 success, 1 failed ``--assert``, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .approx import (
    GroupClass,
    classify_against_class,
    classify_hom,
    f_radical,
    f_socle,
    galois_group,
    is_orthogonal,
)
from .corpus import CORPUS_CAP, SUITE_IDS, generate_corpus, run_theorem_suite, search_approximations
from .errors import (
    GrouperError,
    InvalidOption,
    MalformedHom,
    MissingFile,
    NoInjectiveHom,
    OrderCapExceeded,
    UnknownAssertFlag,
    UnknownFormat,
    UnreadableInput,
)
from .groups import FiniteGroup, GroupHom, describe_structure
from .homs import _Walk, _gen_array, enumerate_homs
from .simple import simple_envelope_criterion, structural_flags
from .specs import parse_group_spec


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; a file that cannot be read or decoded is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise MissingFile(str(exc))
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}")


def _load_group(arg: str) -> FiniteGroup:
    text = _read_text(arg) if os.path.exists(arg) else arg.replace(";", "\n")
    return parse_group_spec(text).build()


def _load_hom(path: str, H: FiniteGroup, G: FiniteGroup) -> GroupHom:
    toks = _read_text(path).replace(",", " ").split()
    try:
        values = [int(t) for t in toks]
    except ValueError:
        raise MalformedHom(f"hom file {path} must contain integers")
    gens = _gen_array(H)
    if len(values) not in (H.order, len(gens)):
        raise MalformedHom(
            f"hom file {path} has {len(values)} entries; expected {H.order} "
            f"(full map) or {len(gens)} (generator images)"
        )
    if min(values) < 0 or max(values) >= G.order:
        raise MalformedHom(f"hom file {path} contains out-of-range elements")
    images = np.array(values, dtype=np.int32)
    if len(values) != H.order:  # generator images: the homs of a walk of that one candidate
        walk = _Walk(H, [G], [[images[i:i + 1] for i in range(len(images))]])
        rows = walk.homs(*walk.survivors(0))[1]
        if not len(rows):
            raise MalformedHom(f"hom file {path}: map is not multiplicative")
        images = rows[0]
    try:
        return GroupHom(H, G, images)
    except ValueError as exc:
        raise MalformedHom(f"hom file {path}: {exc}")


def _parse_class(spec: str) -> GroupClass:
    members = [_load_group(part) for part in spec.split(",") if part]
    return GroupClass(spec, members)


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif fmt == "text":
        for line in text_lines:
            print(line)
    else:
        raise UnknownFormat(f"unknown format {fmt!r}")


def _flag_lines(d: dict, prefix=""):
    return [f"{prefix}{k}: {str(v).lower()}" for k, v in sorted(d.items())]


def _cmd_group(args) -> int:
    G = _load_group(args.spec)
    payload = {
        "name": G.name,
        "order": G.order,
        "abelian": G.is_abelian,
        "structure": describe_structure(G),
        "generators": G.generators,
        "elementOrders": G.element_orders.tolist(),
    }
    lines = [f"name: {payload['name']}", f"order: {payload['order']}",
             f"structure: {payload['structure']}", f"abelian: {str(G.is_abelian).lower()}"]
    if args.flags:
        flags = structural_flags(G)
        payload.update(flags)
        lines += _flag_lines(flags)
    _emit(payload, args.format, lines)
    return 0


def _cmd_homs(args) -> int:
    H, G = _load_group(args.source), _load_group(args.target)
    hs = enumerate_homs(H, G)
    payload = {
        "source": {"name": H.name, "order": H.order},
        "target": {"name": G.name, "order": G.order},
        "count": len(hs),
        "homs": hs.matrix.tolist(),
    }
    lines = [f"hom-count: {len(hs)}"] + [" ".join(str(x) for x in row) for row in hs.matrix]
    _emit(payload, args.format, lines)
    return 0


def _report_lines(rep_dict: dict):
    lines = [
        f"source: {rep_dict['source']['name']} (order {rep_dict['source']['order']})",
        f"target: {rep_dict['target']['name']} (order {rep_dict['target']['order']})",
        "hom: " + " ".join(str(x) for x in rep_dict["hom"]),
    ]
    lines += _flag_lines(rep_dict["flags"], prefix="  ")
    for key in ("galois", "coGalois"):
        if key in rep_dict:
            lines.append(f"{key}: order {rep_dict[key]['order']} ({rep_dict[key]['structure']})")
    for w in rep_dict.get("witnesses", []):
        lines.append(f"witness[{w['flag']}]: {w['kind']} {w['data']}")
    return lines


# the flags `--assert` may name, per command; they are the keys of each report's "flags"
HOM_FLAGS = ("isCellularCover", "isCover", "isEnvelope", "isLocalization",
             "isPrecoverOfSourceClass", "isPreenvelopeOfTargetClass")
RELATIVE_FLAGS = ("hasUniqueLiftings", "inClass", "isApproximation", "isPreapproximation")
CRITERION_FLAGS = ("agrees", "conditionsHold")


def _known_assert_flags(wanted, known):
    """Reject an unknown `--assert` name before anything is computed or printed."""
    for name in wanted or ():
        if name not in known:
            raise UnknownAssertFlag(
                f"unknown flag {name!r} in --assert; known: {', '.join(known)}")


def _check_assert(flags: dict, wanted, fmt) -> int:
    if not wanted:
        return 0
    for name in wanted:
        if not flags[name]:
            if fmt == "text":
                print(f"assert-failed: {name}")
            return 1
    return 0


def _cmd_classify(args) -> int:
    _known_assert_flags(args.assert_flags, RELATIVE_FLAGS if args.group_class else HOM_FLAGS)
    H, G = _load_group(args.source), _load_group(args.target)
    if args.group_class:
        cls = _parse_class(args.group_class)
        if args.hom:
            homs = [_load_hom(args.hom, H, G)]
        else:
            homs = enumerate_homs(H, G).homs
        reports = [classify_against_class(phi, cls, args.side) for phi in homs]
    elif args.hom:
        reports = [classify_hom(_load_hom(args.hom, H, G))]
    else:
        reports = [classify_hom(phi) for phi in enumerate_homs(H, G).homs]
    dicts = [r.to_dict() for r in reports]
    payload = {"reports": dicts} if len(dicts) > 1 else dicts[0]
    lines = []
    for d in dicts:
        lines += _report_lines(d) + [""]
    _emit(payload, args.format, lines)
    status = 0
    for d in dicts:
        status = max(status, _check_assert(d["flags"], args.assert_flags, args.format))
    return status


def _given_or_first_injective_hom(args) -> GroupHom:
    """The hom of `--hom`, or else the first injective hom source -> target."""
    H, G = _load_group(args.source), _load_group(args.target)
    if args.hom:
        return _load_hom(args.hom, H, G)
    hs = enumerate_homs(H, G)
    injective = np.flatnonzero(hs.injective())
    if injective.size:
        return GroupHom(H, G, hs.matrix[injective[0]], check=False)
    raise NoInjectiveHom(f"no injective hom {H.name} -> {G.name}; give --hom")


def _cmd_galois(args) -> int:
    phi = _given_or_first_injective_hom(args)
    sub = galois_group(phi, args.side)
    payload = {
        "side": args.side,
        "hom": phi.images.tolist(),
        "order": sub.order,
        "structure": describe_structure(sub.as_group()),
    }
    _emit(payload, args.format,
          [f"side: {args.side}", f"order: {sub.order}", f"structure: {payload['structure']}"])
    return 0


def _cmd_socle(args) -> int:
    G = _load_group(args.group)
    cls = _parse_class(args.group_class)
    sub = f_socle(G, cls)
    payload = {
        "group": G.name,
        "class": cls.name,
        "order": sub.order,
        "members": sub.members.tolist(),
        "structure": describe_structure(sub.as_group()),
    }
    _emit(payload, args.format,
          [f"socle-order: {sub.order}", f"structure: {payload['structure']}",
           "members: " + " ".join(str(x) for x in sub.members)])
    return 0


def _cmd_radical(args) -> int:
    G = _load_group(args.group)
    cls = _parse_class(args.group_class)
    sub, pi = f_radical(G, cls)
    payload = {
        "group": G.name,
        "class": cls.name,
        "order": sub.order,
        "members": sub.members.tolist(),
        "quotientOrder": pi.target.order,
        "epireflection": pi.images.tolist(),
    }
    _emit(payload, args.format,
          [f"radical-order: {sub.order}", f"quotient-order: {pi.target.order}",
           "members: " + " ".join(str(x) for x in sub.members)])
    return 0


def _cmd_orthogonal(args) -> int:
    H, G = _load_group(args.source), _load_group(args.target)
    phi = _load_hom(args.hom, H, G)
    cls = _parse_class(args.group_class)
    ok = is_orthogonal(phi, cls)
    payload = {"hom": phi.images.tolist(), "class": cls.name, "orthogonal": ok}
    _emit(payload, args.format, [f"orthogonal: {str(ok).lower()}"])
    if args.assert_flags:
        return _check_assert({"orthogonal": ok}, ["orthogonal"], args.format)
    return 0


def _cmd_simple_criterion(args) -> int:
    _known_assert_flags(args.assert_flags, CRITERION_FLAGS)
    phi = _given_or_first_injective_hom(args)
    rep = simple_envelope_criterion(phi, cross_check=not args.no_cross_check)
    d = rep.to_dict()
    lines = [f"{k}: {d[k]}" for k in sorted(d) if k not in ("hom", "witnesses")]
    _emit(d, args.format, lines)
    if args.assert_flags:
        flags = {
            "conditionsHold": rep.conditions_hold,
            "agrees": bool(rep.agrees),
        }
        return _check_assert(flags, args.assert_flags, args.format)
    return 0


def _cmd_verify(args) -> int:
    if not 1 <= args.max_order <= CORPUS_CAP:
        raise OrderCapExceeded(f"--max-order must be between 1 and {CORPUS_CAP}, got {args.max_order}")
    if args.jobs < 1:
        raise InvalidOption(f"--jobs must be at least 1, got {args.jobs}")
    corpus = generate_corpus(args.max_order)
    report = run_theorem_suite(corpus, args.suite, max_order=args.max_order, jobs=args.jobs)
    payload = report.to_dict()
    lines = [
        f"suite: {report.suite}",
        f"max-order: {report.max_order}",
        f"pairs-examined: {report.pairs_examined}",
        f"homs-classified: {report.homs_classified}",
        f"violations: {len(report.violations)}",
        f"skipped: {len(report.skipped)}",
        f"notes: {len(report.notes)}",
    ]
    for v in report.violations:
        lines.append(f"violation: {v}")
    for s in report.skipped:
        lines.append(f"skip: {s['pair']} ({s['reason']})")
    _emit(payload, args.format, lines)
    if args.assert_flags and report.violations:
        return 1
    return 0


def _cmd_search(args) -> int:
    H, G = _load_group(args.source), _load_group(args.target)
    found = search_approximations(H, G, args.kind, injective_only=args.injective)
    payload = {
        "source": {"name": H.name, "order": H.order},
        "target": {"name": G.name, "order": G.order},
        "kind": args.kind,
        "count": len(found),
        "homs": [h.images.tolist() for h in found],
    }
    lines = [f"kind: {args.kind}", f"count: {len(found)}"]
    lines += [" ".join(str(x) for x in h.images) for h in found]
    _emit(payload, args.format, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="grouper",
        description="finite-group approximation toolkit: envelopes, covers, "
        "localizations, cellular covers, and theorem suites",
    )
    p.add_argument("--version", action="version", version=f"grouper {__version__}")
    p.add_argument("--format", choices=["text", "json"], default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", help="parse and describe a group spec")
    sp.add_argument("spec")
    sp.add_argument("--flags", action="store_true", help="include simple/perfect/complete")
    sp.set_defaults(func=_cmd_group)

    sp = sub.add_parser("homs", help="enumerate Hom(H, G)")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.set_defaults(func=_cmd_homs)

    sp = sub.add_parser("classify", help="classify homomorphisms")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--hom", default=None, help="hom file (full map or generator images)")
    sp.add_argument("--class", dest="group_class", default=None,
                    help="comma-separated class members for relative classification")
    sp.add_argument("--side", choices=["envelope", "cover"], default="envelope")
    sp.add_argument("--assert", dest="assert_flags", nargs="+", default=None,
                    metavar="FLAG", help="exit 1 unless these flags are true")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("galois", help="Galois or co-Galois group of a hom")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--hom", default=None)
    sp.add_argument("--side", choices=["target", "source"], default="target")
    sp.set_defaults(func=_cmd_galois)

    sp = sub.add_parser("socle", help="class socle of a group")
    sp.add_argument("group")
    sp.add_argument("--class", dest="group_class", required=True)
    sp.set_defaults(func=_cmd_socle)

    sp = sub.add_parser("radical", help="class radical and epireflection")
    sp.add_argument("group")
    sp.add_argument("--class", dest="group_class", required=True)
    sp.set_defaults(func=_cmd_radical)

    sp = sub.add_parser("orthogonal", help="is a hom left-orthogonal to a class")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--hom", required=True)
    sp.add_argument("--class", dest="group_class", required=True)
    sp.add_argument("--assert", dest="assert_flags", action="store_true")
    sp.set_defaults(func=_cmd_orthogonal)

    sp = sub.add_parser("simple-criterion", help="simple-source embedding criterion")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--hom", default=None)
    sp.add_argument("--no-cross-check", action="store_true")
    sp.add_argument("--assert", dest="assert_flags", nargs="+", default=None,
                    metavar="FLAG")
    sp.set_defaults(func=_cmd_simple_criterion)

    sp = sub.add_parser("verify", help="run a theorem suite over the corpus")
    sp.add_argument("--suite", required=True, choices=SUITE_IDS)
    sp.add_argument("--max-order", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; suites run serially")
    sp.add_argument("--assert", dest="assert_flags", action="store_true",
                    help="exit 1 when violations are found")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("search", help="find homs with a given approximation flag")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--kind", required=True,
                    choices=["envelope", "cover", "localization", "cellular"])
    sp.add_argument("--injective", action="store_true")
    sp.set_defaults(func=_cmd_search)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GrouperError as exc:
        print(f"error:{exc.code}: {exc.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
