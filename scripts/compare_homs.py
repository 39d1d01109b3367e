#!/usr/bin/env python3
"""Check that two checkouts compute the same hom sets, Aut groups, verdicts and lemma reports.

    python3 scripts/compare_homs.py PARENT CHANGE --max-order 24

PARENT and CHANGE are two checkouts of grouper.  The script runs its own
digest (`--digest`) with each checkout's `src/` on `PYTHONPATH`.  Over
`generate_corpus(N)`, in corpus order, the digest hashes the first eight of
nine kinds:

- hom-sets: each budgeted `enumerate_homs(H, G)`, its `matrix` and `keys`;
- aut-groups: each `automorphism_group(G)`, its `perms`, `end_rows`,
  `identity` and `inner_order`;
- verdicts: each array of each budgeted `classify_pair(H, G)`, with every
  source's targets classified in one run, as the suites do;
- absolute: for each hom of each budgeted pair, `classify_hom(...).to_dict()`:
  its flags, Galois and co-Galois orders and structures, and its witness
  rows (`unlifted-hom`, `non-automorphism-preimage`, `non-injective-pair`);
- relative: for each hom of each budgeted pair, `classify_against_class(...)
  .to_dict()` on both sides and `is_orthogonal`, against the singleton class
  of each corpus group named in `RELATIVE_CLASSES`: C2, C3, C4, C2xC2 and
  D6 (S3).  They cover prime and composite cyclic, non-cyclic abelian and
  non-abelian members, and keep the digest at max-order 16 near a minute;
- reps: for each budgeted pair, the row indices of `injective_per_image()`,
  the rows of `corpus._surjective_reps_by_kernel(H, G)` and, for the first
  three embeddings in canonical order, `simple_envelope_criterion(phi,
  cross_check=False).to_dict()`, whose copy witness is the first copy, in
  byte order of the sorted images, outside phi's orbit;
- lemmas: for each group, `check_commutator_lemmas(G, cfg).to_dict()` of
  every report under `LemmaConfig()` and under `LemmaConfig(max_tuples=500,
  samples=2000)`, which makes most reports sampled.  A sampled report's
  dict counts its samples, not what they draw, so every block of rows that
  `commutators._drawn` yields is hashed too;
- isomorphisms: the images of `find_isomorphism(G1, G2)`, or None, for
  every ordered pair of corpus groups of equal order, and then for each
  group against one relabelled copy of it, the relabellings drawn from one
  generator seeded with `RELABEL_SEED`.  It guards the promise of the first
  bijection in canonical order.

The ninth kind, groups, covers the standard descriptors, which the corpus
never reaches at S5, A5, A6, S6, A7 or Heis5:

- groups: `standard_group(d)` for every family in `FAMILIES` at arguments
  0..max(N, 7), for `quaternion8`, for every `product:cyclic:a,cyclic:b` with
  a*b <= N and for each descriptor in `MALFORMED`; it hashes the group's
  name, order, identity, generators, table and `element_perms`, or the type
  and message of the error it raises.

Arrays are hashed by shape and int64 value, so a change of dtype alone is no
difference; absolute and relative reports are hashed as JSON with sorted keys.  The script
prints, per kind, the number of items and whether the two sides match, and
for a kind that differs the first item that does.
It exits 0 when every kind matches and 1 on a difference.  A digest run that
fails ends the script with exit status 2, after that run's stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

KINDS = ("hom-sets", "aut-groups", "verdicts", "absolute", "relative", "reps", "lemmas", "isomorphisms", "groups")
RELABEL_SEED = 33
RELATIVE_CLASSES = ("C2", "C3", "C4", "C2xC2", "D6")
VERDICT_FIELDS = ("matrix", "is_envelope", "is_localization", "is_cover", "is_cellular",
                  "is_preenvelope", "is_precover", "galois_orders", "co_galois_orders")
FAMILIES = ("cyclic", "dihedral", "symmetric", "alternating", "heisenberg")
MALFORMED = ("", "Cyclic:4", "cyclic", "cyclic:x", "cyclic:4:2", "cyclic:-1", "cyclic:5001", "dihedral:5001",
             "frob:5", "frob:x", "frob:0", "quaternion8:3", "product", "product:", "product:cyclic:2",
             "product:cyclic:2,,", "product:cyclic:80,cyclic:80", "product:cyclic:80,cyclic:80,frob:2")


def _hash(*values) -> str:
    import numpy as np

    h = hashlib.sha256()
    for v in values:
        a = np.asarray(v).astype(np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digest(max_order: int) -> dict:
    """kind -> list of [item name, sha256] in corpus order, from the grouper on the path."""
    import numpy as np

    from grouper.corpus import _budget_ok, _surjective_reps_by_kernel, classify_pair, classify_source, generate_corpus
    from grouper.approx import GroupClass, classify_against_class, classify_hom, is_orthogonal
    from grouper.groups import GroupHom
    from grouper.homs import automorphism_group, enumerate_homs
    from grouper.simple import simple_envelope_criterion

    corpus = generate_corpus(max_order)
    classes = [GroupClass(F.name, [F]) for F in corpus if F.name in RELATIVE_CLASSES]
    out = {kind: [] for kind in KINDS}
    for G in corpus:
        aut = automorphism_group(G)
        out["aut-groups"].append([G.name, _hash(aut.perms, aut.end_rows, aut.identity, aut.inner_order)])
    for H in corpus:
        targets = [G for G in corpus if _budget_ok(H, G)]
        if targets:
            classify_source(H, targets)
        for G in targets:
            hs, v = enumerate_homs(H, G), classify_pair(H, G)
            pair = f"{H.name}->{G.name}"
            out["hom-sets"].append([pair, _hash(hs.matrix, hs.keys)])
            out["verdicts"].append([pair, _hash(*(getattr(v, f) for f in VERDICT_FIELDS))])
            reports = [classify_hom(phi).to_dict() for phi in hs.homs]
            out["absolute"].append([pair, hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()])
            h = hashlib.sha256()
            for phi in hs.homs:
                reports = [classify_against_class(phi, cls, side).to_dict()
                           for cls in classes for side in ("envelope", "cover")]
                h.update(json.dumps([reports, [is_orthogonal(phi, cls) for cls in classes]],
                                    sort_keys=True).encode())
            out["relative"].append([pair, h.hexdigest()])
            h = hashlib.sha256(_hash(hs.injective_per_image(), _surjective_reps_by_kernel(H, G)).encode())
            for i in np.flatnonzero(hs.injective())[:3]:
                phi = GroupHom(H, G, hs.matrix[i], check=False)
                report = simple_envelope_criterion(phi, cross_check=False).to_dict()
                h.update(json.dumps(report, sort_keys=True).encode())
            out["reps"].append([pair, h.hexdigest()])
    out["lemmas"] = _lemma_digest(corpus)
    out["isomorphisms"] = _isomorphism_digest(corpus)
    out["groups"] = _group_digest(max_order)
    return out


def _isomorphism_digest(corpus) -> list:
    """[pair name, sha256] of the images of ``find_isomorphism`` (or None) per ordered pair of
    equal-order corpus groups, then per group against a seeded relabelled copy of it."""
    import numpy as np

    from grouper.groups import FiniteGroup
    from grouper.homs import find_isomorphism

    def images(G1, G2) -> str:
        phi = find_isomorphism(G1, G2)
        return _hash(phi.images) if phi is not None else "None"

    out = [[f"{G1.name}->{G2.name}", images(G1, G2)]
           for G1 in corpus for G2 in corpus if G1.order == G2.order]
    rng = np.random.default_rng(RELABEL_SEED)
    for G in corpus:
        perm = rng.permutation(G.order)
        table = np.empty_like(G.table)
        table[np.ix_(perm, perm)] = perm[G.table]
        moved = FiniteGroup(G.name + "'", table, generators=perm[G.generators].tolist(),
                            identity=int(perm[G.identity]))
        out.append([f"{G.name}->{moved.name}", images(G, moved)])
    return out


def _group_digest(max_order: int) -> list:
    """[descriptor, sha256] per standard descriptor: its group's name, order, identity,
    generators, table and element_perms, or the type and message of its error."""
    from grouper.groups import standard_group

    top = max(max_order, 7)
    descriptors = [f"{family}:{n}" for family in FAMILIES for n in range(top + 1)] + ["quaternion8"]
    descriptors += [f"product:cyclic:{a},cyclic:{b}"
                    for a in range(1, max_order + 1) for b in range(1, max_order // a + 1)]
    out = []
    for desc in descriptors + list(MALFORMED):
        try:
            G = standard_group(desc)
        except Exception as exc:  # a changed error type is a difference, not a failed run
            h = hashlib.sha256(f"{type(exc).__name__}: {exc}".encode())
        else:
            head = [G.name, G.order, int(G.identity), [int(g) for g in G.generators]]
            h = hashlib.sha256(json.dumps(head).encode())
            h.update(_hash(G.table, G.element_perms or []).encode())
        out.append([desc, h.hexdigest()])
    return out


def _lemma_digest(corpus) -> list:
    """[group name, sha256] per group of ``corpus``: its lemma reports under both configs and
    the rows their samplers drew."""
    from grouper import commutators

    drawn, h = commutators._drawn, None

    def recorded(*args, **kwargs):
        blocks = drawn(*args, **kwargs)

        def record(m):
            for block in blocks(m):
                h.update(_hash(block).encode())
                yield block

        return record

    commutators._drawn = recorded
    out = []
    for G in corpus:
        h = hashlib.sha256()
        for cfg in (commutators.LemmaConfig(), commutators.LemmaConfig(max_tuples=500, samples=2000)):
            reports = [r.to_dict() for r in commutators.check_commutator_lemmas(G, cfg)]
            h.update(json.dumps(reports, sort_keys=True).encode())
        out.append([G.name, h.hexdigest()])
    return out


def run_digest(checkout: Path, max_order: int) -> dict:
    """The digest of one checkout; exits 2 if the run fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--digest", "--max-order", str(max_order)],
        capture_output=True, env=env,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"{checkout}: digest exited {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        sys.exit(2)
    print(f"{checkout}: {seconds:.2f} s")
    return json.loads(proc.stdout)


def compare(a: dict, b: dict) -> list:
    """One line per kind: identical, or the item counts and the first differing item."""
    lines = []
    for kind in KINDS:
        x, y = a[kind], b[kind]
        if x == y:
            lines.append(f"{kind}: identical ({len(x)} items)")
            continue
        first = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
        name = (x if first < len(x) else y)[first][0]
        lines.append(f"{kind}: differ ({len(x)} vs {len(y)} items), first at item {first}: {name}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--max-order", type=int, required=True)
    ap.add_argument("--digest", action="store_true",
                    help="print the digest of the grouper on PYTHONPATH as JSON, and compare nothing")
    args = ap.parse_args(argv)
    if args.digest:
        print(json.dumps(digest(args.max_order)))
        return 0
    if args.change is None:
        ap.error("PARENT and CHANGE are required without --digest")
    a, b = run_digest(args.parent, args.max_order), run_digest(args.change, args.max_order)
    print("\n".join(compare(a, b)))
    return 0 if a == b else 1


if __name__ == "__main__":
    sys.exit(main())
