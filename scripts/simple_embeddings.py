#!/usr/bin/env python3
"""Evaluate the simple-source embedding criterion on corpus pairs.

For every simple group H in the corpus and every larger corpus group G
admitting an embedding, reports whether each automorphism of H extends,
whether all copies of H are conjugate under Aut(G), the predicted Galois
order (the centralizer), and the direct classification cross-check.
"""

import argparse
import sys

import numpy as np

from grouper.corpus import generate_corpus
from grouper.groups import GroupHom
from grouper.homs import enumerate_homs
from grouper.simple import is_simple, simple_envelope_criterion


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=60)
    ap.add_argument("--no-cross-check", action="store_true")
    args = ap.parse_args()

    corpus = generate_corpus(args.max_order)
    simple_members = [G for G in corpus if is_simple(G)]
    print(f"# simple corpus members: {[g.name for g in simple_members]}")
    print("# source target extends oneOrbit predictedGal directEnv directLoc agrees")
    for H in simple_members:
        for G in corpus:
            if G.order <= H.order or G.order % H.order:
                continue
            hs = enumerate_homs(H, G)
            injective = np.flatnonzero(hs.injective())
            if not injective.size:
                continue
            phi = GroupHom(H, G, hs.matrix[injective[0]], check=False)
            rep = simple_envelope_criterion(phi, cross_check=not args.no_cross_check)
            print(
                f"{H.name} {G.name} {rep.every_automorphism_extends} "
                f"{rep.copies_conjugate_under_aut} {rep.predicted_galois_order} "
                f"{rep.direct_is_envelope} {rep.direct_is_localization} {rep.agrees}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
