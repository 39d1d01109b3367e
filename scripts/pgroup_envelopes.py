#!/usr/bin/env python3
"""Data table for the question: when is an inclusion of finite p-groups
an envelope?

Scans all ordered pairs of p-groups in the corpus for a chosen prime,
classifies every injective homomorphism, and tabulates which embeddings
are envelopes, localizations, or neither.  No characterization is
claimed; this emits the raw per-pair data.
"""

import argparse
import sys

import numpy as np

from grouper.corpus import generate_corpus, classify_pair
from grouper.groups import FiniteGroup


def is_p_group(G: FiniteGroup, p: int) -> bool:
    n = G.order
    while n % p == 0:
        n //= p
    return n == 1 and G.order > 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prime", type=int, default=2)
    ap.add_argument("--max-order", type=int, default=32)
    ap.add_argument("--envelopes-only", action="store_true")
    args = ap.parse_args()

    corpus = [G for G in generate_corpus(args.max_order) if is_p_group(G, args.prime)]
    print(f"# {len(corpus)} {args.prime}-groups up to order {args.max_order}")
    print("# source target hom isEnvelope isLocalization galoisOrder")
    for H in corpus:
        for G in corpus:
            if G.order % H.order or H.order == G.order:
                continue
            v = classify_pair(H, G)
            for i in range(len(v)):
                row = v.matrix[i]
                if len(np.unique(row)) != H.order:
                    continue
                if args.envelopes_only and not v.is_envelope[i]:
                    continue
                print(
                    f"{H.name} {G.name} {' '.join(str(x) for x in row)} "
                    f"{bool(v.is_envelope[i])} {bool(v.is_localization[i])} "
                    f"{int(v.galois_orders[i])}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
