#!/usr/bin/env python3
"""Improvement factor vs graph size on preferential-attachment graphs.

Usage: python scripts/scale_trend.py [--sizes 10000,50000,100000] [--seed 1]
"""

import argparse
import time

from topclose import top_k
from topclose.generators import preferential_attachment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="10000,50000,100000")
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print("n\tm\ttopk_seconds\tm_vis\tarcs_scanned\tscreened\tm_tot\timprovement_factor")
    for n in (int(s) for s in args.sizes.split(",")):
        g = preferential_attachment(n, args.degree, seed=args.seed)
        t0 = time.perf_counter()
        _, stats = top_k(g, args.k)
        elapsed = time.perf_counter() - t0
        factor = stats.m_vis / stats.m_tot
        print(
            f"{n}\t{g.m}\t{elapsed:.2f}\t{stats.m_vis}\t{stats.arcs_scanned}"
            f"\t{stats.screened}\t{stats.m_tot}\t{factor:.6f}"
        )


if __name__ == "__main__":
    main()
