#!/usr/bin/env python3
"""Wall-clock and visited-arc behavior across worker counts. The
``processes`` column counts the processes that ran: a run whose parent can
finish alone forks none.

Usage: python scripts/parallel_speedup.py [--nodes 100000] [--workers 1,2,4,8]
"""

import argparse
import time

from topclose import top_k
from topclose.generators import preferential_attachment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=100_000)
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workers", default="1,2,4,8")
    args = ap.parse_args()

    g = preferential_attachment(args.nodes, args.degree, seed=args.seed)
    base_time = None
    base_vis = None
    print("workers\tprocesses\tseconds\tspeedup\tm_vis\textra_arcs")
    for w in (int(s) for s in args.workers.split(",")):
        t0 = time.perf_counter()
        _, stats = top_k(g, args.k, workers=w)
        elapsed = time.perf_counter() - t0
        if base_time is None:
            base_time, base_vis = elapsed, stats.m_vis
        extra = (stats.m_vis - base_vis) / base_vis
        print(f"{w}\t{len(stats.per_process)}\t{elapsed:.2f}\t{base_time / elapsed:.2f}x\t"
              f"{stats.m_vis}\t{extra:+.2%}")


if __name__ == "__main__":
    main()
