#!/usr/bin/env python3
"""One digest of everything top_k reports, for checking that a refactor
changes no output.

It runs top_k at k = 1 and 10 with a boundary recorder on every instance of
tests/conftest.build_suite(), on PA(2000), a 30x30 grid and sparse directed
gnp graphs (n = 800 and 1,500, two seeds each). The digest covers the
ranking, every RunStats counter (m_vis, m_tot, arcs_scanned, screened,
arcs_gathered, final_threshold, the cut level of each vertex) and every
recorded boundary. Timers are left out. Run it on two commits and compare
the last line.

Usage: PYTHONPATH=src python scripts/fingerprint.py [--verbose]
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import build_suite  # noqa: E402

from topclose import from_edges, top_k  # noqa: E402
from topclose.generators import gnp, preferential_attachment  # noqa: E402


def grid(side: int):
    cells = np.arange(side * side).reshape(side, side)
    right = np.stack([cells[:, :-1].ravel(), cells[:, 1:].ravel()], axis=1)
    down = np.stack([cells[:-1].ravel(), cells[1:].ravel()], axis=1)
    return from_edges(side * side, np.concatenate([right, down]), directed=False)


def instances():
    yield from build_suite()
    yield "pa-2000", preferential_attachment(2000, 4, seed=1)
    yield "grid-30", grid(30)
    for n in (800, 1500):
        for seed in (0, 1):
            yield f"gnp-d-n{n}-s{seed}", gnp(n, 2.0 / n, seed, directed=True)


def run_digest(g, k: int) -> tuple[str, int]:
    """The digest of one top_k run and its boundary count."""
    h = hashlib.sha256()
    boundaries = []
    result, stats = top_k(g, k, recorder=lambda *a: boundaries.append(a))
    for e in result.entries:
        h.update(repr((e.rank, e.vertex, e.closeness.hex(), e.farness, e.reachable)).encode())
    counters = (
        stats.m_vis, stats.m_tot, stats.arcs_scanned, stats.screened,
        stats.arcs_gathered, float(stats.final_threshold).hex(),
    )
    h.update(repr(counters).encode())
    h.update(np.ascontiguousarray(stats.cut_level, dtype=np.int64).tobytes())
    h.update(np.array(boundaries, dtype=np.int64).tobytes())
    return h.hexdigest(), len(boundaries)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--verbose", action="store_true", help="print one digest per run")
    args = ap.parse_args()
    total = hashlib.sha256()
    runs = boundaries = 0
    for tag, g in instances():
        for k in (1, 10):
            digest, count = run_digest(g, k)
            total.update(f"{tag}/{k}:{digest}\n".encode())
            runs += 1
            boundaries += count
            if args.verbose:
                print(f"{tag}\tk={k}\t{count}\t{digest}")
    print(f"{runs} runs, {boundaries} boundaries")
    print(total.hexdigest())


if __name__ == "__main__":
    main()
