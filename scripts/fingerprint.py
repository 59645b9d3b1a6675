#!/usr/bin/env python3
"""One digest of everything top_k reports, for checking that a refactor
changes no output.

It runs top_k at k = 1 and 10 with a boundary recorder on every instance of
tests/conftest.build_suite(), on PA(2000), a 30x30 grid and sparse directed
gnp graphs (n = 800 and 1,500, two seeds each). The first digest covers the
ranking, every RunStats counter (m_vis, m_tot, screened, arcs_gathered,
final_threshold, the cut level of each vertex, and kernel_levels,
source_levels and dense_levels where RunStats has them) and every recorded
boundary. Timers are left out. The second digest leaves out the counters of
kernel work (arcs_gathered, kernel_levels, source_levels, dense_levels): a
change to how the kernel schedules or reads its visits moves those, and only
those. Run it on two commits (PYTHONPATH pointing at each one's src/) and
compare the digests.

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


KERNEL_WORK = ("arcs_gathered", "kernel_levels", "source_levels", "dense_levels")


def run_digests(g, k: int) -> tuple[str, str, int]:
    """The digests of one top_k run, with and without the kernel-work
    counters, and its boundary count. A counter RunStats lacks is left out."""
    full, outputs = hashlib.sha256(), hashlib.sha256()
    boundaries = []
    result, stats = top_k(g, k, recorder=lambda *a: boundaries.append(a))
    work = [getattr(stats, name) for name in KERNEL_WORK if hasattr(stats, name)]
    counters = [stats.m_vis, stats.m_tot, stats.screened]
    threshold = float(stats.final_threshold).hex()
    for h, fields in ((full, counters + work[:1] + [threshold] + work[1:]),
                      (outputs, counters + [threshold])):
        for e in result.entries:
            h.update(repr((e.rank, e.vertex, e.closeness.hex(), e.farness, e.reachable)).encode())
        h.update(repr(tuple(fields)).encode())
        h.update(np.ascontiguousarray(stats.cut_level, dtype=np.int64).tobytes())
        h.update(np.array(boundaries, dtype=np.int64).tobytes())
    return full.hexdigest(), outputs.hexdigest(), len(boundaries)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--verbose", action="store_true", help="print one digest per run")
    args = ap.parse_args()
    total, outputs = hashlib.sha256(), hashlib.sha256()
    runs = boundaries = 0
    for tag, g in instances():
        for k in (1, 10):
            digest, output_digest, count = run_digests(g, k)
            total.update(f"{tag}/{k}:{digest}\n".encode())
            outputs.update(f"{tag}/{k}:{output_digest}\n".encode())
            runs += 1
            boundaries += count
            if args.verbose:
                print(f"{tag}\tk={k}\t{count}\t{digest}\t{output_digest}")
    print(f"{runs} runs, {boundaries} boundaries")
    print(total.hexdigest())
    print(f"{outputs.hexdigest()} without {', '.join(KERNEL_WORK)}")


if __name__ == "__main__":
    main()
