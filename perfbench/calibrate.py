"""A fixed CPU job that tracks this machine's speed between timed processes.

The job mixes the kinds of work ``top_k`` does: a pure-Python BFS, a loop of
small numpy calls (per-call overhead, as in the grid's tiny levels) and a few
large gathers, sorts and ``np.unique`` calls (as in the hub frontiers). Its
inputs are fixed, so its time changes only with the machine. It uses no code
from ``topclose``, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# About the job's time on the 2-vCPU x86-64 VM the baseline in NOTES.md was
# taken on. Scaled times are seconds at the speed where one pass takes this.
NOMINAL_S = 0.25

SIDE = 40  # grid for the pure-Python BFS
SMALL_CALLS = 8_000
LARGE = 400_000


def _grid_adjacency(side: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(side * side)]
    for v in range(side * side):
        if v % side + 1 < side:
            adj[v].append(v + 1)
            adj[v + 1].append(v)
        if v + side < side * side:
            adj[v].append(v + side)
            adj[v + side].append(v)
    return adj


def _python_bfs(adj: list[list[int]], sources: range) -> int:
    total = 0
    for s in sources:
        dist = {s: 0}
        queue = [s]
        for u in queue:
            du = dist[u] + 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = du
                    queue.append(w)
        total += sum(dist.values())
    return total


def kernel_s() -> float:
    """Wall time of one pass of the fixed job, in seconds."""
    rng = np.random.default_rng(0)
    adj = _grid_adjacency(SIDE)
    small = rng.integers(0, 1_000, size=64)
    keys = rng.integers(0, LARGE // 2, size=LARGE)
    picks = rng.integers(0, LARGE, size=LARGE)
    t0 = time.perf_counter()
    _python_bfs(adj, range(0, SIDE * SIDE, 16))
    acc = 0
    for i in range(SMALL_CALLS):
        acc += int(np.unique(small[(np.arange(8) + i) % 64]).size)
    np.cumsum(np.sort(np.unique(keys[picks])))
    return time.perf_counter() - t0
