"""Textbook all-BFS closeness: the comparison baseline and test oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import TopKResult, _rank
from .graph import Graph, bfs


@dataclass(frozen=True)
class ClosenessTable:
    closeness: np.ndarray  # float64 per vertex
    farness: np.ndarray  # int64 per vertex
    reachable: np.ndarray  # int64 per vertex

    def ranked(self, g: Graph, k: int) -> TopKResult:
        """The k best rows: closeness descending, ties by vertex id."""
        everyone = np.ones(g.n, dtype=bool)
        return _rank(g, k, self.closeness, self.farness, self.reachable, everyone)


def exact_closeness_all(g: Graph) -> tuple[ClosenessTable, int]:
    """One full BFS per vertex. Returns the table and m_tot, the total number
    of arcs those BFSes traverse (m*n on a strongly connected graph, possibly
    less in general)."""
    n = g.n
    closeness = np.zeros(n, dtype=np.float64)
    farness = np.zeros(n, dtype=np.int64)
    reachable = np.ones(n, dtype=np.int64)
    m_tot = 0
    for v in range(n):
        dist, r, arcs = bfs(g, v)
        m_tot += arcs
        f = int(dist[dist >= 0].sum())
        farness[v] = f
        reachable[v] = r
        if r > 1 and n > 1:
            closeness[v] = (r - 1) ** 2 / ((n - 1) * f)
    return ClosenessTable(closeness, farness, reachable), m_tot


def top_k_textbook(g: Graph, k: int) -> TopKResult:
    """Rank the full table: closeness descending, ties by vertex id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    table, _ = exact_closeness_all(g)
    return table.ranked(g, k)
