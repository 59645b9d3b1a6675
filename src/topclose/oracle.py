"""Textbook all-BFS closeness: the comparison baseline and test oracle."""

from __future__ import annotations

from .engine import Outcomes, TopKResult
from .graph import Graph, bfs


def exact_closeness_all(g: Graph) -> tuple[Outcomes, int]:
    """One full BFS per vertex. Returns the table (every cut level -1) and
    m_tot, the total number of arcs those BFSes traverse (m*n on a strongly
    connected graph, possibly less in general)."""
    n = g.n
    table = Outcomes.empty(n)
    m_tot = 0
    for v in range(n):
        dist, r, arcs = bfs(g, v)
        m_tot += arcs
        f = int(dist[dist >= 0].sum())
        table.farness[v], table.reachable[v] = f, r
        if r > 1 and n > 1:
            table.closeness[v] = (r - 1) ** 2 / ((n - 1) * f)
    return table, m_tot


def top_k_textbook(g: Graph, k: int) -> TopKResult:
    """Rank the full table: closeness descending, ties by vertex id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    table, _ = exact_closeness_all(g)
    return table.ranked(g, k)
