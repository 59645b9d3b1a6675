"""Seeded graph generators for property tests, benchmarks, and the CLI."""

from __future__ import annotations

import numpy as np

from .graph import Graph, from_edges

MODELS = ("gnp", "preferential-attachment", "path", "star", "cycle")


def path_graph(n: int, directed: bool = False) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)], directed)


def star_graph(n: int, directed: bool = False) -> Graph:
    """Vertex 0 is the center."""
    return from_edges(n, [(0, i) for i in range(1, n)], directed)


def cycle_graph(n: int, directed: bool = False) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)], directed)


def gnp(n: int, p: float, seed: int, directed: bool = False) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"invalid gnp parameters n={n}, p={p}")
    mask = np.random.default_rng(seed).random((n, n)) < p  # from_edges drops the diagonal
    return from_edges(n, np.argwhere(mask if directed else np.triu(mask)), directed)


def preferential_attachment(n: int, d: int, seed: int, directed: bool = False) -> Graph:
    """Barabasi-Albert style growth: each new vertex attaches to d existing
    vertices chosen proportionally to degree (repeated-endpoints urn)."""
    if n < 0 or d < 1:
        raise ValueError(f"invalid preferential-attachment parameters n={n}, d={d}")
    rng = np.random.default_rng(seed)
    if n <= d:
        # too small to grow: complete graph on n vertices
        return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)], directed)
    edges: list[tuple[int, int]] = []
    urn: list[int] = list(range(d))  # seed clique endpoints appear once each
    for v in range(d, n):
        # sample d distinct targets from the urn
        targets: set[int] = set()
        while len(targets) < d:
            targets.add(urn[int(rng.integers(len(urn)))])
        for t in targets:
            edges.append((v, t))
            urn.append(t)
        urn.extend([v] * d)
    edges = [(i, j) for i in range(d) for j in range(i + 1, d)] + edges
    return from_edges(n, edges, directed)


def generate(model: str, *, nodes: int, prob: float = 0.0, degree: int = 1,
             seed: int = 0, directed: bool = False) -> Graph:
    """Dispatch by model name; deterministic for a fixed seed."""
    if model == "gnp":
        return gnp(nodes, prob, seed, directed)
    if model == "preferential-attachment":
        return preferential_attachment(nodes, degree, seed, directed)
    if model == "path":
        return path_graph(nodes, directed)
    if model == "star":
        return star_graph(nodes, directed)
    if model == "cycle":
        return cycle_graph(nodes, directed)
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
