"""Immutable CSR graph storage, edge-list I/O, plain BFS and connected components."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

import numpy as np


class EdgeListParseError(ValueError):
    """Raised on a malformed data line; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Graph:
    """Adjacency in compressed sparse row form over dense vertex ids 0..n-1.

    Undirected graphs store each edge in both directions, so ``m`` counts
    stored arcs (2x the number of edges). Immutable after construction and
    safe to read concurrently.
    """

    n: int
    m: int
    offsets: np.ndarray  # int64, length n+1
    targets: np.ndarray  # int32, length m
    directed: bool
    labels: tuple[str, ...]  # dense id -> original token

    @cached_property
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex, computed once and read-only."""
        degrees = np.diff(self.offsets)
        degrees.flags.writeable = False
        return degrees

    def __post_init__(self):
        if not (
            self.offsets.shape == (self.n + 1,)
            and self.offsets[0] == 0
            and self.offsets[self.n] == self.m
        ):
            raise ValueError("offsets must have length n+1, start at 0 and end at m")

    def edges(self) -> Iterator[tuple[int, int]]:
        """Stored arcs (u, w) in CSR order; for undirected graphs only u < w once."""
        sources = np.repeat(np.arange(self.n), self.degrees)
        targets = self.targets
        if not self.directed:
            keep = sources < targets
            sources, targets = sources[keep], targets[keep]
        return zip(sources.tolist(), targets.tolist())


def from_edges(
    n: int,
    edges: Iterable[tuple[int, int]],
    directed: bool,
    labels: tuple[str, ...] | None = None,
) -> Graph:
    """Build a Graph from integer endpoint pairs; drops self-loops and duplicates.

    Raises ValueError naming the first pair with an endpoint outside [0, n).
    """
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        i = int(bad[0])
        u, w = (int(x) for x in pairs[i])
        raise ValueError(f"edge {i} ({u}, {w}) has an endpoint outside [0, {n})")
    if pairs.size:
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not directed and pairs.size:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    if pairs.size:
        pairs = np.unique(pairs, axis=0)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
        srcs, tgts = pairs[:, 0], pairs[:, 1]
    else:
        srcs = tgts = np.empty(0, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, srcs + 1, 1)
    np.cumsum(offsets, out=offsets)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return Graph(
        n=n,
        m=int(len(tgts)),
        offsets=offsets,
        targets=tgts.astype(np.int32),
        directed=directed,
        labels=labels,
    )


def load_edge_list(source: IO[str] | Iterable[str], directed: bool) -> Graph:
    """Parse a SNAP-style edge list: '#' comments, two tokens per data line.

    Dense ids are assigned in first-appearance order of tokens. Self-loops
    and parallel arcs are removed. An empty stream yields the n=0 graph.
    """
    ids: dict[str, int] = {}
    raw_edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected 2 tokens, got {len(parts)}: {line!r}")
        u = ids.setdefault(parts[0], len(ids))
        w = ids.setdefault(parts[1], len(ids))
        raw_edges.append((u, w))
    labels = tuple(ids)  # insertion order
    return from_edges(len(ids), raw_edges, directed, labels)


def write_edge_list(g: Graph, sink: IO[str]) -> None:
    """Canonical writer: header with n/m/direction, then one 'u v' per line."""
    kind = "directed" if g.directed else "undirected"
    sink.write(f"# topclose edge list: n={g.n} m={g.m} {kind}\n")
    labels = g.labels
    sink.write("".join(f"{labels[u]} {labels[w]}\n" for u, w in g.edges()))


def frontier_neighbors(g: Graph, frontier: np.ndarray) -> np.ndarray:
    """Out-neighbours of every vertex in ``frontier`` as int64 ids,
    concatenated in frontier order with repeats; its length is the
    frontier's arc count."""
    if len(frontier) == 1:  # every visit starts here; a slice is far cheaper
        v = int(frontier[0])
        return g.targets[g.offsets[v] : g.offsets[v + 1]].astype(np.int64)
    starts = g.offsets[frontier]
    counts = g.offsets[frontier + 1] - starts
    total = int(counts.sum())
    idx = np.repeat(starts + counts - np.cumsum(counts), counts) + np.arange(total)
    return g.targets[idx].astype(np.int64)


def distinct(ids: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The distinct vertex ids in ``ids``, in no particular order.

    Scatter dedup: every position writes itself into ``slot[id]``, exactly
    one write per id survives, and that position is kept. ``slot`` is
    reusable int64 scratch of length n; its contents never matter.
    """
    pos = np.arange(len(ids))
    slot[ids] = pos
    return ids[slot[ids] == pos]


def bfs(g: Graph, source: int) -> tuple[np.ndarray, int, int]:
    """Plain BFS from ``source``.

    Returns (distance array with -1 for unreached, visited count r(source),
    traversed-arc count = sum of out-degree over visited vertices).
    """
    if not 0 <= source < g.n:
        raise IndexError(f"source {source} out of range for n={g.n}")
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    slot = np.empty(g.n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    visited = 1
    arcs = 0
    d = 0
    while frontier.size:
        neigh = frontier_neighbors(g, frontier)
        arcs += len(neigh)
        new = distinct(neigh[dist[neigh] < 0], slot)
        d += 1
        dist[new] = d
        visited += len(new)
        frontier = new
    return dist, visited, arcs


@dataclass(frozen=True)
class ComponentMap:
    """Connected-component labelling of an undirected graph."""

    component_id: np.ndarray  # per vertex
    component_size: np.ndarray  # per component


def connected_components(g: Graph) -> ComponentMap:
    """Label connected components of an undirected graph in linear time."""
    if g.directed:
        raise ValueError("connected_components requires an undirected graph")
    comp = np.full(g.n, -1, dtype=np.int64)
    slot = np.empty(g.n, dtype=np.int64)
    sizes: list[int] = []
    for v in range(g.n):
        if comp[v] >= 0:
            continue
        cid = len(sizes)
        comp[v] = cid
        frontier = np.array([v], dtype=np.int64)
        size = 1
        while frontier.size:
            neigh = frontier_neighbors(g, frontier)
            new = distinct(neigh[comp[neigh] < 0], slot)
            comp[new] = cid
            size += len(new)
            frontier = new
        sizes.append(size)
    return ComponentMap(component_id=comp, component_size=np.asarray(sizes, dtype=np.int64))
