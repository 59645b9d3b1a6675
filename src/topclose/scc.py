"""Strongly connected components, their condensation DAG, and per-vertex
reachability bounds used to prune directed BFS visits."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (
    Csr,
    Graph,
    bfs,
    connected_components,
    csr_from_arcs,
    distinct,
    frontier_neighbors,
)


@dataclass(frozen=True)
class SccDag:
    """Weighted condensation DAG of a directed graph, numbered sinks first.

    Every DAG arc ``c -> d`` has ``d < c``. The ids run: the components
    trimmed as sinks, in peel order; then the core's components, in
    Tarjan's emission order; then the components trimmed as sources, in
    reverse peel order (see compute_scc_dag). The successors of ``c`` are
    ``targets[offsets[c]:offsets[c + 1]]``, sorted, deduplicated and
    without self-arcs.
    """

    scc_id: np.ndarray  # per vertex
    scc_count: int
    weight: np.ndarray  # per component, member count
    offsets: np.ndarray  # int64, length scc_count + 1
    targets: np.ndarray  # int64 successor component ids


@dataclass(frozen=True)
class ReachabilityBounds:
    """Per-vertex bounds alpha(v) <= r(v) <= omega(v), exact where they meet."""

    alpha: np.ndarray
    omega: np.ndarray

    @cached_property
    def exact(self) -> np.ndarray:
        return self.alpha == self.omega

    @cached_property
    def r(self) -> np.ndarray:
        """r(v) where exact, else 0."""
        return np.where(self.exact, self.omega, 0)


def compute_scc_dag(g: Graph) -> SccDag:
    """Strongly connected components and their deduplicated condensation
    DAG in CSR form.

    A trim first peels, round by round, every vertex left with no out-arc
    among the vertices left (a sink) or no in-arc (a source), each as a
    component of its own (Hong, Rodia & Olukotun, SC 2013); a vertex with
    neither goes with the sinks. Each round is whole-array passes over the
    peeled vertices' arcs. Tarjan's algorithm then splits the core that is
    left. A sink peeled in round t reaches only sinks peeled before it, and
    a source only sources peeled after it, the core and sinks; so sinks in
    peel order, the core in emission order and sources in reverse peel
    order number the components sinks first.
    """
    if not g.directed:
        raise ValueError("compute_scc_dag requires a directed graph")
    n = g.n
    tails, heads = np.repeat(np.arange(n), g.degrees), g.targets.astype(np.int64)
    into = csr_from_arcs(n, heads, tails)  # row v: the predecessors of v
    out, inn = g.degrees.copy(), np.bincount(heads, minlength=n)  # arcs left, per vertex
    alive = np.ones(n, dtype=bool)
    slot = np.empty(n, dtype=np.int64)
    sinks, sources = [], []
    sink, source = np.flatnonzero(out == 0), np.flatnonzero(inn == 0)
    while sink.size or source.size:
        source = source[out[source] > 0]  # a vertex with neither is a sink
        alive[sink] = alive[source] = False
        sinks.append(sink)
        sources.append(source)
        pred, succ = frontier_neighbors(into, sink), frontier_neighbors(g, source)
        np.subtract.at(out, pred, 1)
        np.subtract.at(inn, succ, 1)
        sink = distinct(pred[(out[pred] == 0) & alive[pred]], slot)
        source = distinct(succ[(inn[succ] == 0) & alive[succ]], slot)

    sid = np.empty(n, dtype=np.int64)
    first = np.concatenate([np.zeros(0, np.int64), *sinks])
    sid[first] = np.arange(len(first))
    core = np.flatnonzero(alive)
    core_count = 0
    if core.size:
        keep = alive[tails] & alive[heads]  # the core's induced subgraph, renumbered
        new = np.cumsum(alive) - 1
        offsets = np.zeros(len(core) + 1, dtype=np.int64)
        np.cumsum(np.bincount(new[tails[keep]], minlength=len(core)), out=offsets[1:])
        comp, core_count = _tarjan(offsets.tolist(), new[heads[keep]].tolist())
        sid[core] = len(first) + np.asarray(comp, dtype=np.int64)
    last = np.concatenate([np.zeros(0, np.int64), *sources[::-1]])
    sid[last] = len(first) + core_count + np.arange(len(last))
    scc_count = len(first) + core_count + len(last)
    dag_offsets, dag_targets = csr_from_arcs(scc_count, sid[tails], sid[heads])
    return SccDag(
        scc_id=sid,
        scc_count=scc_count,
        weight=np.bincount(sid, minlength=scc_count),
        offsets=dag_offsets,
        targets=dag_targets,
    )


def _tarjan(offsets: list[int], targets: list[int]) -> tuple[list[int], int]:
    """Tarjan's algorithm with an explicit stack (no recursion) over a CSR
    graph: each vertex's component id, in emission order, which emits a
    component only after every component it reaches, and the count."""
    n = len(offsets) - 1
    index = [-1] * n
    lowlink = [0] * n
    # a vertex is on Tarjan's stack iff it has an index but no component yet
    scc_id = [-1] * n
    stack: list[int] = []
    next_index = 0
    scc_count = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        # work stack of (vertex, next adjacency position)
        work = [(root, offsets[root])]
        index[root] = lowlink[root] = next_index
        next_index += 1
        stack.append(root)
        while work:
            v, pos = work[-1]
            if pos < offsets[v + 1]:
                work[-1] = (v, pos + 1)
                w = targets[pos]
                if index[w] < 0:
                    index[w] = lowlink[w] = next_index
                    next_index += 1
                    stack.append(w)
                    work.append((w, offsets[w]))
                elif scc_id[w] < 0 and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
                if lowlink[v] == index[v]:
                    while True:
                        w = stack.pop()
                        scc_id[w] = scc_count
                        if w == v:
                            break
                    scc_count += 1
    return scc_id, scc_count


def compute_alpha_omega(dag: SccDag, g: Graph) -> ReachabilityBounds:
    """Reachable-count bounds from the condensation DAG, tightened around the
    heaviest component ``big`` (ties: the one holding the smallest vertex id).

    One BFS over the DAG from ``big`` marks the components downstream of it;
    their weight sum is its exact count ``r_big``. Kahn rounds over the DAG,
    sinks first, then give alpha: the heaviest-path DP with ``big`` pinned to
    ``r_big``; and omega: the successors' weight sum, or for a component that
    reaches ``big``, ``r_big`` plus that sum over the part not downstream of
    ``big``. A component is ready once all its successors are done; a round
    sets the values of the ready components and folds them into their
    predecessors with ``np.maximum.at``, ``np.add.at`` and
    ``np.logical_or.at``. Every value is capped at n, so no sum of them
    outgrows int64 on graphs with exponentially many paths. An empty DAG
    gives empty bounds.

    The pinned DP makes three passes redundant. The unpinned alpha DP:
    alpha(big) <= r_big and the DP is monotone. The plain omega of a
    component that reaches ``big``: it counts every path into the
    downstream part, at least ``r_big``. Making ``big`` exact: its pinned
    alpha and omega are both ``r_big``.
    """
    n, k, sid, w = g.n, dag.scc_count, dag.scc_id, dag.weight
    if k == 0:
        z = np.zeros(0, dtype=np.int64)
        return ReachabilityBounds(alpha=z, omega=z)
    big = int(sid[np.flatnonzero(w[sid] == w.max())[0]])
    downstream = bfs(Csr(dag.offsets, dag.targets), big)[0] >= 0
    r_big = int(w[downstream].sum())

    pending = np.diff(dag.offsets)  # successors not done yet
    into = csr_from_arcs(k, dag.targets, np.repeat(np.arange(k), pending))
    fan_in = np.diff(into.offsets)
    # until c is ready these hold its successors' folds: the max alpha,
    # the omega sum, the reduced sum and whether one reaches big
    alpha = np.zeros(k, dtype=np.int64)
    omega = np.zeros(k, dtype=np.int64)
    reduced = np.zeros(k, dtype=np.int64)  # omega over the part not downstream of big; 0 on it
    reaches = np.zeros(k, dtype=bool)
    # pinned: every successor d of big has alpha(d) <= r(d) <= r_big - w(big)
    alpha[big], reaches[big] = r_big - w[big], True
    slot = np.empty(k, dtype=np.int64)
    ready = np.flatnonzero(pending == 0)
    while ready.size:
        wr = w[ready]
        alpha[ready] += wr
        red = np.where(downstream[ready], 0, np.minimum(wr + reduced[ready], n))
        reduced[ready] = red
        omega[ready] = np.where(
            reaches[ready], np.minimum(red + r_big, n), np.minimum(wr + omega[ready], n)
        )
        pred = frontier_neighbors(into, ready)
        done = np.repeat(ready, fan_in[ready])
        np.maximum.at(alpha, pred, alpha[done])
        np.add.at(omega, pred, omega[done])
        np.add.at(reduced, pred, reduced[done])
        np.logical_or.at(reaches, pred, reaches[done])
        np.subtract.at(pending, pred, 1)
        ready = distinct(pred[pending[pred] == 0], slot)
    return ReachabilityBounds(alpha=alpha[sid], omega=omega[sid])


def reachability_for(g: Graph) -> ReachabilityBounds:
    """Exact reachable counts where cheap, alpha/omega bounds otherwise.

    Undirected: exact from connected components. Directed: the condensation
    DAG sweep of ``compute_alpha_omega``; on a strongly connected digraph
    that is exact r(v) = n.
    """
    if not g.directed:
        comps = connected_components(g)
        r = comps.component_size[comps.component_id]
        return ReachabilityBounds(alpha=r, omega=r)
    return compute_alpha_omega(compute_scc_dag(g), g)
