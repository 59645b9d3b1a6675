"""Strongly connected components, their condensation DAG, and per-vertex
reachability bounds used to prune directed BFS visits."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, connected_components, csr_from_arcs


@dataclass(frozen=True)
class SccDag:
    """Weighted condensation DAG of a directed graph, numbered sinks first.

    Ids follow Tarjan's emission order, which emits a component only after
    every component it reaches: every DAG arc ``c -> d`` has ``d < c``. The
    successors of ``c`` are ``targets[offsets[c]:offsets[c + 1]]``, sorted,
    deduplicated and without self-arcs.
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
    """Tarjan's algorithm with an explicit stack (no recursion), plus the
    deduplicated condensation DAG in CSR form."""
    if not g.directed:
        raise ValueError("compute_scc_dag requires a directed graph")
    n = g.n
    offsets, targets = g.offsets.tolist(), g.targets.tolist()
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

    sid = np.asarray(scc_id, dtype=np.int64)
    dag_offsets, dag_targets = csr_from_arcs(scc_count, np.repeat(sid, g.degrees), sid[g.targets])
    return SccDag(
        scc_id=sid,
        scc_count=scc_count,
        weight=np.bincount(sid, minlength=scc_count),
        offsets=dag_offsets,
        targets=dag_targets,
    )


def compute_alpha_omega(dag: SccDag, g: Graph) -> ReachabilityBounds:
    """Reachable-count bounds from the condensation DAG, tightened around the
    heaviest component ``big`` (ties: the one holding the smallest vertex id).

    Two passes over the sinks-first ids, no BFS. A descending pass from
    ``big`` marks what it reaches, so its exact count ``r_big`` is their
    weight sum. An ascending sweep, which meets successors first, then
    gives alpha: the heaviest-path DP with ``big`` pinned to ``r_big``; and
    omega: the successors' weight sum, or for a component that reaches
    ``big``, ``r_big`` plus that sum over the part not downstream of ``big``.
    Every sum is capped at n as it is built, so none outgrows int64 on
    graphs with exponentially many paths.

    The pinned sweep makes three passes redundant. The unpinned alpha DP:
    alpha(big) <= r_big and the DP is monotone. The plain omega of a
    component that reaches ``big``: it counts every path into the
    downstream part, at least ``r_big``. Making ``big`` exact: its pinned
    alpha and omega are both ``r_big``.
    """
    n = g.n
    k = dag.scc_count
    offsets, targets, w = dag.offsets.tolist(), dag.targets.tolist(), dag.weight.tolist()
    sid = dag.scc_id
    big = int(sid[np.flatnonzero(dag.weight[sid] == dag.weight.max())[0]])

    downstream = [False] * k
    downstream[big] = True
    r_big = 0
    for c in range(big, -1, -1):
        if downstream[c]:
            r_big += w[c]
            for d in targets[offsets[c] : offsets[c + 1]]:
                downstream[d] = True

    alpha = [0] * k
    omega = [0] * k
    reduced = [0] * k  # omega over the components not downstream of big; 0 on those
    reaches = [False] * k  # reaches big, or is big
    for c in range(k):
        if c == big:
            alpha[c] = omega[c] = r_big
            reaches[c] = True
            continue
        a = om = red = 0
        reach = False
        for d in targets[offsets[c] : offsets[c + 1]]:
            if alpha[d] > a:
                a = alpha[d]
            om += omega[d]
            red += reduced[d]
            reach = reach or reaches[d]
        alpha[c] = w[c] + a
        if not downstream[c]:
            reduced[c] = min(w[c] + red, n)
        reaches[c] = reach
        omega[c] = min(reduced[c] + r_big, n) if reach else min(w[c] + om, n)

    alpha_v = np.asarray(alpha, dtype=np.int64)[sid]
    omega_v = np.asarray(omega, dtype=np.int64)[sid]
    return ReachabilityBounds(alpha=alpha_v, omega=omega_v)


def reachability_for(g: Graph) -> ReachabilityBounds:
    """Exact reachable counts where cheap, alpha/omega bounds otherwise.

    Undirected: exact from connected components. Directed: the condensation
    DAG sweep of ``compute_alpha_omega``; on a strongly connected digraph
    that is exact r(v) = n.
    """
    n = g.n
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return ReachabilityBounds(alpha=z, omega=z)
    if not g.directed:
        comps = connected_components(g)
        r = comps.component_size[comps.component_id]
        return ReachabilityBounds(alpha=r, omega=r)
    return compute_alpha_omega(compute_scc_dag(g), g)
