"""Top-k closeness engine: farness/closeness bound functions, the pruned BFS
visit, the degree-ordered main loop with a rising k-th-best threshold, and a
process-based parallel scheduler."""

from __future__ import annotations

import heapq
import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import Graph, frontier_neighbors
from .scc import ReachabilityBounds, reachability_for

INF = float("inf")

# visit outcomes
CUT = -1.0


def farness_lower_bound(d: int, f_d: int, n_d: int, gamma_next: int, x: int) -> int:
    """Lower bound on the final farness given the state of a visit at the end
    of level d, under the hypothesis that x vertices are reachable.

    Valid (<= true farness) whenever x <= r(v) and gamma_next is at least the
    size of the next frontier.
    """
    return f_d - gamma_next + (d + 2) * (x - n_d)


def closeness_upper_bound(lam: float, r: int, n: int) -> float:
    """Closeness upper bound from a farness lower bound and the exact
    reachable count. Returns +inf when the bound degenerates (lam <= 0)."""
    if lam <= 0:
        return INF
    return (r - 1) ** 2 / ((n - 1) * lam)


def inverse_closeness_lower_bound(
    d: int, f_d: int, n_d: int, gamma_next: int, alpha: int, omega: int, n: int
) -> float:
    """Lower bound on 1/closeness when only alpha <= r(v) <= omega is known.

    The minimum over the reachable-count interval is attained at one of the
    two extremes. A non-positive result is trivially valid and never cuts.
    """
    la = farness_lower_bound(d, f_d, n_d, gamma_next, alpha)
    lo = farness_lower_bound(d, f_d, n_d, gamma_next, omega)
    return (n - 1) * min(la / (alpha - 1) ** 2, lo / (omega - 1) ** 2)


@dataclass
class VisitOutcome:
    closeness: float  # CUT if pruned
    farness: int
    reachable: int  # vertices visited (valid when completed)
    cut_level: int  # -1 if completed
    arcs: int  # arcs out of the expanded levels


BoundaryRecorder = Callable[[int, int, int, int, int], None]
# recorder(vertex, d, f_d, n_d, gamma_next) at every evaluated level boundary


def bfs_cut(
    g: Graph,
    v: int,
    threshold: Callable[[], float],
    bounds: ReachabilityBounds,
    seen_epoch: np.ndarray,
    epoch: int,
    recorder: BoundaryRecorder | None = None,
) -> VisitOutcome:
    """Level-synchronous pruned BFS from v.

    At every level boundary d -> d+1 (level d expanded, level d+1 non-empty)
    the regime bound is evaluated against the current threshold x: with an
    exact reachable count the closeness upper bound, otherwise the
    inverse-closeness lower bound from alpha/omega. Returns CUT as soon as
    closeness <= x is certain. ``recorder``, if given, sees each evaluated
    boundary just before the cut test.

    ``seen_epoch`` is reusable scratch of length n: a vertex is visited in
    this call iff seen_epoch[w] == epoch (avoids clearing between visits), so
    ``epoch`` must differ from every value already stored in it.
    """
    n = g.n
    exact_r = bool(bounds.exact[v])
    r_v = int(bounds.r[v]) if exact_r else 0
    alpha = int(bounds.alpha[v])
    omega = int(bounds.omega[v])
    undirected = not g.directed
    seen_epoch[v] = epoch
    frontier = np.array([v], dtype=np.int64)
    d = 0
    f = 0
    nd = 0
    arcs = 0
    while True:
        fsize = len(frontier)
        f += d * fsize
        nd += fsize
        neigh = frontier_neighbors(g, frontier)
        deg_sum = len(neigh)
        arcs += deg_sum
        # undirected refinement: beyond level 0 one edge per frontier vertex
        # must point back into the previous level
        gamma_next = deg_sum - fsize if (undirected and d >= 1) else deg_sum
        new = neigh[seen_epoch[neigh] != epoch]
        if new.size == 0:
            break
        new = np.unique(new)
        seen_epoch[new] = epoch
        if recorder is not None:
            recorder(v, d, f, nd, gamma_next)
        x = threshold()
        if exact_r:
            lam = farness_lower_bound(d, f, nd, gamma_next, r_v)
            if closeness_upper_bound(lam, r_v, n) <= x:
                return VisitOutcome(CUT, f, nd, d, arcs)
        else:
            inv = inverse_closeness_lower_bound(d, f, nd, gamma_next, alpha, omega, n)
            if x > 0 and inv >= 1.0 / x:
                return VisitOutcome(CUT, f, nd, d, arcs)
        frontier = new.astype(np.int64)
        d += 1
    r = nd
    c = 0.0 if r <= 1 or n <= 1 else (r - 1) ** 2 / ((n - 1) * f)
    return VisitOutcome(c, f, r, -1, arcs)


class ThresholdHeap:
    """Size-k min-heap over the closeness values seen so far.

    The threshold is the k-th biggest value once k values are present, 0
    before; it never decreases.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._heap: list[float] = []
        self._xk = 0.0

    def push(self, value: float) -> None:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, value)
        elif value > self._heap[0]:
            heapq.heapreplace(self._heap, value)
        new_xk = self._heap[0] if len(self._heap) == self.k else 0.0
        if new_xk < self._xk:
            raise RuntimeError("threshold must be monotone")
        self._xk = new_xk

    @property
    def threshold(self) -> float:
        return self._xk


@dataclass(frozen=True)
class RankedVertex:
    rank: int
    vertex: int
    label: str
    closeness: float
    farness: int
    reachable: int


@dataclass(frozen=True)
class TopKResult:
    k: int
    entries: tuple[RankedVertex, ...]

    def closeness_values(self) -> list[float]:
        return [e.closeness for e in self.entries]


@dataclass
class RunStats:
    m_vis: int = 0
    m_tot: int | None = None
    cut_level: np.ndarray | None = None  # -1 where the visit completed
    completed: np.ndarray | None = None
    preprocessing_seconds: float = 0.0
    total_seconds: float = 0.0
    final_threshold: float = 0.0

    @property
    def improvement_factor(self) -> float | None:
        if not self.m_tot:
            return None
        return self.m_vis / self.m_tot


def processing_order(g: Graph) -> np.ndarray:
    """Vertices by decreasing degree (out-degree when directed), ties by
    ascending id."""
    return np.lexsort((np.arange(g.n), -g.degrees))


def exact_m_tot(g: Graph, bounds: ReachabilityBounds) -> int | None:
    """Arc budget of the textbook all-BFS algorithm, when cheap to know.

    Undirected: every BFS from v scans its whole component, so the budget is
    sum over v of r(v) * deg(v) (= sum over components of size * volume).
    Directed and strongly connected: m * n. Otherwise unknown without running
    the oracle.
    """
    if not g.directed:
        return int((bounds.r * g.degrees).sum())
    if (bounds.r == g.n).all():
        return g.m * g.n
    return None


def _rank(
    g: Graph, k: int, closeness: np.ndarray, farness: np.ndarray, reachable: np.ndarray,
    eligible: np.ndarray,
) -> TopKResult:
    idx = np.nonzero(eligible)[0]
    order = np.lexsort((idx, -closeness[idx]))
    chosen = idx[order][:k]
    entries = tuple(
        RankedVertex(
            rank=i + 1,
            vertex=int(v),
            label=g.labels[int(v)],
            closeness=float(closeness[v]),
            farness=int(farness[v]),
            reachable=int(reachable[v]),
        )
        for i, v in enumerate(chosen)
    )
    return TopKResult(k=k, entries=entries)


def top_k(
    g: Graph,
    k: int,
    workers: int = 1,
    recorder: BoundaryRecorder | None = None,
) -> tuple[TopKResult, RunStats]:
    """Exact top-k closeness via pruned BFS with a rising threshold.

    Vertices are processed in decreasing degree order; each visit may be cut
    once its closeness provably cannot exceed the current k-th best value.
    ``workers`` > 1 forks that many processes. ``recorder`` is passed to every
    serial visit (see bfs_cut); it cannot be combined with ``workers`` > 1,
    because a forked worker cannot call back into the parent.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if recorder is not None and workers > 1:
        raise ValueError("a boundary recorder requires workers=1")
    t0 = time.perf_counter()
    bounds = reachability_for(g)
    order = processing_order(g)
    prep = time.perf_counter() - t0

    n = g.n
    closeness = np.zeros(n, dtype=np.float64)
    farness = np.zeros(n, dtype=np.int64)
    reachable = np.ones(n, dtype=np.int64)
    cut_level = np.full(n, -1, dtype=np.int64)
    completed = np.zeros(n, dtype=bool)
    heap = ThresholdHeap(k)
    m_vis = 0

    skip = (bounds.exact & (bounds.r <= 1)) | (bounds.alpha <= 1) | (n <= 1)

    if workers > 1 and n:
        m_vis = _run_parallel(
            g, bounds, order, skip, heap, workers,
            closeness, farness, reachable, cut_level, completed,
        )
    else:
        seen_epoch = np.zeros(n, dtype=np.int64)
        for epoch, v in enumerate(order.tolist(), start=1):
            if skip[v]:
                completed[v] = True
                heap.push(0.0)
                continue
            out = bfs_cut(g, v, lambda: heap.threshold, bounds, seen_epoch, epoch, recorder)
            m_vis += out.arcs
            if out.closeness == CUT:
                cut_level[v] = out.cut_level
            else:
                closeness[v] = out.closeness
                farness[v] = out.farness
                reachable[v] = out.reachable
                completed[v] = True
                heap.push(out.closeness)

    result = _rank(g, k, closeness, farness, reachable, completed)
    stats = RunStats(
        m_vis=int(m_vis),
        m_tot=exact_m_tot(g, bounds),
        cut_level=cut_level,
        completed=completed,
        preprocessing_seconds=prep,
        total_seconds=time.perf_counter() - t0,
        final_threshold=heap.threshold,
    )
    return result, stats


class _SharedThresholdHeap:
    """Size-k min-heap living in shared memory, updated by any worker under a
    single lock; the threshold is mirrored into a lock-free double for cheap
    reads at level boundaries."""

    def __init__(self, ctx, k: int):
        self.k = k
        self._values = ctx.Array("d", k, lock=False)
        self._count = ctx.Value("l", 0, lock=False)
        self._lock = ctx.Lock()
        self.xk = ctx.Value("d", 0.0, lock=False)

    def push(self, value: float) -> None:
        with self._lock:
            heap = self._values
            count = self._count.value
            if count < self.k:
                # sift up
                i = count
                heap[i] = value
                while i > 0:
                    parent = (i - 1) // 2
                    if heap[parent] <= heap[i]:
                        break
                    heap[parent], heap[i] = heap[i], heap[parent]
                    i = parent
                count += 1
                self._count.value = count
            elif value > heap[0]:
                # replace root, sift down
                heap[0] = value
                i = 0
                while True:
                    left, right = 2 * i + 1, 2 * i + 2
                    smallest = i
                    if left < count and heap[left] < heap[smallest]:
                        smallest = left
                    if right < count and heap[right] < heap[smallest]:
                        smallest = right
                    if smallest == i:
                        break
                    heap[smallest], heap[i] = heap[i], heap[smallest]
                    i = smallest
            new_xk = heap[0] if count == self.k else 0.0
            if new_xk < self.xk.value:
                raise RuntimeError("threshold must be monotone")
            self.xk.value = new_xk


def _worker_loop(g, bounds, order, skip, cursor, shared_heap, out_q):
    """Runs in a forked process: grab the next vertex, visit, publish the
    closeness through the shared threshold heap, report to the parent."""
    n = g.n
    seen_epoch = np.zeros(n, dtype=np.int64)
    m_vis = 0
    read_x = lambda: shared_heap.xk.value  # re-read at every level boundary
    while True:
        with cursor.get_lock():
            i = cursor.value
            cursor.value = i + 1
        if i >= len(order):
            break
        v = int(order[i])
        if skip[v]:
            shared_heap.push(0.0)
            out_q.put((v, 0.0, 0, 1, -1))
            continue
        out = bfs_cut(g, v, read_x, bounds, seen_epoch, i + 1)
        m_vis += out.arcs
        if out.closeness == CUT:
            out_q.put((v, CUT, 0, 0, out.cut_level))
        else:
            shared_heap.push(out.closeness)
            out_q.put((v, out.closeness, out.farness, out.reachable, -1))
    out_q.put(("done", m_vis))


def _run_parallel(
    g, bounds, order, skip, heap, workers,
    closeness, farness, reachable, cut_level, completed,
) -> int:
    """Fork worker processes sharing the graph copy-on-write. Workers update
    the shared k-heap synchronously; a worker may still read a stale (smaller)
    threshold mid-visit, which can only delay a cut, never cause a wrong one.
    """
    ctx = mp.get_context("fork")
    cursor = ctx.Value("l", 0)
    shared_heap = _SharedThresholdHeap(ctx, heap.k)
    out_q = ctx.SimpleQueue()
    procs = [
        ctx.Process(target=_worker_loop, args=(g, bounds, order, skip, cursor, shared_heap, out_q))
        for _ in range(workers)
    ]
    for p in procs:
        p.start()
    m_vis = 0
    remaining = workers
    try:
        while remaining:
            msg = out_q.get()
            if msg[0] == "done":
                m_vis += msg[1]
                remaining -= 1
                continue
            v, c, f, r, cl = msg
            if c == CUT:
                cut_level[v] = cl
            else:
                closeness[v] = c
                farness[v] = f
                reachable[v] = r
                completed[v] = True
                heap.push(c)  # parent mirror, used for the final ranking
    finally:
        for p in procs:
            p.join()
    return m_vis
