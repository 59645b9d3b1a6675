"""Top-k closeness engine: farness/closeness bound functions, the pruned BFS
visit, the degree-ordered main loop with a rising k-th-best threshold, and a
process-based parallel scheduler."""

from __future__ import annotations

import itertools
import multiprocessing as mp
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import Graph, distinct, frontier_neighbors
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
    arcs: int  # arcs out of the expanded levels (the paper's m_vis share)
    arcs_scanned: int  # arcs the kernel actually gathered (<= arcs)


BoundaryRecorder = Callable[[int, int, int, int, int], None]
# recorder(vertex, d, f_d, n_d, gamma_next) at every evaluated level boundary


def bfs_cut(
    g: Graph,
    v: int,
    threshold: Callable[[], float],
    bounds: ReachabilityBounds,
    seen_epoch: np.ndarray,
    epoch: int,
    slot: np.ndarray,
    recorder: BoundaryRecorder | None = None,
) -> VisitOutcome:
    """Level-synchronous pruned BFS from v.

    At every level boundary d -> d+1 (level d expanded, level d+1 non-empty)
    the regime bound is evaluated against the current threshold x: with an
    exact reachable count the closeness upper bound, otherwise the
    inverse-closeness lower bound from alpha/omega. Returns CUT as soon as
    closeness <= x is certain. ``recorder``, if given, sees each evaluated
    boundary just before the cut test.

    With an exact r(v) the boundary needs only degrees (level d+1 is
    non-empty iff fewer than r(v) vertices are seen), so the cut test runs
    before level d's out-arcs are gathered and a cut visit never gathers the
    level it throws away. With alpha/omega only, level d is gathered first
    to learn whether level d+1 exists.

    ``seen_epoch`` is reusable scratch of length n: a vertex is visited in
    this call iff seen_epoch[w] == epoch (avoids clearing between visits), so
    ``epoch`` must differ from every value already stored in it. ``slot`` is
    reusable dedup scratch of length n (see graph.distinct).
    """
    n = g.n
    degrees = g.degrees
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
    scanned = 0
    while True:
        fsize = len(frontier)
        f += d * fsize
        nd += fsize
        if exact_r:
            deg_sum = int(degrees[frontier].sum())
            more = nd < r_v  # level d+1 exists iff r(v) is not yet reached
        else:
            neigh = frontier_neighbors(g, frontier)
            deg_sum = len(neigh)
            scanned += deg_sum
            new = neigh[seen_epoch[neigh] != epoch]
            more = new.size > 0
        arcs += deg_sum
        if not more:
            break
        # undirected refinement: beyond level 0 one edge per frontier vertex
        # must point back into the previous level
        gamma_next = deg_sum - fsize if (undirected and d >= 1) else deg_sum
        if recorder is not None:
            recorder(v, d, f, nd, gamma_next)
        x = threshold()
        if exact_r:
            lam = farness_lower_bound(d, f, nd, gamma_next, r_v)
            if closeness_upper_bound(lam, r_v, n) <= x:
                return VisitOutcome(CUT, f, nd, d, arcs, scanned)
            neigh = frontier_neighbors(g, frontier)
            scanned += deg_sum
            new = neigh[seen_epoch[neigh] != epoch]
        else:
            inv = inverse_closeness_lower_bound(d, f, nd, gamma_next, alpha, omega, n)
            if x > 0 and inv >= 1.0 / x:
                return VisitOutcome(CUT, f, nd, d, arcs, scanned)
        frontier = distinct(new, slot)
        seen_epoch[frontier] = epoch
        d += 1
    r = nd
    c = 0.0 if r <= 1 or n <= 1 else (r - 1) ** 2 / ((n - 1) * f)
    return VisitOutcome(c, f, r, -1, arcs, scanned)


class ThresholdHeap:
    """The k biggest closeness values seen so far, in a float64 buffer of k
    zeros plus one slot that holds the threshold.

    Every closeness is >= 0, so the threshold, the k-th biggest value once k
    values are present and 0 before, is the minimum of the k values; it never
    decreases. A ``buffer`` in shared memory and a ``lock`` let forked workers
    push into one heap; reading the threshold takes no lock.
    """

    def __init__(self, k: int, buffer: np.ndarray | None = None, lock=None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._values = np.zeros(k + 1) if buffer is None else buffer
        self._lock = nullcontext() if lock is None else lock

    def push(self, value: float) -> None:
        values = self._values
        k = self.k
        with self._lock:
            i = int(values[:k].argmin())
            if value <= values[i]:
                return
            values[i] = value
            new_xk = values[:k].min()
            if new_xk < values[k]:
                raise RuntimeError("threshold must be monotone")
            values[k] = new_xk

    @property
    def threshold(self) -> float:
        return float(self._values[self.k])


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
    m_vis: int = 0  # the paper's arc count: out-arcs of every expanded level
    m_tot: int | None = None
    arcs_scanned: int = 0  # arcs the visit kernel actually gathered (<= m_vis)
    cut_level: np.ndarray | None = None  # -1 where the visit completed
    preprocessing_seconds: float = 0.0
    total_seconds: float = 0.0
    final_threshold: float = 0.0

    @property
    def completed(self) -> np.ndarray | None:
        """True where the visit completed (or the vertex was skipped)."""
        return None if self.cut_level is None else self.cut_level < 0

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
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if recorder is not None and workers > 1:
        raise ValueError("a boundary recorder requires workers=1")
    t0 = time.perf_counter()
    bounds = reachability_for(g)
    order = processing_order(g)
    prep = time.perf_counter() - t0

    n = g.n
    skip = (bounds.exact & (bounds.r <= 1)) | (bounds.alpha <= 1) | (n <= 1)
    if workers > 1 and n:
        heap, results, m_vis, scanned = _run_parallel(g, bounds, order, skip, k, workers)
    else:
        heap = ThresholdHeap(k)
        results = _results(n, np.zeros)
        m_vis, scanned = _visit_all(
            g, bounds, order, skip, heap, itertools.count().__next__, results, recorder
        )
    closeness, farness, reachable, cut_level = results

    result = _rank(g, k, closeness, farness, reachable, cut_level < 0)
    stats = RunStats(
        m_vis=int(m_vis),
        arcs_scanned=int(scanned),
        m_tot=exact_m_tot(g, bounds),
        cut_level=cut_level,
        preprocessing_seconds=prep,
        total_seconds=time.perf_counter() - t0,
        final_threshold=heap.threshold,
    )
    return result, stats


def _results(n: int, zeros) -> tuple[np.ndarray, ...]:
    """Per-vertex (closeness, farness, reachable, cut_level) arrays made by
    ``zeros(length, dtype)``. A vertex no visit writes to (a skipped one)
    reads as completed with closeness 0 and only itself reachable."""
    closeness = zeros(n, np.float64)
    farness = zeros(n, np.int64)
    reachable = zeros(n, np.int64)
    reachable[:] = 1
    cut_level = zeros(n, np.int64)
    cut_level[:] = -1
    return closeness, farness, reachable, cut_level


def _visit_all(
    g, bounds, order, skip, heap, next_index, results, recorder=None
) -> tuple[int, int]:
    """The main loop: visit order[i] for each i that ``next_index()`` hands
    out until it runs past the end, cutting against ``heap``'s threshold and
    writing each outcome into ``results`` (see _results). Returns (m_vis,
    arcs_scanned) of the visits made here."""
    closeness, farness, reachable, cut_level = results
    seen_epoch = np.zeros(g.n, dtype=np.int64)
    slot = np.empty(g.n, dtype=np.int64)
    threshold = lambda: heap.threshold  # re-read at every level boundary
    m_vis = 0
    scanned = 0
    while (i := next_index()) < len(order):
        v = int(order[i])
        if skip[v]:
            continue
        out = bfs_cut(g, v, threshold, bounds, seen_epoch, i + 1, slot, recorder)
        m_vis += out.arcs
        scanned += out.arcs_scanned
        if out.closeness == CUT:
            cut_level[v] = out.cut_level
        else:
            closeness[v] = out.closeness
            farness[v] = out.farness
            reachable[v] = out.reachable
            heap.push(out.closeness)
    return m_vis, scanned


def _run_parallel(g, bounds, order, skip, k, workers):
    """Fork worker processes sharing the graph copy-on-write. Each runs
    _visit_all over one threshold heap and one set of result arrays in shared
    memory, taking vertices one at a time from a shared cursor. A worker may
    read a stale (smaller) threshold mid-visit, which can only delay a cut,
    never cause a wrong one.

    The parent waits on the process sentinels only; a worker that exits with a
    nonzero code raises RuntimeError naming the code. Returns the heap, the
    result arrays and (m_vis, arcs_scanned) summed over the workers.
    """
    # imported here: it costs serial runs about 0.5 MB of peak RSS
    from multiprocessing.connection import wait

    ctx = mp.get_context("fork")

    def shared_zeros(length, dtype):
        raw = ctx.RawArray(np.ctypeslib.as_ctypes_type(dtype), length)
        return np.frombuffer(raw, dtype=dtype)

    heap = ThresholdHeap(k, shared_zeros(k + 1, np.float64), ctx.Lock())
    results = _results(g.n, shared_zeros)
    counts = shared_zeros(2 * workers, np.int64).reshape(workers, 2)
    cursor = ctx.Value("l", 0)

    def next_index() -> int:
        with cursor.get_lock():
            i = cursor.value
            cursor.value = i + 1
        return i

    def work(w: int) -> None:
        counts[w] = _visit_all(g, bounds, order, skip, heap, next_index, results)

    procs = []
    try:
        for w in range(workers):
            p = ctx.Process(target=work, args=(w,))
            p.start()
            procs.append(p)
        running = {p.sentinel: p for p in procs}
        while running:
            for sentinel in wait(list(running)):
                p = running.pop(sentinel)
                p.join()
                if p.exitcode != 0:
                    raise RuntimeError(
                        f"top_k worker (pid {p.pid}) exited with code {p.exitcode}"
                    )
    except BaseException:
        for p in procs:
            p.terminate()  # the others may wait on a lock the dead one held
        raise
    finally:
        for p in procs:
            p.join()
    m_vis, scanned = counts.sum(axis=0)
    return heap, results, int(m_vis), int(scanned)
