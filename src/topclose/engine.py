"""Top-k closeness engine: farness/closeness bound functions, the pruned BFS
visit, the degree-ordered main loop with a rising k-th-best threshold, and a
process-based parallel scheduler."""

from __future__ import annotations

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
    size of the next frontier. Any argument may be an integer numpy array.
    """
    return f_d - gamma_next + (d + 2) * (x - n_d)


def closeness_upper_bound(lam, r, n: int):
    """Closeness upper bound from a farness lower bound and the exact
    reachable count. Returns +inf when the bound degenerates (lam <= 0).

    ``lam`` and ``r`` may be integer numpy arrays (evaluated elementwise).
    The array result is bit-identical to the integer one wherever (r-1)**2
    and (n-1)*lam are below 2**53 (see _exact_in_float).
    """
    num, den = (r - 1) ** 2, (n - 1) * lam
    if isinstance(lam, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(lam > 0, num / den, INF)
    return num / den if lam > 0 else INF


def inverse_closeness_lower_bound(
    d: int, f_d: int, n_d: int, gamma_next: int, alpha: int, omega: int, n: int
):
    """Lower bound on 1/closeness when only alpha <= r(v) <= omega is known.

    The minimum over the reachable-count interval is attained at one of the
    two extremes. A non-positive result is trivially valid and never cuts.
    Arrays are accepted as for closeness_upper_bound (alpha >= 2 elementwise).
    """
    la = farness_lower_bound(d, f_d, n_d, gamma_next, alpha)
    lo = farness_lower_bound(d, f_d, n_d, gamma_next, omega)
    low = np.minimum if isinstance(la, np.ndarray) else min
    return (n - 1) * low(la / (alpha - 1) ** 2, lo / (omega - 1) ** 2)


def _exact_in_float(*values: np.ndarray) -> np.ndarray:
    """True where every value, computed in float64 from integers, is below
    2**53 in magnitude. Rounding is monotone, so the exact integer is below it
    too and float64 holds it exactly; one rounded division or product of such
    integers then matches Python's integer arithmetic bit for bit."""
    return np.all([np.abs(a) < 2.0**53 for a in values], axis=0)


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

    top_k calls it only for the vertices its Screen cannot settle: those
    not cut at boundary 0 (nor at boundary 1, with an exact r(v)) whose
    level 2 may be non-empty.

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
    return _completed(nd, f, n, arcs, scanned)


def _completed(r: int, f: int, n: int, arcs: int, scanned: int) -> VisitOutcome:
    """A visit that reached all r vertices at total distance f: the farness
    bound is then the farness, so closeness_upper_bound gives the closeness."""
    c = closeness_upper_bound(f, r, n) if r > 1 else 0.0
    return VisitOutcome(c, f, r, -1, arcs, scanned)


@dataclass(frozen=True)
class Screen:
    """The cut tests at boundaries 0 and 1 of every visit, evaluated up front.

    At those boundaries a visit from v knows only deg(v), the degree sum S1(v)
    over N(v), and r(v) or alpha/omega, none of which depends on the
    threshold x. So the bounds are computed once per top_k, by the same bound
    functions bfs_cut calls, and a visit they cut at x, or one whose level 2
    is provably empty, is settled without a BFS. A vertex is screened only
    where the array arithmetic matches bfs_cut's bit for bit
    (_exact_in_float); the others always go to bfs_cut.
    """

    n: int
    undirected: bool
    skip: np.ndarray  # bool: never visited (r(v) or alpha(v) <= 1)
    degrees: np.ndarray
    s1: np.ndarray  # degree sum over N(v): the arcs out of level 1
    ub0: np.ndarray  # closeness upper bound at boundary 0; +inf if not screened
    ub1: np.ndarray  # at boundary 1; +inf if level 2 is empty or not screened
    inv0: np.ndarray  # 1/closeness lower bound at boundary 0 (alpha/omega); else -inf
    ends: np.ndarray  # bool: the visit completes at level 1 unless cut at 0

    @classmethod
    def build(cls, g: Graph, bounds: ReachabilityBounds, skip: np.ndarray) -> "Screen":
        n = g.n
        deg = g.degrees
        summed = np.zeros(g.m + 1, dtype=np.int64)  # prefix sums of deg(targets)
        np.take(deg, g.targets, out=summed[1:], mode="clip")  # "raise" buffers a copy
        np.cumsum(summed, out=summed)
        s1 = summed[g.offsets[1:]] - summed[g.offsets[:-1]]
        del summed
        ub0 = np.full(n, INF)
        ub1 = np.full(n, INF)
        inv0 = np.full(n, -INF)
        ends = np.zeros(n, dtype=bool)

        ex = np.flatnonzero(bounds.exact & ~skip)
        d, r = deg[ex], bounds.r[ex]
        lam0 = farness_lower_bound(0, 0, 1, d, r)
        gamma1 = s1[ex] - d if not g.directed else s1[ex]  # as bfs_cut refines it
        lam1 = farness_lower_bound(1, d, 1 + d, gamma1, r)
        deeper = 1 + d < r  # level 2 exists
        fits = _exact_in_float(
            (r - 1.0) ** 2, (n - 1.0) * lam0, (n - 1.0) * np.where(deeper, lam1, 0)
        )
        ex, d, r, lam0, lam1, deeper = (a[fits] for a in (ex, d, r, lam0, lam1, deeper))
        ub0[ex] = closeness_upper_bound(lam0, r, n)
        ub1[ex[deeper]] = closeness_upper_bound(lam1[deeper], r[deeper], n)
        ends[ex] = ~deeper

        ao = np.flatnonzero(~bounds.exact & ~skip)
        d, alpha, omega = deg[ao], bounds.alpha[ao], bounds.omega[ao]
        # this suffices: the farness bounds are at most deg(v) + 2 omega
        # <= 3 omega in magnitude, as N(v) is reachable
        fits = _exact_in_float((omega - 1.0) ** 2)
        ao, d, alpha, omega = (a[fits] for a in (ao, d, alpha, omega))
        inv0[ao] = inverse_closeness_lower_bound(0, 0, 1, d, alpha, omega, n)
        ends[ao] = s1[ao] == 0
        return cls(n, not g.directed, skip, deg, s1, ub0, ub1, inv0, ends)

    def _cut0(self, vs, x: float):
        """Whether bfs_cut would cut the visits from vs (an index or an
        array) at boundary 0 under threshold x."""
        return (self.ub0[vs] <= x) | (self.inv0[vs] >= (1.0 / x if x > 0 else INF))

    def _settled(self, vs, x: float):
        """Whether the vertices vs are skipped or cut at boundary 0 or 1."""
        return self.skip[vs] | self._cut0(vs, x) | (self.ub1[vs] <= x)

    def run_end(self, order: np.ndarray, i: int, x: float) -> int:
        """The first position j >= i whose vertex the screen can neither skip
        nor cut at threshold x, or len(order): order[i:j] is settled.

        The vertex at i is tested alone first, since on a graph the screen
        cannot prune that is all it costs; then windows of doubling width."""
        end = len(order)
        if i >= end or not self._settled(order[i], x):
            return min(i, end)
        i += 1
        width = 8
        while i < end:
            settled = self._settled(order[i : i + width], x)
            if not settled.all():
                return i + int(settled.argmin())
            i += width
            width *= 2
        return end

    def settle(
        self, vs: np.ndarray, x: float, cut_level: np.ndarray,
        recorder: BoundaryRecorder | None,
    ) -> tuple[int, int, int]:
        """Write the cut level of every unskipped vertex of a run (vertices
        run_end found settled at x) and replay its boundaries to ``recorder``.
        Returns (m_vis, arcs_scanned, settled vertices) as bfs_cut would
        count them, except that a settled visit scans only the arcs its cut
        test reads: none at level 0, the deg(v) arcs summed into S1(v) at
        level 1."""
        vs = vs[~self.skip[vs]]
        deep = ~self._cut0(vs, x)  # cut at level 1
        cut_level[vs] = deep
        deg, s1 = self.degrees[vs], self.s1[vs]
        if recorder is not None:
            for v, lvl, dv, sv in zip(vs.tolist(), deep.tolist(), deg.tolist(), s1.tolist()):
                recorder(v, 0, 0, 1, dv)
                if lvl:
                    recorder(v, 1, dv, 1 + dv, sv - dv if self.undirected else sv)
        scanned = int(deg[deep].sum())
        return int(deg.sum() + s1[deep].sum()), scanned, len(vs)

    def complete(self, v: int, recorder: BoundaryRecorder | None) -> VisitOutcome:
        """The visit from an ``ends`` vertex not cut at boundary 0: it
        reaches v and N(v) and nothing else."""
        dv, sv = int(self.degrees[v]), int(self.s1[v])
        if recorder is not None:
            recorder(v, 0, 0, 1, dv)
        return _completed(1 + dv, dv, self.n, dv + sv, dv)


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
    # arcs actually read (<= m_vis): those bfs_cut gathered, and for a
    # screened visit the arcs its cut test reads (0 at level 0, deg(v) summed
    # into S1(v) at level 1)
    arcs_scanned: int = 0
    screened: int = 0  # visits settled without a bfs_cut call
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
    Visits settled at boundary 0 or 1 are settled in bulk from per-vertex
    degree statistics (see Screen); only the others run bfs_cut. ``workers``
    > 1 forks that many processes. ``recorder`` sees every boundary a serial
    visit evaluates (see bfs_cut), replayed for the screened ones; it cannot
    be combined with ``workers`` > 1, because a forked worker cannot call
    back into the parent.
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
    skip = bounds.alpha <= 1  # alpha(v) = 1 only where v reaches no other vertex
    screen = Screen.build(g, bounds, skip)
    if workers > 1 and n:
        heap, results, counts = _run_parallel(g, bounds, screen, order, k, workers)
    else:
        heap = ThresholdHeap(k)
        results = _results(n, np.zeros)
        cursor = np.zeros(1, dtype=np.int64)
        counts = _visit_all(
            g, bounds, screen, order, heap, cursor, nullcontext(), results, recorder
        )
    m_vis, scanned, screened = counts
    closeness, farness, reachable, cut_level = results

    result = _rank(g, k, closeness, farness, reachable, cut_level < 0)
    stats = RunStats(
        m_vis=int(m_vis),
        arcs_scanned=int(scanned),
        screened=int(screened),
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
    g, bounds, screen, order, heap, cursor, lock, results, recorder=None
) -> tuple[int, int, int]:
    """The main loop. Under one hold of ``lock`` it claims, from the position
    ``cursor[0]``, the run of vertices the screen settles at the current
    threshold x plus the vertex j that ends the run, and moves the cursor past
    j. It writes the run's cut levels in bulk, then settles j from the screen
    if j's visit ends at level 1, or else runs bfs_cut from j (the only
    vertices bfs_cut sees); a completed visit's closeness goes into ``heap``,
    which is what raises x. Outcomes go into ``results`` (see _results) until
    the cursor runs past the end. Returns (m_vis, arcs_scanned, screened) of
    the vertices settled here."""
    closeness, farness, reachable, cut_level = results
    seen_epoch = np.zeros(g.n, dtype=np.int64)
    slot = np.empty(g.n, dtype=np.int64)
    threshold = lambda: heap.threshold  # re-read at every level boundary
    end = len(order)
    m_vis = scanned = screened = 0
    while True:
        with lock:
            i = int(cursor[0])
            x = heap.threshold
            j = screen.run_end(order, i, x)
            cursor[0] = j + 1
        if j > i:
            arcs, read, count = screen.settle(order[i:j], x, cut_level, recorder)
            m_vis += arcs
            scanned += read
            screened += count
        if j >= end:
            return m_vis, scanned, screened
        v = int(order[j])
        if screen.ends[v]:
            out = screen.complete(v, recorder)
            screened += 1
        else:
            out = bfs_cut(g, v, threshold, bounds, seen_epoch, j + 1, slot, recorder)
        m_vis += out.arcs
        scanned += out.arcs_scanned
        if out.closeness == CUT:
            cut_level[v] = out.cut_level
        else:
            closeness[v] = out.closeness
            farness[v] = out.farness
            reachable[v] = out.reachable
            heap.push(out.closeness)


def _run_parallel(g, bounds, screen, order, k, workers):
    """Fork worker processes sharing the graph and the screen copy-on-write.
    Each runs _visit_all over one threshold heap, one cursor and one set of
    result arrays in shared memory. A worker may read a stale (smaller)
    threshold, which can only delay a cut, never cause a wrong one.

    The parent waits on the process sentinels only; a worker that exits with a
    nonzero code raises RuntimeError naming the code. Returns the heap, the
    result arrays and (m_vis, arcs_scanned, screened) summed over the workers.
    """
    # imported here: it costs serial runs about 0.5 MB of peak RSS
    from multiprocessing.connection import wait

    ctx = mp.get_context("fork")

    def shared_zeros(length, dtype):
        raw = ctx.RawArray(np.ctypeslib.as_ctypes_type(dtype), length)
        return np.frombuffer(raw, dtype=dtype)

    heap = ThresholdHeap(k, shared_zeros(k + 1, np.float64), ctx.Lock())
    results = _results(g.n, shared_zeros)
    counts = shared_zeros(3 * workers, np.int64).reshape(workers, 3)
    cursor = shared_zeros(1, np.int64)
    lock = ctx.Lock()

    def work(w: int) -> None:
        counts[w] = _visit_all(g, bounds, screen, order, heap, cursor, lock, results)

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
    return heap, results, counts.sum(axis=0)
