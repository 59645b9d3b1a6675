"""Top-k closeness engine: farness/closeness bound functions, the pruned BFS
kernel, the degree-ordered main loop with a rising k-th-best threshold, and a
process-based parallel scheduler.

Every cut key is an exact upper bound on closeness (see cut_keys), and every
cut test is key <= x at the k-th best closeness x. The kernel runs up to 64
visits as one bit-parallel BFS, one level per step, and records every level
boundary. A step reads its level top-down (a gather of the frontier's arcs)
or, on an undirected graph once the frontier holds m/16 arcs or more,
bottom-up (every vertex ORs its neighbours' masks in one pass over the
CSR). A visit that leaves hands its bit to the next claimed vertex at once,
so the kernel stays full and numpy's per-level call cost is shared by 64
visits. Every visit has one record, a row per boundary that holds the state
its cut key reads; the screen writes rows 0 and 1. Between steps decide
settles the claimed visits, in processing order, against the live
threshold, as the paper's one-at-a-time pruned BFS would."""

from __future__ import annotations

import fcntl
import os
import signal
import tempfile
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .graph import Graph, distinct, frontier_neighbors, neighbor_or, pull_rows
from .scc import ReachabilityBounds, reachability_for

INF = float("inf")
CUT = -1.0  # a cut visit's closeness (see VisitOutcome)


def farness_lower_bound(d: int, f_d: int, n_d: int, gamma_next: int, x: int) -> int:
    """Lower bound on the final farness given the state of a visit at the end
    of level d, under the hypothesis that x vertices are reachable.

    Valid (<= true farness) whenever x <= r(v) and gamma_next is at least the
    size of the next frontier. Any argument may be an integer numpy array.
    """
    return f_d - gamma_next + (d + 2) * (x - n_d)


def closeness_upper_bound(lam, r, n: int):
    """Closeness upper bound from a farness lower bound lam that assumes r
    reachable vertices (see farness_lower_bound). Returns +inf when the
    bound degenerates (lam <= 0).

    ``lam`` and ``r`` may be integer numpy arrays (evaluated elementwise);
    cut_keys says where the array result matches the integer one.
    """
    num, den = (r - 1) ** 2, (n - 1) * lam
    if isinstance(lam, np.ndarray):
        return np.divide(num, den, out=np.full(den.shape, INF), where=lam > 0)
    return num / den if lam > 0 else INF


def interval_closeness_bound(
    d: int, f_d: int, n_d: int, gamma_next: int, alpha: int, omega: int, n: int
):
    """Upper bound on closeness when only alpha <= r(v) <= omega is known:
    the larger of closeness_upper_bound at the interval's two ends, where
    the paper's bound on 1/closeness takes its minimum. The n_d vertices
    seen through level d are all reachable, so the lower end rises to n_d
    (clipped at omega, so it stays <= omega). Where alpha = omega = r(v) it
    is closeness_upper_bound at r(v). Scalars only, in Python integers
    (Fractions work too); cut_keys is the array form.
    """
    low = max(alpha, min(n_d, omega))
    return max(
        closeness_upper_bound(farness_lower_bound(d, f_d, n_d, gamma_next, x), x, n)
        for x in (low, omega)
    )


def cut_keys(d, f_d, n_d, gamma_next, alpha, omega, n: int) -> np.ndarray:
    """The cut key of each visit at boundary d, elementwise over integer
    arrays: interval_closeness_bound, bit for bit. Below 2**53 float64
    holds the intermediates at either end, (x-1)**2 and (n-1)*lam, exactly
    (as rounding is monotone), and one rounded division of them matches
    Python's integer arithmetic. One scalar test of the largest terms, in
    Python integers, tells whether any entry reaches 2**53; only then are
    those entries found and recomputed in Python integers. A lam <= 0 gives
    +inf in both."""
    x = omega
    if np.count_nonzero(alpha < omega):  # far cheaper than any() on a small array
        x = np.array([omega, np.maximum(alpha, np.minimum(n_d, omega))])
    lam = farness_lower_bound(d, f_d, n_d, gamma_next, x)
    key = closeness_upper_bound(lam, x, n)
    key = np.maximum(key[0], key[1]) if key.ndim == 2 else key
    if max((int(x.max(initial=1)) - 1) ** 2, (n - 1) * int(lam.max(initial=0))) >= 2**53:
        big = np.maximum((x - 1.0) ** 2, (n - 1.0) * lam) >= 2.0**53
        rows = np.flatnonzero(big.any(axis=0) if big.ndim == 2 else big)
        state = np.broadcast_arrays(d, f_d, n_d, gamma_next, alpha, omega)
        per_row = zip(*(a[rows].tolist() for a in state))
        key[rows] = [interval_closeness_bound(*row, n) for row in per_row]  # in Python integers
    return key


@dataclass
class VisitOutcome:
    closeness: float  # CUT if pruned
    farness: int
    reachable: int  # vertices visited (valid when completed)
    cut_level: int  # -1 if completed
    arcs: int  # arcs out of the expanded levels (the paper's m_vis share)


BoundaryRecorder = Callable[[int, int, int, int, int], None]
# recorder(vertex, d, f_d, n_d, gamma_next) at every evaluated level boundary

BATCH = 64  # live visits per kernel: one bit each of a uint64 mask
_SPAN = 4096  # visits per decide call: bounds its records and temporaries to about 1 MB
_CHUNK = 8192  # arcs per gather step (64 kB per temporary); a count step takes _CHUNK // 8 masks
_PULL = 16  # an undirected step pulls once its frontier holds m / _PULL arcs or more
_SLOTS = np.arange(BATCH)
_BIT = np.left_shift(np.uint64(1), _SLOTS.astype(np.uint64))  # the mask bit of each slot
# [b, i]: bit i of the byte value b, lowest first, as the count's matmul reads it
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], 1, bitorder="little")
_BYTE_BITS = _BYTE_BITS.astype(np.float32)


def _per_source(masks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A (2, 64) int64 array: in [0, s] how many of ``masks`` have bit s
    set, and in [1, s] the sum of their ``weights``. One take of the masks'
    bytes from _BYTE_BITS lays out their bits, 64 per mask in slot order,
    and one matmul of the rows [1; weights] with them sums them, per chunk
    of _CHUNK // 8 masks (one for most frontiers). Exact, as every partial
    sum is an integer below the dtype's 2**p: float32 (p = 24, 256 kB of
    bits per chunk) while the weights sum below 2**24, else float64 (p = 53;
    a frontier's degrees sum to at most 2m)."""
    dtype = np.float32 if weights.sum() < 2**24 else np.float64
    rows = np.ones((2, len(masks)), dtype)
    rows[1] = weights
    table = _BYTE_BITS.astype(dtype, copy=False)
    as_bytes = masks.astype("<u8", copy=False).view(np.uint8)
    step = _CHUNK // 8

    def count(a: int) -> np.ndarray:
        bits = table.take(as_bytes[8 * a : 8 * (a + step)], axis=0).reshape(-1, BATCH)
        return (rows[:, a : a + step] @ bits).astype(np.int64)

    return count(0) if len(masks) <= step else sum(map(count, range(0, len(masks), step)))


def _spans(sizes: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Consecutive slices [a, z) covering ``sizes``, each summing to at most
    ``cap`` or holding a single larger item."""
    cum = np.cumsum(sizes)
    if cum[-1] <= cap:
        return [(0, len(sizes))]
    spans, a = [], 0
    while a < len(sizes):
        z = int(np.searchsorted(cum, (cum[a - 1] if a else 0) + cap, side="right"))
        spans.append((a, max(z, a + 1)))
        a = spans[-1][1]
    return spans


def _word(masks: np.ndarray) -> np.uint64:
    """The OR of an array of uint64 masks."""
    return np.bitwise_or.reduce(masks, initial=np.uint64(0))


class Kernel:
    """Pruned BFS from up to BATCH live sources at once, one level per step.

    Each visit holds a slot whose bit marks it in uint64 masks: a frontier
    vertex carries the mask of the visits whose current level holds it, so
    one read per step serves all of them. A step pushes: one
    frontier_neighbors gather of the frontier's arcs ORs each mask into the
    vertices it reaches. On an undirected graph whose frontier holds at
    least m / _PULL arcs it pulls instead (Beamer et al.'s
    direction-optimizing BFS): neighbor_or reads all m arcs once, in CSR
    order, and ORs into every vertex the masks of its frontier neighbours.
    Both give each vertex the same word, less the visits that have seen it.
    A directed pull would need an in-arc CSR, which no graph here keeps.

    A visit started between steps begins at the next one, and its level d
    (given to cut_keys and to the undirected refinement of gamma), farness
    and counts run from its own start. A slot keeps its visit's alpha and
    omega; r(v) is exact where they meet. Each step records every visit's
    boundary at its slot and level d, in ints[:, slot, d] (the five rows
    of ``state``, in one write) and keys[slot, d]: the state the cut key
    reads (f_d, n_d, gamma), the level's degree sum, whether the next level
    exists, and the cut key (see cut_keys: exact, so no float rounding
    decides a cut).

    A visit leaves once it completes, its key is <= the step's threshold x,
    or (where the bounds disagree with the graph) its next level is empty;
    its record is then its slot's first ``depth`` levels, and its bit
    leaves ``seen`` as the slot frees. An exact-r visit is
    tested before the gather (level d+1 exists iff fewer than r(v) vertices
    are seen) and never gathers the level it throws away; an alpha/omega
    visit is tested after the gather that tells whether level d+1 exists.
    Every mask is nonzero as a step starts, and the frontier the last step
    made holds each vertex once; ``start`` appends to it. An exact-r visit
    that leaves clears its bits from the masks before the read: a pull
    reads the masks as they are, zero ones included, and only a push first
    compacts the frontier to its nonzero masks. The direction is chosen on
    the arcs of the masks still nonzero. Reads run in
    chunks of at most _CHUNK arcs and counts in chunks of _CHUNK // 8 masks
    (see _per_source), so a chunk's temporaries stay within 256 kB.
    """

    def __init__(self, g: Graph, bounds: ReachabilityBounds):
        n = g.n
        self.g, self.bounds = g, bounds
        self.seen = np.zeros(n, np.uint64)  # per vertex: the visits that reached it
        self.acc = np.zeros(n, np.uint64)  # masks a step's read ORs into a vertex; 0 between steps
        self.slot = np.empty(n, np.int64)  # graph.distinct's dedup slot
        self.frontier, self.masks = np.zeros(0, np.int64), np.zeros(0, np.uint64)
        self.started = 0  # the frontier's last entries: the vertices started since the last step
        self.source = np.full(BATCH, -1)  # per slot: the visit's source; -1 where free
        self.d = np.zeros(BATCH, np.int64)  # its level d
        # its state at boundary d, one row each: f_d, n_d, gamma, the degree
        # sum and more (see Records); a step writes it to ints in one go
        self.state = np.zeros((5, BATCH), np.int64)
        self.f, self.nd, self.gamma, self.s, self.more = self.state
        # a free slot keeps valid bounds, so that its (unused) key raises nothing
        self.alpha, self.omega = np.full(BATCH, 2), np.full(BATCH, 2)
        self.ints = np.empty((5, BATCH, 16), np.int64)  # [:, slot, d]: see Records
        self.keys = np.empty((BATCH, 16))  # [slot, d]; both double in d as visits deepen
        self.gathered = self.levels = self.source_levels = 0  # levels: steps so far
        self.dense_levels = 0  # the steps that pulled
        self.free = BATCH  # the slots with no visit

    def start(self, vs: np.ndarray) -> None:
        """Give each vertex of vs (distinct, none running, at most ``free``)
        a free slot and a visit that begins at the next step."""
        slots = (self.source < 0).nonzero()[0][: len(vs)]
        self.free -= len(vs)
        b, bits = self.bounds, _BIT[slots]
        self.source[slots] = vs
        self.f[slots] = self.nd[slots] = 0
        self.alpha[slots], self.omega[slots] = b.alpha[vs], b.omega[vs]
        self.seen[vs] |= bits
        # a vertex on the frontier already joins it again: the masks are
        # disjoint, so a push only repeats its gather and a pull ORs both
        self.frontier = np.concatenate([self.frontier, vs])
        self.masks = np.concatenate([self.masks, bits])
        self.started += len(vs)

    def step(self, x: float) -> Records | None:
        """Expand every running visit by one level at threshold x. Returns
        the records of the visits that left (None if none did)."""
        g, frontier, masks = self.g, self.frontier, self.masks
        d, omega, f, nd, gamma, s = self.d, self.omega, self.f, self.nd, self.gamma, self.s
        live = self.source >= 0
        ao = live & (self.alpha < omega)  # the alpha/omega visits
        some_ao = np.count_nonzero(ao)
        self.source_levels += BATCH - self.free
        if d.max() == self.keys.shape[1]:  # a visit needs more levels than the table holds
            both = (np.concatenate([a, np.empty_like(a)], axis=-1) for a in (self.ints, self.keys))
            self.ints, self.keys = both
        deg = g.degrees[frontier]
        c, s[:] = _per_source(masks, deg)
        dc = d * c
        f += dc
        nd += c
        # undirected refinement: beyond level 0 one edge per frontier vertex
        # must point back into the previous level (min(c, dc) is c there, 0 at d = 0)
        np.subtract(s, np.minimum(c, dc) if not g.directed else 0, out=gamma)
        key = cut_keys(d, f, nd, gamma, self.alpha, omega, g.n)
        cut = key <= x
        more = nd < omega  # exact r(v) = omega; alpha/omega: after the gather
        leave = live & (cut | ~more)
        if some_ao:
            leave &= ~ao
        left = np.count_nonzero(leave)
        if left:  # their bits go; a pull reads the masks this empties as 0
            masks = masks & ~_word(_BIT[leave])
            active = masks != 0
        pull = not g.directed and _PULL * int(deg @ active if left else deg.sum()) >= g.m > 0
        if left and not pull:  # a push gathers only the arcs of nonzero masks
            frontier, masks, deg = frontier[active], masks[active], deg[active]
        if pull:
            frontier, masks = self._pull(frontier, masks, self.started)
        elif frontier.size:
            seen, acc, slot, fresh = self.seen, self.acc, self.slot, []
            for a, z in _spans(deg, _CHUNK):
                neigh = frontier_neighbors(g, frontier[a:z])
                self.gathered += len(neigh)
                arc_masks = np.repeat(masks[a:z], deg[a:z])
                arc_masks &= ~seen[neigh]
                hit = arc_masks != 0  # arcs bringing a visit to a vertex it has not seen
                neigh, arc_masks = neigh[hit], arc_masks[hit]
                fresh.append(distinct(neigh[acc[neigh] == 0], slot))  # new to the next level
                np.bitwise_or.at(acc, neigh, arc_masks)
            frontier = np.concatenate(fresh)
            masks = acc[frontier]
            acc[frontier] = 0
            seen[frontier] |= masks

        if some_ao:
            more = np.where(ao, (_word(masks) & _BIT) != 0, more)
            ao &= cut | ~more
            masks = masks & ~_word(_BIT[ao])
            active = masks != 0
            frontier, masks = frontier[active], masks[active]
        self.more[:] = more
        self.ints[:, _SLOTS, d] = self.state  # a free slot writes level 0, which a start rewrites
        self.keys[_SLOTS, d] = key
        d += live
        self.levels += 1
        self.frontier, self.masks, self.started = frontier, masks, 0
        gone = (live & ((_word(masks) & _BIT) == 0)).nonzero()[0]
        if not gone.size:
            return None
        depth, levels = d[gone], self.keys.shape[1]
        total = depth.cumsum()  # the leaving visits' rows, at (slot, d) in the flattened tables
        rows = (gone * levels + depth - total).repeat(depth) + np.arange(total[-1])
        ints, keys = self.ints.reshape(5, -1).take(rows, axis=1), self.keys.reshape(-1).take(rows)
        rec = Records(self.source[gone], depth, ints, keys)
        self.source[gone] = -1
        self.d[gone] = 0
        self.free += len(depth)
        self.seen &= ~_word(_BIT[gone])
        return rec

    @cached_property
    def _rows(self) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
        """Vertex spans [a, z) whose rows hold at most _CHUNK arcs (or one
        row), each with its pull_rows."""
        g = self.g
        return [(a, z, *pull_rows(g, a, z)) for a, z in _spans(g.degrees, _CHUNK)]

    def _pull(
        self, frontier: np.ndarray, masks: np.ndarray, started: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The next frontier and its masks, read bottom-up (undirected
        graphs only): every vertex ORs the masks of its neighbours on the
        frontier, less the visits that have seen it. The frontier's head,
        all but its last ``started`` entries, holds each vertex once; a
        started vertex may sit there too. The zero masks of vertices whose
        visits all left at this step ride in and OR nothing."""
        g, seen, acc = self.g, self.seen, self.acc
        head = len(frontier) - started
        acc[frontier[:head]] = masks[:head]
        if started:
            np.bitwise_or.at(acc, frontier[head:], masks[head:])
        fresh, words = [], []
        for a, z, starts, has in self._rows:
            pulled = neighbor_or(g, acc, a, z, starts, has)
            pulled &= ~seen[a:z]
            seen[a:z] |= pulled  # 0 where nothing is new
            new = pulled.nonzero()[0]
            fresh.append(new + a)
            words.append(pulled[new])
        acc[frontier] = 0
        self.gathered += g.m
        self.dense_levels += 1
        if len(fresh) == 1:
            return fresh[0], words[0]
        return np.concatenate(fresh), np.concatenate(words)


class Records(NamedTuple):
    """The records of visits, one row per level boundary d = 0, 1, ...:
    visit i holds the depth[i] rows after those of the visits before it."""

    vs: np.ndarray  # the visits' sources
    depth: np.ndarray
    # [:, row]: f_d, n_d and gamma (see farness_lower_bound), the arcs out of
    # level d (its degree sum), and 1 where level d+1 exists
    ints: np.ndarray
    keys: np.ndarray  # [row]: the cut key (see cut_keys)


def decide(
    g: Graph, heap: ThresholdHeap, x: float, results: Outcomes, rec: Records,
    recorder: BoundaryRecorder | None = None,
) -> tuple[int, int]:
    """Decide the visits of ``rec`` in order at threshold x, as a
    one-at-a-time pruned BFS would: each ends at its first boundary with no
    next level, where it completes, or whose cut key (see cut_keys) is <= x.

    One vector pass finds every end. Completions push into ``heap`` in
    order, up to the first push that raises the threshold above x: the
    visits after it are left to be decided at the new one. A decided
    visit's end row gives its farness and reachable in ``results`` (f_d and
    n_d: a completion's farness and r), and a cut its level. ``recorder``
    sees each boundary the decided visits evaluate, completions excepted,
    as its row holds it. Returns how many visits it decided, and their m_vis."""
    vs, depth, ints = rec.vs, rec.depth, rec.ints
    more = ints[4] != 0
    # the rows that end a visit, and a sentinel past the last row
    ends = np.concatenate((~more | (rec.keys <= x), [True])).nonzero()[0]
    last = depth.cumsum()  # just past each visit's rows
    first = last - depth
    at = ends[ends.searchsorted(first)]  # each visit's end: its first row that ends it
    outran = at >= last
    if np.count_nonzero(outran):
        raise RuntimeError(f"the visit from {vs[outran.argmax()]} outran its reachability bounds")
    level, took = at - first, len(vs)
    done = (~more[at]).nonzero()[0]
    for i, far, r in zip(done.tolist(), *ints[:2, at[done]].tolist()):
        c = closeness_upper_bound(far, r, g.n) if r > 1 else 0.0
        results.closeness[vs[i]], level[i] = c, -1
        heap.push(c)
        if heap.threshold > x:
            took = i + 1
            break
    results.farness[vs[:took]], results.reachable[vs[:took]] = ints[:2, at[:took]]
    results.cut_level[vs[:took]] = level[:took]
    end = int(last[took - 1])  # just past the decided visits' rows
    upto = np.arange(end) <= at[:took].repeat(depth[:took])
    if recorder is not None:
        d = np.arange(end) - np.repeat(first[:took], depth[:took])  # the row's level
        per_row = (np.repeat(vs[:took], depth[:took]), d, *ints[:3, :end])
        for b in zip(*(a[np.flatnonzero(more[:end] & upto)].tolist() for a in per_row)):
            recorder(*b)
    return took, int(ints[3, :end][upto].sum())


def bfs_cut(
    g: Graph, v: int, threshold: Callable[[], float], bounds: ReachabilityBounds,
    recorder: BoundaryRecorder | None = None,
) -> VisitOutcome:
    """Level-synchronous pruned BFS from v: a Kernel running v alone,
    stepped at the live threshold until it leaves, then decided at it (see
    both). Returns CUT with the cut level, f_d and n_d as soon as closeness
    <= x is certain at a level boundary. Raises IndexError for a v outside
    [0, n), as graph.bfs does."""
    if not 0 <= v < g.n:  # a -1 would mark a free kernel slot, which never leaves
        raise IndexError(f"source {v} out of range for n={g.n}")
    kernel = Kernel(g, bounds)
    kernel.start(np.array([v]))
    while (rec := kernel.step(threshold())) is None:
        pass
    results = Outcomes.empty(g.n)
    _, arcs = decide(g, ThresholdHeap(1), threshold(), results, rec, recorder)
    closeness, farness, reachable, level = (a.item(v) for a in results)
    return VisitOutcome(CUT if level >= 0 else closeness, farness, reachable, level, arcs)


@dataclass(frozen=True)
class Screen:
    """Rows 0 and 1 of every visit's record (see decide), known up front,
    for the vertices given to build: those top_k visits.

    At those boundaries a visit from v knows only deg(v), the degree sum S1(v)
    over N(v), and r(v) or alpha/omega, none of which depends on the
    threshold x. So the cut keys (see cut_keys) are computed once per top_k,
    and a visit with a key <= x, or one whose level 2 is provably empty, is
    decided from these rows without a BFS. At boundary 1 only exact-r
    vertices whose level 2 exists have a key; elsewhere it is +inf, which
    never cuts, and row 1 says level 2 exists unless the visit ``ends``.
    Row 1's gamma is refined here once, as the kernel refines it.
    """

    degrees: np.ndarray
    s1: np.ndarray  # degree sum over N(v): the arcs out of level 1
    gamma1: np.ndarray  # gamma at boundary 1 (see farness_lower_bound)
    keys: np.ndarray  # [d, v]: the cut key at boundary d; +inf where not screened
    ends: np.ndarray  # bool: the visit completes at level 1 unless cut at 0

    @classmethod
    def build(cls, g: Graph, bounds: ReachabilityBounds, vs: np.ndarray) -> "Screen":
        n = g.n
        deg = g.degrees
        summed = np.zeros(g.m + 1, dtype=np.int64)  # prefix sums of deg(targets)
        np.take(deg, g.targets, out=summed[1:], mode="clip")  # "raise" buffers a copy
        np.cumsum(summed, out=summed)
        s1 = summed[g.offsets[1:]] - summed[g.offsets[:-1]]
        del summed
        gamma1 = s1 - deg if not g.directed else s1  # as the kernel refines it
        keys = np.full((2, n), INF)
        ends = np.zeros(n, dtype=bool)

        exact, omega = bounds.exact[vs], bounds.omega[vs]
        d, s = deg[vs], s1[vs]
        keys[0, vs] = cut_keys(0, 0, 1, d, bounds.alpha[vs], omega, n)
        # level 2 exists (exact r = omega), or may exist (alpha/omega: some arc leaves level 1)
        deeper = np.where(exact, 1 + d < omega, s > 0)
        ends[vs] = ~deeper
        one = exact & deeper  # screened at boundary 1
        vs, d, omega = vs[one], d[one], omega[one]
        keys[1, vs] = cut_keys(1, d, 1 + d, gamma1[vs], omega, omega, n)
        return cls(deg, s1, gamma1, keys, ends)

    def claim(self, order: np.ndarray, i: int, x: float) -> tuple[np.ndarray, int]:
        """The positions >= i in ``order`` (the visited vertices, see
        top_k) of the first BATCH visits that need the kernel at threshold x
        (neither cut at boundary 0 or 1 nor ending at level 1), and the
        position just past the last of them (len(order) if fewer remain).
        Windows of doubling width, one vector test each."""
        end = len(order)
        found, got, width = [], 0, BATCH
        while i < end and got < BATCH:
            window = order[i : i + width]
            # a cut at boundary 0 or 1 is a cut at the smaller key
            cut = np.minimum(self.keys[0][window], self.keys[1][window]) <= x
            pos = (~(cut | self.ends[window])).nonzero()[0][: BATCH - got]
            found.append(pos + i)
            got += len(pos)
            i += width
            width *= 2
        pos = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
        return pos, int(pos[-1]) + 1 if got == BATCH else end

    def rows(self, vs: np.ndarray, at: np.ndarray, ints: np.ndarray, keys: np.ndarray) -> None:
        """Write rows 0 and 1 of the records of the visits from vs (see
        Records) into columns ``at`` and ``at + 1`` of ints and keys: (0, 1,
        deg, deg, 1) and (deg, 1 + deg, gamma1, s1, not ends)."""
        deg, one = self.degrees[vs], at + 1
        f, nd, gamma, s, more = ints  # one row view each: a 1-D scatter is the cheap one
        f[at], nd[at], gamma[at], s[at], more[at] = 0, 1, deg, deg, 1
        f[one], nd[one], gamma[one], s[one] = deg, 1 + deg, self.gamma1[vs], self.s1[vs]
        more[one] = ~self.ends[vs]
        keys[at], keys[one] = self.keys[0][vs], self.keys[1][vs]


class ThresholdHeap:
    """The k biggest closeness values seen so far, in a float64 buffer of k
    zeros plus one slot that holds the threshold.

    Every closeness is >= 0, so the threshold, the k-th biggest value once k
    values are present and 0 before, is the minimum of the k values; it never
    decreases. A ``buffer`` in shared memory and a ``lock`` (see _FileLock),
    which also guards a run's claims, let forked workers push into one heap;
    reading the threshold takes no lock.
    """

    def __init__(self, k: int, buffer: np.ndarray | None = None, lock=None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._values = np.zeros(k + 1) if buffer is None else buffer
        self.lock = nullcontext() if lock is None else lock

    def push(self, value: float) -> None:
        values = self._values
        k = self.k
        with self.lock:
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
        return self._values.item(self.k)


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


COUNTERS = ("m_vis", "screened", "arcs_gathered", "kernel_levels", "source_levels", "dense_levels")


@dataclass
class RunStats:
    m_vis: int = 0  # the paper's arc count: out-arcs of every expanded level
    m_tot: int | None = None
    screened: int = 0  # visits decided from the screen's rows, without the kernel
    # arcs the multi-source kernel really gathered, once per frontier vertex
    # per kernel step; with 64 visits per gather it may exceed m_vis
    arcs_gathered: int = 0
    # kernel steps, and visits summed over them: the kernel's occupancy is
    # source_levels / (64 * kernel_levels)
    kernel_levels: int = 0
    source_levels: int = 0
    dense_levels: int = 0  # the kernel steps that pulled every vertex's word (see Kernel)
    # one row per process of the COUNTERS above, the calling process first (one
    # row for a serial run); the rows sum to the fields
    per_process: np.ndarray | None = None
    cut_level: np.ndarray | None = None  # -1 where the visit completed
    preprocessing_seconds: float = 0.0
    total_seconds: float = 0.0
    load_seconds: float = 0.0  # the edge-list load, when the caller (the CLI) times it
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
        return int((bounds.omega * g.degrees).sum())  # omega = r(v)
    if (bounds.alpha == g.n).all():
        return g.m * g.n
    return None


class Outcomes(NamedTuple):
    """Per vertex: closeness, farness, reachable count and cut level (-1
    where the visit completed; the oracle's are all -1). A cut vertex keeps
    the f_d and n_d of the boundary that cut it, and closeness 0."""

    closeness: np.ndarray  # float64
    farness: np.ndarray  # int64
    reachable: np.ndarray  # int64
    cut_level: np.ndarray  # int64

    @classmethod
    def empty(cls, n: int) -> Outcomes:
        """Every vertex completed, closeness 0 and only itself reachable."""
        ints = np.zeros(n, np.int64), np.ones(n, np.int64), np.full(n, -1, np.int64)
        return cls(np.zeros(n), *ints)

    def ranked(self, g: Graph, k: int) -> TopKResult:
        """The k best completed vertices: closeness descending, ties by vertex id."""
        c, far, r = self.closeness, self.farness, self.reachable
        idx = np.flatnonzero(self.cut_level < 0)
        chosen = idx[np.lexsort((idx, -c[idx]))][:k].tolist()
        entries = tuple(
            RankedVertex(i + 1, v, g.labels[v], c.item(v), far.item(v), r.item(v))
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

    Vertices are processed in decreasing degree order, less those that reach
    no other vertex (alpha(v) = 1; their closeness is 0 and no visit runs
    from them); each visit may be cut once its closeness provably cannot
    exceed the current k-th best value.
    Visits the per-vertex degree statistics settle at boundary 0 or 1 need
    no BFS (see Screen); the others run in the multi-source kernel, up to 64
    at a time. decide settles both kinds from their records. Every run goes
    through _run: ``workers`` > 1 runs this process and, if its first claim
    after the warm-up leaves visits, workers - 1 forked ones. ``recorder``
    sees every boundary a serial visit evaluates (see decide); it needs
    ``workers`` = 1, as a forked worker cannot call back into the parent.
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

    # alpha(v) = 1 only where v reaches no other vertex: no visit runs from those
    order = order[bounds.alpha[order] > 1]
    screen = Screen.build(g, bounds, order)
    size = min(k, g.n + 1)  # at most n visits push: for k > n, n + 1 values keep the threshold 0
    threshold, results, rows = _run(g, bounds, screen, order, size, workers, recorder)
    result = results.ranked(g, k)
    stats = RunStats(
        **dict(zip(COUNTERS, rows.sum(axis=0).tolist())), per_process=rows,
        m_tot=exact_m_tot(g, bounds), cut_level=results.cut_level, preprocessing_seconds=prep,
        total_seconds=time.perf_counter() - t0, final_threshold=threshold,
    )
    return result, stats


def _visit_all(
    g, bounds, screen, order, heap, cursor, results, recorder=None, spawn=None
) -> tuple[int, ...]:
    """The main loop: one Kernel kept full from a stream of claims, and the
    claimed visits decided in processing order.

    A visit claimed for the kernel stays there until the kernel's own cut
    test, at the live threshold, retires it; its rows then go to one
    _RowLog. Between kernel steps decide settles the claimed visits up to
    the first one still in the kernel (one vector test and an argmax), a
    span at a time, from one gather of their rows. Every free slot takes
    the next claimed kernel visit; when those run short, it claims, under
    one hold of ``heap.lock``, the span from ``cursor[0]`` up to and including
    the next BATCH visits the kernel needs at the live threshold. The
    kernel reads the live threshold at every step and decide later reads
    one no lower, so a record holds every boundary that a one-at-a-time
    visit evaluates. Returns the COUNTERS (see RunStats) of the visits
    decided here, once the cursor has passed the end and all are decided.

    With ``spawn`` (the parent of a parallel run) it warms up first: while
    the threshold is 0, which prunes nothing, it claims BATCH visits at a
    time, the next only once all before are decided. If its first claim at
    a positive threshold leaves visits to claim, it takes the shared heap,
    cursor and results from spawn(), which forks the other workers, and
    goes on claiming beside them with the same kernel; else it finishes alone.
    """
    kernel, log = Kernel(g, bounds), _RowLog(g.n)
    claimed = np.zeros(0, np.int64)  # the claimed, undecided visits, in processing order
    ready = np.zeros(0, np.int64)  # claimed kernel visits waiting for a free slot
    m_vis, screened, more = 0, 0, True
    while True:
        x = heap.threshold
        if claimed.size and log.depth[claimed[0]]:  # the first claim is screened or left the kernel
            # the first one still running; argmax is 0 only where none is
            stop = int((log.depth[claimed] == 0).argmax()) or claimed.size
            while stop:
                span = claimed[: min(stop, _SPAN)]
                took, arcs = decide(g, heap, x, results, log.records(span, screen), recorder)
                m_vis += arcs
                claimed, stop = claimed[took:], stop - took
                x = heap.threshold
        if kernel.free > ready.size and more and not (spawn and claimed.size and x == 0):
            with heap.lock:
                i, x = int(cursor[0]), heap.threshold
                pos, stop = screen.claim(order, i, x)
                cursor[0] = stop
            more, screened = stop < len(order), screened + stop - i - len(pos)
            log.depth[order[i:stop]] = 2  # a screened visit's rows 0 and 1,
            log.depth[order[pos]] = 0  # and none yet for a kernel visit, which runs
            claimed = np.concatenate([claimed, order[i:stop]])
            ready = np.concatenate([ready, order[pos]])
            if spawn and x > 0:  # the first claim at a positive threshold
                if more:  # it left visits for the others
                    heap, cursor, results = spawn()
                spawn = None
        if kernel.free and ready.size:
            started, ready = ready[: kernel.free], ready[kernel.free :]
            kernel.start(started)
        if kernel.free < BATCH:
            rec = kernel.step(heap.threshold)
            if rec is not None:
                log.append(rec, claimed)
        elif not (claimed.size or more):
            work = kernel.gathered, kernel.levels, kernel.source_levels, kernel.dense_levels
            return m_vis, screened, *work


class _RowLog:
    """The rows (see Records) of the visits that left the kernel and are
    not yet decided, and where each claimed visit's rows lie: depth[v] rows
    up to just before end[v]. Depth is 0 while the visit runs; a screened
    one has end 0 and depth 2, and the screen writes its rows."""

    def __init__(self, n: int):
        self.end, self.depth = np.zeros((2, n), np.int64)
        self.ints, self.keys, self.used = np.empty((5, 1024), np.int64), np.empty(1024), 0

    def append(self, rec: Records, claimed: np.ndarray) -> None:
        """Add the rows of rec's visits. A full log first keeps only the
        rows of the visits that left and are still ``claimed`` (undecided),
        and doubles if they would fill more than half of it."""
        if self.used + len(rec.keys) > len(self.keys):
            kept = self.records(claimed[(self.end[claimed] > 0) & (self.depth[claimed] > 0)])
            size = max(len(self.keys), 2 * (len(kept.keys) + len(rec.keys)))
            self.ints, self.keys, self.used = np.empty((5, size), np.int64), np.empty(size), 0
            self.append(kept, claimed)
        a = self.used
        self.used += len(rec.keys)
        self.ints[:, a : self.used], self.keys[a : self.used] = rec.ints, rec.keys
        self.end[rec.vs], self.depth[rec.vs] = a + rec.depth.cumsum(), rec.depth

    def records(self, vs: np.ndarray, screen: Screen | None = None) -> Records:
        """The Records of the claimed visits from vs, none running: one gather
        (rows -2 and -1 for a screened one), then the screened ones' rows."""
        end, depth = self.end[vs], self.depth[vs]
        total = depth.cumsum()
        rows = (end - total).repeat(depth) + np.arange(total[-1] if vs.size else 0)
        ints, keys = self.ints.take(rows, axis=1), self.keys.take(rows)
        screened = end == 0
        if np.count_nonzero(screened):
            screen.rows(vs[screened], (total - depth)[screened], ints, keys)
        return Records(vs, depth, ints, keys)


def _run(g, bounds, screen, order, k, workers, recorder=None):
    """Run _visit_all in this process and, with ``workers`` > 1, in the
    workers - 1 it may fork, over one threshold heap of k values, one
    cursor and one Outcomes table. Returns the final threshold, the table
    and one row of _visit_all's counts per process that ran, this one's
    first.

    This process is the last worker. With ``workers`` > 1 its _visit_all
    warms up alone while the threshold is 0 and calls spawn only if its
    first claim at a positive threshold leaves visits, so a run this
    process can finish alone forks none and its state stays ordinary
    arrays. spawn makes the heap's lock, which guards its pushes and the
    claims (they never nest), copies the heap, the cursor, the table and
    the counts into shared memory and forks; the workers share the graph
    and the screen copy-on-write. A worker may read a stale (smaller)
    threshold, which can only delay a cut, never cause a wrong one. The
    kernel releases the lock of a worker that dies holding it (see
    _FileLock), so no process waits on a dead one: this process finishes
    its own loop, then reaps every worker and raises RuntimeError naming
    the first nonzero exit code (-N for a worker killed by signal N).
    """
    values, cursor, results = np.zeros(k + 1), np.zeros(1, np.int64), Outcomes.empty(g.n)
    counts = np.zeros((workers, len(COUNTERS)), np.int64)
    pids, files, reaped = [], ExitStack(), 0

    def spawn() -> tuple[ThresholdHeap, np.ndarray, Outcomes]:
        nonlocal values, cursor, results, counts
        lock = _FileLock(files.enter_context(tempfile.TemporaryFile()))
        values, cursor, counts = map(_shared, (values, cursor, counts))
        results = Outcomes._make(map(_shared, results))
        heap = ThresholdHeap(k, values, lock)

        def work(w: int) -> None:
            counts[w] = _visit_all(g, bounds, screen, order, heap, cursor, results)

        pids.extend(_fork(work, w) for w in range(1, workers))
        return heap, cursor, results

    try:
        counts[0] = _visit_all(g, bounds, screen, order, ThresholdHeap(k, values), cursor,
                               results, recorder, spawn if workers > 1 else None)
        for pid in pids:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code:
                raise RuntimeError(f"top_k worker (pid {pid}) exited with code {code}")
    finally:
        for pid in pids[reaped:]:  # the run failed: the others are of no use
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        files.close()
    return values.item(k), results, np.array(counts[: 1 + len(pids)])


def _fork(work: Callable, *args) -> int:
    """Fork a child that runs work(*args) and exits with code 0 if it
    returns, else with 1 after printing the traceback; it never returns
    into the caller's stack. Returns the child's pid."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        work(*args)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _shared(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` in an anonymous shared mapping, which every process
    forked after it shares."""
    import mmap  # only a run that forks needs it

    out = np.frombuffer(mmap.mmap(-1, a.nbytes), a.dtype).reshape(a.shape)
    out[...] = a
    return out


class _FileLock:
    """A POSIX record lock (fcntl.lockf) on ``file`` (an unlinked temporary
    file), taken and released as a context manager. Each process holds it
    on its own behalf, so a process forked after it is made takes it like
    any other. The kernel releases it when its holder exits, however it
    exits, so a process that dies holding it blocks no one."""

    def __init__(self, file):
        self.file = file

    def __enter__(self) -> None:
        fcntl.lockf(self.file, fcntl.LOCK_EX)

    def __exit__(self, *exc) -> None:
        fcntl.lockf(self.file, fcntl.LOCK_UN)
