import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topclose import engine, graph
from topclose.engine import (
    CUT,
    INF,
    Outcomes,
    ThresholdHeap,
    bfs_cut,
    exact_m_tot,
    processing_order,
    top_k,
)
from topclose.generators import gnp, path_graph, preferential_attachment, star_graph
from topclose.graph import bfs, connected_components, from_edges
from topclose.oracle import exact_closeness_all, top_k_textbook
from topclose.scc import ReachabilityBounds, reachability_for


def three_cycle():
    return from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)


def visit(g, v, threshold, bounds):
    """One pruned BFS at a fixed threshold."""
    return bfs_cut(g, v, lambda: threshold, bounds)


def scalar_visit(g, v, threshold, bounds, recorder=None):
    """The pruned BFS one source at a time, in Python integers: the
    reference the multi-source kernel and decide must match. At every
    boundary d it tests the scalar bound at the threshold read there; with
    an exact r(v) before gathering level d, else after."""
    exact, n = bool(bounds.exact[v]), g.n
    alpha, omega = int(bounds.alpha[v]), int(bounds.omega[v])
    seen, slot = np.zeros(n, bool), np.empty(n, np.int64)
    seen[v] = True
    frontier = np.array([v], np.int64)
    d = f = nd = arcs = 0
    while True:
        f += d * len(frontier)
        nd += len(frontier)
        if exact:
            deg_sum = int(g.degrees[frontier].sum())
            more = nd < omega  # = r(v)
        else:
            neigh = graph.frontier_neighbors(g, frontier)
            deg_sum = len(neigh)
            new = neigh[~seen[neigh]]
            more = new.size > 0
        arcs += deg_sum
        if not more:
            c = engine.closeness_upper_bound(f, nd, n) if nd > 1 else 0.0
            return engine.VisitOutcome(c, f, nd, -1, arcs)
        gamma = deg_sum - len(frontier) if (not g.directed and d >= 1) else deg_sum
        if recorder is not None:
            recorder(v, d, f, nd, gamma)
        if engine.interval_closeness_bound(d, f, nd, gamma, alpha, omega, n) <= threshold():
            return engine.VisitOutcome(CUT, f, nd, d, arcs)
        if exact:
            neigh = graph.frontier_neighbors(g, frontier)
            new = neigh[~seen[neigh]]
        frontier = graph.distinct(new, slot)
        seen[frontier] = True
        d += 1


def skipped(g, bounds):
    """The vertices top_k never visits: nothing but themselves reachable."""
    return (bounds.exact & (bounds.r <= 1)) | (bounds.alpha <= 1) | (g.n <= 1)


def reference_top_k(g, k, recorder=None):
    """The visit loop without the screen and without batches: scalar_visit
    on every unskipped vertex in processing order over one ThresholdHeap.
    Returns the ranking, the cut levels, the final threshold and m_vis."""
    bounds = reachability_for(g)
    skip = skipped(g, bounds)
    heap = ThresholdHeap(k)
    table = Outcomes.empty(g.n)
    m_vis = 0
    for v in processing_order(g).tolist():
        if skip[v]:
            continue
        out = scalar_visit(g, v, lambda: heap.threshold, bounds, recorder)
        m_vis += out.arcs
        if out.closeness == CUT:
            table.cut_level[v] = out.cut_level
        else:
            table.closeness[v], table.farness[v] = out.closeness, out.farness
            table.reachable[v] = out.reachable
            heap.push(out.closeness)
    return table.ranked(g, k), table.cut_level, heap.threshold, m_vis


def grid(side, cols=None):
    cols = side if cols is None else cols
    cells = np.arange(side * cols).reshape(side, cols)
    pairs = np.concatenate([
        np.stack([cells[:, :-1].ravel(), cells[:, 1:].ravel()], axis=1),
        np.stack([cells[:-1].ravel(), cells[1:].ravel()], axis=1),
    ])
    return from_edges(side * cols, pairs.tolist(), directed=False)


def spy_decide(monkeypatch):
    """Per decided visit, in order: (source, threshold x of its decision,
    its last evaluated boundary, cut level or -1)."""
    decided = []
    real = engine.decide

    def decide(g, heap, x, results, rec, *args):
        took, arcs = real(g, heap, x, results, rec, *args)
        first = np.cumsum(rec.depth) - rec.depth
        for v, a, depth in zip(rec.vs[:took].tolist(), first.tolist(), rec.depth.tolist()):
            level = int(results.cut_level[v])
            # a completion's last row has no cut test
            last = level if level >= 0 else int(np.argmin(rec.ints[4, a : a + depth])) - 1
            decided.append((v, x, last, level))
        return took, arcs

    monkeypatch.setattr(engine, "decide", decide)
    return decided


def spy_left(monkeypatch):
    """The sources of the visits that leave a Kernel step."""
    left = set()
    real = engine.Kernel.step

    def step(self, x):
        rec = real(self, x)
        if rec is not None:
            left.update(rec.vs.tolist())
        return rec

    monkeypatch.setattr(engine.Kernel, "step", step)
    return left


@contextmanager
def time_limit(seconds):
    def timed_out(signum, frame):
        raise TimeoutError(f"did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_script(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package under test."""
    src = str(Path(engine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def shared(*shape, dtype=np.int64):
    """Zeros in memory that processes forked after this call share."""
    return engine._shared(np.zeros(shape, dtype))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes top_k forks, appended as each starts."""
    started, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


@pytest.fixture
def worker_claims_first(monkeypatch):
    """After each fork the parent waits until a forked worker has claimed,
    so a worker, not the parent, claims the visits after the parent's first
    claim at a positive threshold (the claim that decided to fork)."""
    claimed = shared(1)
    parent, real_claim, real_fork = os.getpid(), engine.Screen.claim, os.fork

    def claim(self, order, i, x):
        if os.getpid() != parent:
            claimed[0] = 1
        return real_claim(self, order, i, x)

    def fork():
        claimed[0] = 0
        pid = real_fork()
        while pid and not claimed[0]:  # a new worker always claims once
            time.sleep(0.001)
        return pid

    monkeypatch.setattr(engine.Screen, "claim", claim)
    monkeypatch.setattr(os, "fork", fork)


@pytest.fixture
def ranked(monkeypatch):
    """The per-vertex arrays of the Outcomes that top_k ranks, captured on
    each call."""
    seen = {}
    real_ranked = Outcomes.ranked

    def spy(self, g, k):
        seen.update(closeness=self.closeness.copy(), farness=self.farness.copy(),
                    reachable=self.reachable.copy())
        return real_ranked(self, g, k)

    monkeypatch.setattr(Outcomes, "ranked", spy)
    return seen


def complete_bipartite(a, b):
    return from_edges(a + b, [(u, a + w) for u in range(a) for w in range(b)], directed=False)


def ladder(rungs):
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(2 * i + s, 2 * i + 2 + s) for i in range(rungs - 1) for s in (0, 1)]
    return from_edges(2 * rungs, edges, directed=False)


def spaced(g, every):
    """Undirected g with an isolated vertex after every ``every`` ids and
    after the last one."""
    ids = np.arange(g.n) + np.arange(g.n) // every
    return from_edges(int(ids[-1]) + 2, ids[np.array(list(g.edges()))], directed=False)


class TestBfsCut:
    def test_cuts_at_first_boundary(self):
        g = three_cycle()
        out = visit(g, 0, 0.9, reachability_for(g))
        assert out.closeness == CUT
        assert out.cut_level == 0

    def test_completes_below_threshold(self):
        g = three_cycle()
        out = visit(g, 0, 0.5, reachability_for(g))
        assert out.closeness == pytest.approx(2 / 3)
        assert out.farness == 3
        assert out.reachable == 3

    def test_out_of_range_source_raises(self):
        # -1 marks a free kernel slot: as a source it would never leave
        g = path_graph(5)
        bounds = reachability_for(g)
        with time_limit(10):
            for v in (-1, g.n, -g.n - 1):
                with pytest.raises(IndexError, match=f"source {v} out of range for n=5"):
                    bfs_cut(g, v, lambda: 0.0, bounds)

    @pytest.mark.parametrize("directed", [False, True])
    def test_zero_threshold_never_cuts(self, directed):
        for seed in range(3):
            g = gnp(60, 0.05, seed, directed=directed)
            bounds = reachability_for(g)
            table, _ = exact_closeness_all(g)
            for v in range(g.n):
                if bounds.alpha[v] <= 1:
                    continue
                out = visit(g, v, 0.0, bounds)
                assert out.closeness == pytest.approx(table.closeness[v], rel=1e-12)

    def test_arc_count_matches_plain_bfs_when_complete(self):
        g = gnp(50, 0.1, 1, directed=True)
        bounds = reachability_for(g)
        for v in range(g.n):
            if bounds.alpha[v] <= 1:
                continue
            out = visit(g, v, 0.0, bounds)
            _, _, arcs = bfs(g, v)
            assert out.arcs == arcs

    @pytest.mark.parametrize("directed", [False, True])
    def test_gathers_only_expanded_levels(self, directed, monkeypatch):
        # exact r(v): a visit cut at boundary d gathers levels 0..d-1, and a
        # completed one never gathers its last level; alpha/omega only: the
        # level at the boundary is gathered too. A step reads its level once,
        # by a push (frontier_neighbors) or a pull (neighbor_or)
        calls = []
        real, real_pull = engine.frontier_neighbors, engine.neighbor_or
        monkeypatch.setattr(
            engine, "frontier_neighbors", lambda g, f: calls.append(1) or real(g, f)
        )
        monkeypatch.setattr(
            engine, "neighbor_or", lambda g, *args: calls.append(1) or real_pull(g, *args)
        )
        cut_exact = 0
        for seed in range(3):
            g = gnp(80, 0.05, seed, directed=directed)
            bounds = reachability_for(g)
            table, _ = exact_closeness_all(g)
            best = float(table.closeness.max())
            for v in range(g.n):
                if bounds.alpha[v] <= 1:
                    continue
                for x in (0.0, best / 2, best):
                    calls.clear()
                    out = visit(g, v, x, bounds)
                    if out.closeness == CUT:
                        levels = out.cut_level
                    else:
                        levels = int(bfs(g, v)[0].max())  # eccentricity
                    extra = 0 if bounds.exact[v] else 1
                    assert len(calls) == levels + extra, (seed, v, x)
                    cut_exact += out.closeness == CUT and bool(bounds.exact[v])
        assert cut_exact > 0

    @pytest.mark.parametrize("g", [complete_bipartite(3, 50), ladder(40)], ids=["K3,50", "ladder"])
    def test_frontiers_hold_no_repeats(self, g, monkeypatch):
        frontiers = []
        real = graph.distinct

        def checked(ids, slot):
            out = real(ids, slot)
            frontiers.append(out)
            assert sorted(out.tolist()) == sorted(set(ids.tolist()))
            return out

        monkeypatch.setattr(engine, "distinct", checked)
        monkeypatch.setattr(graph, "distinct", checked)
        bounds = reachability_for(g)
        table, _ = exact_closeness_all(g)
        for v in range(g.n):
            out = visit(g, v, 0.0, bounds)
            assert (out.farness, out.reachable) == (table.farness[v], table.reachable[v])
            dist, visited, _ = bfs(g, v)
            assert visited == np.count_nonzero(dist >= 0) == g.n
        assert len(connected_components(g).component_size) == 1
        assert frontiers and any(len(f) > 1 for f in frontiers)


class TestKernel:
    CYCLE = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)

    @staticmethod
    def bounds(r):
        # vertices 0 and 1 with an exact r, 2 and 3 with alpha = 2, omega = r
        return ReachabilityBounds(alpha=np.array([r, r, 2, 2]), omega=np.full(4, r))

    @staticmethod
    def run_kernel(kernel, sources, x):
        """The (ints, keys) record of each visit of ``kernel`` when it runs
        ``sources`` to the end at threshold x."""
        kernel.start(np.asarray(sources))
        records = {}
        while kernel.free < engine.BATCH:
            rec = kernel.step(x)
            if rec is not None:
                z = np.cumsum(rec.depth)
                for v, a, b in zip(rec.vs.tolist(), z - rec.depth, z):
                    records[v] = rec.ints[:, a:b], rec.keys[a:b]
        return [records[v] for v in sources]

    def test_keys_float64_cannot_hold_cut_at_the_threshold(self):
        g = self.CYCLE
        for r in (4, 2**27):  # (2**27 - 1)**2 > 2**53
            bounds = self.bounds(r)
            kernel = engine.Kernel(g, bounds)
            records = self.run_kernel(kernel, [0, 1, 2, 3], 1e300)
            # every key at boundary 0 is finite and below x = 1e300, the
            # inexact ones too, so every visit leaves at level 0 with the
            # scalar bound as its key (slots 0-3 of the kernel's own table)
            assert [len(keys) for _, keys in records] == [1] * 4, r
            for v, (_, keys) in enumerate(records):
                scalar = engine.interval_closeness_bound(0, 0, 1, 1, int(bounds.alpha[v]), r, 4)
                assert keys[0] == kernel.keys[v, 0] == scalar < 1e300, (r, v)

    def test_a_key_equal_to_the_threshold_retires_the_visit(self, suite):
        # vertex 47 of gnp-d-n50-p0.01-s8 (alpha 3, omega 4): at boundary 1
        # its key is 2**2 / (49 * 2), the same double as the threshold 2/49,
        # so key <= x cuts there
        g = dict(suite)["gnp-d-n50-p0.01-s8"]
        bounds = reachability_for(g)
        assert (bounds.alpha[47], bounds.omega[47]) == (3, 4)
        kernel = engine.Kernel(g, bounds)
        kernel.start(np.array([47]))
        assert kernel.step(0.0) is None
        rec = kernel.step(2 / 49)
        assert rec is not None and rec.vs.tolist() == [47] and rec.keys[1] == 2 / 49
        assert rec.ints[4, 1] == 1  # level 2 exists: a cut, not a completion

    def test_replay_decides_inexact_keys_in_integers(self):
        # each threshold sits on, or one ulp below, a boundary's scalar
        # bound, so a float key one ulp off would move the cut level
        g, n = self.CYCLE, 4
        bounds = self.bounds(2**27)
        xs = []
        for v in range(4):
            records = []

            def record(v, d, f, nd, gamma):
                if d == 4:  # the cycle has 4 levels only
                    raise StopIteration
                records.append((d, f, nd, gamma))

            try:  # no cut at a tiny threshold: alpha/omega visits complete
                scalar_visit(g, v, lambda: 1e-300, bounds, record)
            except StopIteration:
                pass
            for d, f, nd, gamma in records:
                alpha = int(bounds.alpha[v])
                key = engine.interval_closeness_bound(d, f, nd, gamma, alpha, 2**27, n)
                if key < INF:  # a threshold is a closeness, never +inf
                    xs += [key, np.nextafter(key, 0.0), np.nextafter(key, INF)]
        checked = 0
        for x in sorted(set(xs)):
            for v in range(4):
                try:
                    expected = scalar_visit(g, v, lambda: x, bounds, record)
                except StopIteration:  # the kernel's record ends there
                    with pytest.raises(RuntimeError, match="outran"):
                        visit(g, v, x, bounds)
                    continue
                assert visit(g, v, x, bounds) == expected, (v, x)
                checked += expected.closeness == CUT
        assert checked > 0

    def test_per_source_counts_every_bit_exactly(self):
        # against a per-bit count in Python integers: lengths around the
        # chunk, popcounts 0..64, a chunk whose weights cross 2**24 (float32
        # cannot hold an odd sum there) and one weight of 2**31 - 1
        rng = np.random.default_rng(7)
        chunk = engine._CHUNK // 8
        for length in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            popcount = np.arange(length) % 65
            masks = np.zeros(length, np.uint64)
            for i, p in enumerate(popcount.tolist()):
                masks[i] = engine._word(engine._BIT[rng.permutation(64)[:p]])
            for case in ("small", "crossing", "one-max"):
                weights = rng.integers(0, 100, length)
                if case == "crossing" and length >= chunk:
                    weights[:chunk] = rng.integers(2**16, 2**17, chunk) | 1
                if case == "one-max" and length:
                    weights[length // 2] = 2**31 - 1
                bits = [[int(m) >> s & 1 for m in masks.tolist()] for s in range(64)]
                expected = [[sum(b) for b in bits],
                            [sum(w * bit for w, bit in zip(weights.tolist(), b)) for b in bits]]
                if case == "crossing" and length >= chunk:
                    assert any(w > 2**24 and w % 2 for w in expected[1])
                assert engine._per_source(masks, weights).tolist() == expected, (length, case)

    def test_a_step_starts_from_nonzero_masks_and_a_distinct_head(self, monkeypatch):
        # the step filters zero masks only after a visit leaves, and the pull
        # assigns the head's masks, ORing only those of the started tail
        rejoined, real = [], engine.Kernel.step

        def step(self, x):
            head = self.frontier[: len(self.frontier) - self.started]
            assert np.count_nonzero(self.masks) == len(self.masks)
            assert len(np.unique(head)) == len(head)
            rejoined.append(np.count_nonzero(np.isin(self.frontier[len(head) :], head)))
            return real(self, x)

        monkeypatch.setattr(engine.Kernel, "step", step)
        for pull in (2**62, 0):  # every step pushes, then every one pulls
            monkeypatch.setattr(engine, "_PULL", pull)
            for _, g in self.AGREE:
                for k in (1, 10):
                    top_k(g, k)
        assert sum(rejoined) > 0  # a vertex started while still on the frontier

    def test_gathers_and_counts_in_chunks(self, monkeypatch):
        # a small chunk size splits the gathers and the per-source counts
        # of big levels; the outcome must not change
        g = preferential_attachment(600, 4, seed=3)
        expected = top_k(g, 5)
        monkeypatch.setattr(engine, "_CHUNK", 64)
        res, stats = top_k(g, 5)
        assert res == expected[0]
        assert stats.m_vis == expected[1].m_vis
        assert np.array_equal(stats.cut_level, expected[1].cut_level)
        assert stats.arcs_gathered == expected[1].arcs_gathered

    def test_arcs_gathered_counts_the_kernel_gathers(self, monkeypatch):
        # a push reads its frontier's arcs, a pull the arcs of rows a..z-1
        gathered = []
        real, real_pull = engine.frontier_neighbors, engine.neighbor_or
        monkeypatch.setattr(
            engine, "frontier_neighbors", lambda g, f: gathered.append(len(f := real(g, f))) or f
        )

        def pull(g, words, a, z, *rows):
            gathered.append(g.offsets[z] - g.offsets[a])
            return real_pull(g, words, a, z, *rows)

        monkeypatch.setattr(engine, "neighbor_or", pull)
        for g in (grid(9), gnp(150, 0.03, 42, directed=True)):
            gathered.clear()
            _, stats = top_k(g, 10)
            assert stats.arcs_gathered == sum(gathered) > 0

    def test_dense_levels_count_the_pulls(self, monkeypatch):
        # an undirected step pulls once its frontier is large; a directed one never
        pulls, real = [], engine.Kernel._pull
        monkeypatch.setattr(
            engine.Kernel, "_pull",
            lambda self, f, m, started: pulls.append(len(f)) or real(self, f, m, started),
        )
        for tag, g in self.GRAPHS:
            pulls.clear()
            _, stats = top_k(g, 10)
            assert stats.dense_levels == len(pulls) <= stats.kernel_levels, tag
            assert (stats.dense_levels > 0) == (not g.directed), tag

    @pytest.mark.parametrize(
        "g", [preferential_attachment(2000, 4, seed=1), grid(20)], ids=["pa-2000", "grid-20"]
    )
    def test_a_step_pulls_only_on_the_arcs_left(self, g, monkeypatch):
        # an exact visit that leaves takes its bits out of the masks before
        # the read; the step then pulls exactly when the arcs of the masks
        # still nonzero reach m / _PULL, and a push gathers those arcs alone
        pulls, gathers, real_step = [], [], engine.Kernel.step
        real_pull, real_gather = engine.Kernel._pull, engine.frontier_neighbors
        monkeypatch.setattr(
            engine.Kernel, "_pull",
            lambda self, f, m, started: pulls.append(1) or real_pull(self, f, m, started),
        )
        monkeypatch.setattr(
            engine, "frontier_neighbors",
            lambda g, f: gathers.append(int(g.degrees[f].sum())) or real_gather(g, f),
        )
        stats = Counter()

        def step(self, x):
            frontier, masks, source = self.frontier.copy(), self.masks.copy(), self.source.copy()
            exact = self.alpha == self.omega
            pulls.clear()
            gathers.clear()
            rec = real_step(self, x)
            slots = np.flatnonzero(np.isin(source, [] if rec is None else rec.vs) & exact)
            if slots.size:  # these visits left before the read
                kept = masks & ~engine._word(engine._BIT[slots]) != 0
                before, arcs = (int(g.degrees[frontier[m]].sum()) for m in (masks != 0, kept))
                pulled = engine._PULL * arcs >= g.m
                assert len(pulls) == pulled, (before, arcs, g.m)
                assert pulled or sum(gathers) == arcs
                stats["left"] += 1
                stats["decisive"] += engine._PULL * before >= g.m > engine._PULL * arcs
            return rec

        monkeypatch.setattr(engine.Kernel, "step", step)
        for k in (1, 10):
            top_k(g, k)
        # steps where the arcs before the leave would have pulled, and those left do not
        assert stats["left"] > 0 and stats["decisive"] > 0, stats

    AGREE = [
        ("pa-1500", preferential_attachment(1500, 2, seed=4)),
        ("grid-20", grid(20)),
        ("pa-400-spaced", spaced(preferential_attachment(400, 3, seed=5), 7)),
        ("grid-15-spaced", spaced(grid(15), 5)),
    ]

    @pytest.mark.parametrize("chunk", [8192, 64])
    def test_pull_and_push_agree(self, suite, chunk, monkeypatch):
        # every step read bottom-up (a huge _PULL), then every one top-down
        # (0): the same rankings, counts and boundaries; only the arcs read
        # move. A small chunk splits the pull's rows, some at isolated vertices
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        rejoined, real_start = [], engine.Kernel.start

        def start(self, vs):
            rejoined.append(np.count_nonzero(np.isin(vs, self.frontier[self.masks != 0])))
            return real_start(self, vs)

        monkeypatch.setattr(engine.Kernel, "start", start)
        pulled = 0
        for tag, g in [(t, g) for t, g in suite if not g.directed] + self.AGREE:
            for k in (1, 10):
                runs = []
                for pull in (2**62, 0):
                    monkeypatch.setattr(engine, "_PULL", pull)
                    boundaries = []
                    res, stats = top_k(g, k, recorder=lambda *b: boundaries.append(b))
                    runs.append((res, stats, boundaries))
                (res, stats, boundaries), (push_res, push, push_boundaries) = runs
                assert res == push_res, (tag, k)
                assert (stats.m_vis, stats.final_threshold) == (push.m_vis, push.final_threshold)
                assert np.array_equal(stats.cut_level, push.cut_level), (tag, k)
                assert boundaries == push_boundaries, (tag, k)
                assert stats.kernel_levels == push.kernel_levels, (tag, k)
                assert push.dense_levels == 0 and stats.dense_levels <= stats.kernel_levels
                # every step that reads an arc pulls
                assert (stats.dense_levels > 0) == (push.arcs_gathered > 0), (tag, k)
                pulled += stats.dense_levels
        assert pulled > 0
        assert sum(rejoined) > 0  # a vertex started while still on the frontier

    @staticmethod
    def spy_steps(monkeypatch):
        """Per kernel step: x and {source: level} of the visits it expands."""
        steps = []
        real = engine.Kernel.step

        def step(self, x):
            live = self.source >= 0
            steps.append((x, dict(zip(self.source[live].tolist(), self.d[live].tolist()))))
            return real(self, x)

        monkeypatch.setattr(engine.Kernel, "step", step)
        return steps

    GRAPHS = [
        ("gnp-d-400", gnp(400, 2.5 / 400, 1, directed=True)),
        ("gnp-d-800", gnp(800, 1.5 / 800, 2, directed=True)),
        ("pa-1500", preferential_attachment(1500, 2, seed=4)),
        ("grid-20", grid(20)),
    ]

    @pytest.mark.parametrize("tag, g", GRAPHS, ids=[tag for tag, _ in GRAPHS])
    def test_refill_keeps_the_kernel_full(self, tag, g, monkeypatch):
        # a step with a free slot comes only once the order is used up, so
        # those steps are at most the longest visit
        steps = self.spy_steps(monkeypatch)
        for k in (1, 10):
            steps.clear()
            _, stats = top_k(g, k)
            depth = max(level for _, live in steps for level in live.values()) + 1
            assert stats.kernel_levels == len(steps) > 0, tag
            assert stats.source_levels == sum(len(live) for _, live in steps), tag
            assert max(len(live) for _, live in steps) <= engine.BATCH
            full = -(-stats.source_levels // engine.BATCH)
            assert stats.kernel_levels <= full + depth, (tag, k, stats.kernel_levels, depth)

    @pytest.mark.parametrize("tag, g", GRAPHS, ids=[tag for tag, _ in GRAPHS])
    def test_kernel_tests_no_higher_than_the_replay(self, tag, g, monkeypatch):
        # at every boundary decide evaluates for a visit that left the
        # kernel, the kernel tested that visit's level at a threshold no
        # higher than the one decide read
        steps = self.spy_steps(monkeypatch)
        left = spy_left(monkeypatch)
        decided = spy_decide(monkeypatch)
        rose = 0
        for k in (1, 10):
            steps.clear()
            left.clear()
            decided.clear()
            top_k(g, k)
            tested = {(v, level): x for x, live in steps for v, level in live.items()}
            reads = {(v, d): x for v, x, last, _ in decided if v in left for d in range(last + 1)}
            assert reads and set(reads) <= set(tested), (tag, k)
            for boundary, x in reads.items():
                assert tested[boundary] <= x, (tag, k, boundary)
            rose += sum(tested[b] < x for b, x in reads.items())
        assert rose > 0, tag  # the threshold rose between a test and its decision


class TestScreen:
    def test_keys_float64_cannot_hold_are_the_scalar_bound(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
        for r in (2, 2**27):  # (2**27 - 1)**2 > 2**53
            # 0 and 1 with an exact r, 2 and 3 with alpha = 2, omega = r + 1
            alpha, omega = np.array([r, r, 2, 2]), np.array([r, r, r + 1, r + 1])
            bounds = ReachabilityBounds(alpha=alpha, omega=omega)
            screen = engine.Screen.build(g, bounds, np.arange(4))
            for v in range(4):
                scalar = engine.interval_closeness_bound(0, 0, 1, 1, int(alpha[v]), int(omega[v]), 4)
                assert screen.keys[0][v] == scalar, (r, v)
            assert screen.ends[:2].all() == (r == 2), r  # exact r(v) = 1 + deg(v)

    def test_kernel_rows_0_and_1_match_the_screen(self, suite, monkeypatch):
        # a kernel visit that a threshold risen since its claim cuts at
        # boundary 0 or 1 is decided from its own record, which must then say
        # what the screen's rows would, so that it ends where the screen
        # would have ended it: f_d, n_d, gamma and the level's degree sum,
        # and wherever the screen's key is finite, that key and whether the
        # next level exists. (Where the key is +inf the flags may differ: an
        # alpha/omega visit's row 1 says only that level 2 may exist.)
        records = []
        real = engine.Kernel.step

        def step(self, x):
            rec = real(self, x)
            if rec is not None:
                records.append(rec)
            return rec

        monkeypatch.setattr(engine.Kernel, "step", step)
        graphs = [*suite, ("pa-2000", preferential_attachment(2000, 4, seed=1)),
                  ("grid-30", grid(30))]
        graphs += [(f"gnp-d-{n}", gnp(n, 2.0 / n, seed, directed=True))
                   for n in (800, 1500) for seed in (0, 1)]
        compared = finite = 0
        for tag, g in graphs:
            records.clear()
            top_k(g, 10)
            bounds = reachability_for(g)
            screen = engine.Screen.build(g, bounds, np.flatnonzero(bounds.alpha > 1))
            for rec in records:
                ints, keys = np.empty((5, 2 * len(rec.vs)), np.int64), np.empty(2 * len(rec.vs))
                screen.rows(rec.vs, np.arange(0, len(keys), 2), ints, keys)
                first = np.cumsum(rec.depth) - rec.depth
                for i, (a, depth) in enumerate(zip(first.tolist(), rec.depth.tolist())):
                    rows = min(depth, 2)
                    ours = slice(2 * i, 2 * i + rows)
                    kernel, screened = rec.ints[:, a : a + rows], ints[:, ours]
                    assert np.array_equal(kernel[:4], screened[:4]), (tag, i)
                    known = np.isfinite(keys[ours])
                    assert np.array_equal(kernel[4, known], screened[4, known]), (tag, i)
                    assert np.array_equal(rec.keys[a : a + rows][known], keys[ours][known]), tag
                    compared += rows
                    finite += np.count_nonzero(known)
        assert compared > finite > 0


class TestThreshold:
    def test_zero_before_k_values(self):
        h = ThresholdHeap(3)
        h.push(0.5)
        h.push(0.4)
        assert h.threshold == 0.0

    def test_k_one(self):
        h = ThresholdHeap(1)
        h.push(0.2)
        assert h.threshold == 0.2
        h.push(0.5)
        assert h.threshold == 0.5

    def test_k_two(self):
        h = ThresholdHeap(2)
        for v in (0.9, 0.3, 0.6):
            h.push(v)
        assert h.threshold == 0.6

    def test_monotone_under_random_pushes(self):
        rng = np.random.default_rng(0)
        h = ThresholdHeap(5)
        last = 0.0
        for v in rng.random(200):
            h.push(float(v))
            assert h.threshold >= last
            last = h.threshold

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ThresholdHeap(0)


class TestProcessingOrder:
    def test_degree_descending_ties_by_id(self):
        g = star_graph(5)
        order = processing_order(g)
        assert order[0] == 0  # center has the top degree
        assert order[1:].tolist() == [1, 2, 3, 4]


class TestTopK:
    def test_path_middle_vertex_wins(self):
        res, _ = top_k(path_graph(3), 1)
        assert len(res.entries) == 1
        e = res.entries[0]
        assert e.vertex == 1
        assert e.closeness == 1.0
        assert e.farness == 2
        assert e.reachable == 3

    def test_three_cycle_all_tied(self):
        res, _ = top_k(three_cycle(), 3)
        assert [e.vertex for e in res.entries] == [0, 1, 2]
        assert all(e.closeness == pytest.approx(2 / 3) for e in res.entries)

    def test_k_larger_than_n(self):
        res, _ = top_k(path_graph(3), 10)
        assert len(res.entries) == 3
        # a heap of k = 10**12 values would need 8 TB; at most n visits push
        g = path_graph(5)
        expected, _ = top_k(g, 5)
        for workers in (1, 2):
            res, stats = top_k(g, 10**12, workers=workers)
            assert res.entries == expected.entries, workers
            assert stats.final_threshold == top_k(g, 6)[1].final_threshold == 0.0, workers

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k(path_graph(3), 0)

    def test_empty_graph(self):
        g = from_edges(0, [], directed=False)
        for workers in (1, 2):
            res, stats = top_k(g, 5, workers=workers)
            assert res.entries == ()
            assert stats.m_vis == 0

    def test_single_vertex(self):
        g = from_edges(1, [], directed=True)
        for workers in (1, 2):
            res, _ = top_k(g, 1, workers=workers)
            assert res.entries[0].closeness == 0.0

    def test_matches_oracle_on_random_digraph(self):
        g = gnp(150, 0.03, 42, directed=True)
        res, _ = top_k(g, 10)
        expected = top_k_textbook(g, 10)
        assert Counter(np.round(res.closeness_values(), 12)) == Counter(
            np.round(expected.closeness_values(), 12)
        )

    def test_recorder_leaves_the_run_unchanged(self):
        for directed in (False, True):
            g = gnp(80, 0.04, 7, directed=directed)
            records = []
            plain, s_plain = top_k(g, 5)
            seen, s_seen = top_k(g, 5, recorder=lambda *a: records.append(a))
            assert records
            assert plain.closeness_values() == seen.closeness_values()
            assert s_plain.m_vis == s_seen.m_vis

    def test_recorder_rejects_workers(self):
        with pytest.raises(ValueError):
            top_k(path_graph(3), 1, workers=2, recorder=lambda *a: None)

    def test_never_imports_scipy(self):
        # importing scipy.sparse.csgraph about doubles the peak memory of
        # a small run, so the library stays on numpy and plain Python
        code = textwrap.dedent(
            """
            import sys
            from topclose import top_k
            from topclose.generators import gnp

            for directed in (False, True):
                top_k(gnp(200, 0.02, 1, directed), 5)
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        proc = run_script(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_exact_m_tot_matches_oracle(self, suite, suite_oracle):
        for tag, g in suite:
            m_tot = exact_m_tot(g, reachability_for(g))
            if m_tot is not None:
                assert m_tot == suite_oracle[tag][1], tag
            else:
                assert g.directed, tag

    def test_m_vis_bounded_by_m_tot(self, suite):
        for tag, g in suite[:40]:
            _, stats = top_k(g, 1)
            _, m_tot = exact_closeness_all(g)
            assert stats.m_vis <= m_tot, tag

    def test_cut_vertices_below_final_threshold(self):
        g = gnp(100, 0.05, 3, directed=False)
        table, _ = exact_closeness_all(g)
        res, stats = top_k(g, 5)
        cut = np.nonzero(~stats.completed)[0]
        assert len(cut) > 0  # pruning actually happens here
        for v in cut:
            assert table.closeness[v] <= stats.final_threshold + 1e-12

    def assert_matches_reference(self, g, k, tag, monkeypatch):
        records, expected, claimed_at = [], [], {}
        real_claim = engine.Screen.claim

        def claim(self, order, i, x):
            pos, stop = real_claim(self, order, i, x)
            claimed_at.update((v, x) for v in order[pos].tolist())
            return pos, stop

        with monkeypatch.context() as m:
            m.setattr(engine.Screen, "claim", claim)
            left, decided = spy_left(m), spy_decide(m)
            res, stats = top_k(g, k, recorder=lambda *a: records.append(a))
        ref, cut_level, threshold, m_vis = reference_top_k(
            g, k, recorder=lambda *a: expected.append(a)
        )
        assert res == ref, (tag, k)
        assert stats.m_vis == m_vis, (tag, k)
        assert np.array_equal(stats.cut_level, cut_level), (tag, k)
        assert np.array_equal(stats.completed, cut_level < 0), (tag, k)
        assert stats.final_threshold == threshold, (tag, k)
        assert records == expected, (tag, k)
        # the visits decided from their kernel records
        kernel_calls = [(v, x, level) for v, x, _, level in decided if v in left]
        bounds = reachability_for(g)
        # a visit the screen could settle (cut at boundary 0, or at 1 with an
        # exact r(v)) reaches the kernel only at a threshold that cut nothing
        # there: each such visit was decided at a threshold above its claim's
        for v, x, level in kernel_calls:
            if level == 0 or (level == 1 and bounds.exact[v]):
                assert x > claimed_at[v], (tag, k, v)
        # and every visited vertex is settled by exactly one of them
        assert stats.screened + len(kernel_calls) == np.count_nonzero(~skipped(g, bounds))
        return stats

    def test_screen_matches_the_visit_loop_without_it(self, suite, monkeypatch):
        screened = 0
        for tag, g in suite:
            for k in (1, 10):
                screened += self.assert_matches_reference(g, k, tag, monkeypatch).screened
        assert screened > 0

    def test_screen_settles_a_hub_graph_not_a_grid(self, monkeypatch):
        pa = preferential_attachment(2000, 3, seed=1)
        assert self.assert_matches_reference(pa, 10, "pa", monkeypatch).screened > 0
        assert self.assert_matches_reference(grid(20), 10, "grid", monkeypatch).screened == 0

    @pytest.mark.parametrize("span", [1, 3])
    def test_spans_cut_short_match_the_reference(self, span, monkeypatch):
        # decide gets at most _SPAN visits a call, so the visits up to the
        # first one still in the kernel take several calls, each picking up
        # where the last one stopped
        sizes, real = [], engine.decide

        def decide(g, heap, x, results, rec, *args):
            sizes.append(len(rec.vs))
            return real(g, heap, x, results, rec, *args)

        monkeypatch.setattr(engine, "decide", decide)
        monkeypatch.setattr(engine, "_SPAN", span)
        graphs = [("pa-2000", preferential_attachment(2000, 3, seed=1)), ("grid-8x8", grid(8, 8)),
                  ("gnp-d-800", gnp(800, 1.5 / 800, 2, directed=True))]
        for tag, g in graphs:
            for k in (1, 10):
                sizes.clear()
                self.assert_matches_reference(g, k, tag, monkeypatch)
                assert max(sizes) == span, (tag, k)  # the cap binds

    @pytest.mark.parametrize("rows, cols", [(7, 9), (8, 8), (5, 13), (3, 43)])
    def test_batches_of_64_visits(self, rows, cols, monkeypatch):
        # 63, 64, 65 and 129 visits reach the kernel: one short of mask bit
        # 63, one full kernel, and one or 65 visits that wait for a freed bit
        g = grid(rows, cols)
        started, live, claims = [], [], []
        real_start, real_step, real_claim = (
            engine.Kernel.start, engine.Kernel.step, engine.Screen.claim
        )

        def start(self, vs):
            started.extend(vs.tolist())
            return real_start(self, vs)

        def step(self, x):
            live.append(np.count_nonzero(self.source >= 0))
            return real_step(self, x)

        def claim(self, *args):
            claims.append(args[1])
            return real_claim(self, *args)

        monkeypatch.setattr(engine.Kernel, "start", start)
        monkeypatch.setattr(engine.Kernel, "step", step)
        monkeypatch.setattr(engine.Screen, "claim", claim)
        for k in (1, 10):
            started.clear()
            live.clear()
            claims.clear()
            stats = self.assert_matches_reference(g, k, f"grid-{rows}x{cols}", monkeypatch)
            assert stats.screened == 0
            # every vertex enters the kernel once, in processing order
            assert started == processing_order(g).tolist()
            assert 0 < max(live) <= engine.BATCH
            assert len(live) == stats.kernel_levels and sum(live) == stats.source_levels
            assert len(claims) == -(-g.n // engine.BATCH)  # one claim per 64 visits


@st.composite
def mixed_depth_graphs(draw):
    """A random deep tree of 100-160 vertices plus a few chords: the visits
    it sends to the kernel (most of them) reach many different depths. Directed
    graphs orient a third of the edges one way, the others both ways."""
    n = draw(st.integers(100, 160))
    directed = draw(st.booleans())
    # vertex i + 1 hangs off one of the 6 before it: long branching paths
    back = draw(st.lists(st.integers(0, 5), min_size=n - 1, max_size=n - 1))
    edges = [(max(i - b, 0), i + 1) for i, b in enumerate(back)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    if directed:  # way 0: u -> w, 1: w -> u, else both
        ways = draw(st.lists(st.integers(0, 5), min_size=len(edges), max_size=len(edges)))
        arcs = [(u, w) for (u, w), way in zip(edges, ways) if way != 1]
        edges = arcs + [(w, u) for (u, w), way in zip(edges, ways) if way != 0]
    return from_edges(n, edges, directed=directed)


@settings(max_examples=12, deadline=None)
@given(mixed_depth_graphs())
def test_mixed_depth_visits_match_the_oracle(g):
    # more than 64 visits reach the kernel, so freed bits are refilled
    bounds = reachability_for(g)
    visited = np.count_nonzero(~skipped(g, bounds))
    for k in (1, 10):
        expected = Counter(np.round(top_k_textbook(g, k).closeness_values(), 12))
        for workers in (1, 2):
            with time_limit(120):
                res, stats = top_k(g, k, workers=workers)
            if workers == 1:
                assume(visited - stats.screened > engine.BATCH)
            assert Counter(np.round(res.closeness_values(), 12)) == expected, (k, workers)


class TestParallel:
    def test_multiset_agreement_across_workers(self):
        g = gnp(120, 0.04, 5, directed=True)
        base, _ = top_k(g, 10, workers=1)
        expected = Counter(np.round(base.closeness_values(), 12))
        for w in (2, 4):
            res, _ = top_k(g, 10, workers=w)
            assert Counter(np.round(res.closeness_values(), 12)) == expected

    def test_parallel_stats_complete(self):
        g = gnp(60, 0.1, 1, directed=False)
        res, stats = top_k(g, 3, workers=2)
        # every vertex is either completed or carries a cut level
        assert np.all(stats.completed | (stats.cut_level >= 0))
        assert stats.m_vis > 0
        assert stats.arcs_gathered > 0

    def test_workers_start_from_a_positive_threshold(self, monkeypatch):
        # the parent warms up alone at threshold 0 and forks the workers only
        # after its first claim at a positive threshold: every later claim, by
        # any process, is at a positive threshold, and no worker fills the
        # heap with the weaker visits a threshold of 0 cannot prune. After
        # the fork the parent waits until the worker has pushed, so a worker
        # forked too early claims at 0. Held so, the parent has claimed the
        # path's centre but decided none of it, and the worker's first visits
        # (ids 129 on, more central than the warm-up's) complete.
        log = shared(2, 1024, dtype=float)  # per claim: by the parent, x
        count = shared(3)  # claims, worker pushes, at 0
        parent = os.getpid()
        real_push, real_claim, real_fork = ThresholdHeap.push, engine.Screen.claim, os.fork

        def push(self, value):
            if os.getpid() != parent:
                count[1] += 1
                count[2] += self.threshold == 0
            real_push(self, value)

        def claim(self, order, i, x):  # under the cursor lock: one process at a time
            log[:, count[0]] = os.getpid() == parent, x
            count[0] += 1
            return real_claim(self, order, i, x)

        def fork():
            pid = real_fork()
            while pid and not count[1]:
                time.sleep(0.001)
            return pid

        monkeypatch.setattr(ThresholdHeap, "push", push)
        monkeypatch.setattr(engine.Screen, "claim", claim)
        monkeypatch.setattr(os, "fork", fork)
        with time_limit(120):
            _, stats = top_k(path_graph(200), 3, workers=2)
        by_parent, x = log[:, : count[0]]
        assert (by_parent[0], x[0]) == (1, 0)
        assert (x[1:] > 0).all()
        assert (by_parent == 0).any()
        assert count[1] > 0  # the worker completed visits
        assert count[2] == 0
        assert stats.final_threshold == top_k(path_graph(200), 3)[1].final_threshold

    @pytest.mark.parametrize("g, workers, forked", [
        pytest.param(path_graph(200), 2, 1, id="200-2-1"),
        pytest.param(path_graph(200), 4, 3, id="200-4-3"),
        pytest.param(path_graph(50), 4, 0, id="50-4-0"),
        pytest.param(preferential_attachment(1000, 3, seed=2), 2, 0, id="pa1000-2-0"),
    ])
    def test_forks_only_when_visits_are_left(self, g, workers, forked, forks):
        # the parent is the last worker, and forks workers - 1 others only if
        # its first claim at a positive threshold leaves visits to claim: a
        # run the warm-up claims whole (path 50) forks none, and so does one
        # whose first claim after it takes every visit left (the PA graph,
        # where the screen settles them)
        with time_limit(120):
            _, stats = top_k(g, 3, workers=workers)
        assert len(forks) == forked
        assert len(stats.per_process) == forked + 1

    def test_the_warm_up_claims_once_all_before_are_decided(self, monkeypatch):
        # while the threshold is 0 the parent claims a batch only once every
        # visit it claimed before is decided: at each such claim, decide has
        # taken every position before the cursor. The path's first 64 visits
        # leave the kernel from the centre out, long before the first of
        # them, at the path's end, completes and raises the threshold
        parent, claims, decided = os.getpid(), [], [0]
        real_claim, real_decide = engine.Screen.claim, engine.decide

        def claim(self, order, i, x):
            if os.getpid() == parent and x == 0:
                claims.append((i, decided[0]))
            return real_claim(self, order, i, x)

        def decide(*args):
            took, arcs = real_decide(*args)
            if os.getpid() == parent:
                decided[0] += took
            return took, arcs

        monkeypatch.setattr(engine.Screen, "claim", claim)
        monkeypatch.setattr(engine, "decide", decide)
        with time_limit(60):
            top_k(path_graph(200), 3, workers=2)
        assert claims[0] == (0, 0)
        assert all(i == done for i, done in claims), claims

    def test_per_process_rows_sum_to_the_totals(self, forks):
        # one row per process that ran: the PA graph forks none, the path forks
        with time_limit(120):
            for g in (preferential_attachment(1000, 3, seed=2), path_graph(200)):
                for workers in (1, 2, 4):
                    forks.clear()
                    _, stats = top_k(g, 10, workers=workers)
                    rows = stats.per_process
                    assert rows.shape == (1 + len(forks), len(engine.COUNTERS)), workers
                    totals = [getattr(stats, name) for name in engine.COUNTERS]
                    assert rows.sum(axis=0).tolist() == totals, workers
                    assert rows[0, engine.COUNTERS.index("kernel_levels")] > 0  # the warm-up
            assert len(forks) == 3  # the path at 4 workers

    def test_a_decision_acts_on_a_threshold_another_worker_raised(
        self, ranked, worker_claims_first, monkeypatch
    ):
        """A worker reads the threshold once per decide call, not once per
        boundary, which can delay a cut but never make a wrong one. The
        parent is held after the fork until the worker has claimed; the
        worker's kernel then waits until the parent has decided a visit that
        raises the threshold it forked at, so the worker's first decision
        acts on a threshold the parent raised, and the run stays exact.

        The wait makes the raise certain: the worker pushes nothing while it
        waits, so the parent decides alone. On the 16 x 16 grid with k = 1
        the warm-up's 64 visits cover the top rows of the inner vertices,
        and the claim that forks takes the next 64, with the centre, whose
        closeness beats all before it; the worker's claim starts after it.
        The wait gives up after 5 s, so a run that never raises fails the
        last assert rather than hanging."""
        rose, raised = shared(1), shared(1, dtype=np.float64)
        parent, real, real_step = os.getpid(), engine.decide, engine.Kernel.step
        last = [INF]  # this process's threshold after its last decision
        forked_at = [0.0]  # in a forked worker: the parent's threshold at the fork

        def watched(g, heap, x, *args):
            # only another worker pushed since; written only then, as an
            # unlocked write of the old count could undo the other process's
            if x > last[0]:
                rose[0] += 1
            out = real(g, heap, x, *args)
            last[0] = heap.threshold
            if os.getpid() == parent:
                forked_at[0] = raised[0] = last[0]
            return out

        def held(self, x):
            deadline = time.monotonic() + 5
            while os.getpid() != parent and raised[0] == forked_at[0] and (
                time.monotonic() < deadline
            ):
                time.sleep(0.001)
            return real_step(self, x)

        monkeypatch.setattr(engine, "decide", watched)
        monkeypatch.setattr(engine.Kernel, "step", held)
        g = grid(16)
        table, _ = exact_closeness_all(g)
        with time_limit(120):
            res, stats = top_k(g, 1, workers=2)
        done = stats.completed
        assert np.all(done | (stats.cut_level >= 0))
        for name in ("closeness", "farness", "reachable"):
            assert np.array_equal(ranked[name][done], getattr(table, name)[done]), name
        assert stats.final_threshold == res.entries[0].closeness == table.closeness.max()
        assert (table.closeness[~done] <= stats.final_threshold).all()
        assert rose[0] > 0

    def test_a_run_that_forks_none_makes_no_locks(self):
        # the import, a serial run and a run that its parent finishes alone
        # import no mmap and map no shared memory; the path forks at 2
        # workers, not at 1. No run imports multiprocessing (about 700 kB of
        # RSS), and the forked worker prints nothing: it never returns into
        # the script, so the parent's unflushed lines are not written twice
        code = textwrap.dedent(
            """
            import sys
            from topclose import top_k
            from topclose.generators import path_graph, preferential_attachment

            def imported():
                return [m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "mmap")]

            print(imported())
            g = preferential_attachment(1000, 3, seed=2)
            top_k(g, 10)
            print(imported())
            _, stats = top_k(g, 10, workers=2)
            print(len(stats.per_process))
            print(imported())
            _, stats = top_k(path_graph(200), 3)
            print(len(stats.per_process))
            print(imported())
            _, stats = top_k(path_graph(200), 3, workers=2)
            print(len(stats.per_process))
            print(imported())
            """
        )
        proc = run_script(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        expected = ["[]", "[]", "1", "[]", "1", "[]", "2", "['mmap']", ""]
        assert proc.stdout.split("\n") == expected

    def test_rejects_bad_workers(self):
        for workers in (0, -2):
            with pytest.raises(ValueError):
                top_k(path_graph(3), 1, workers=workers)

    def test_stress_more_workers_than_cores(self, suite, suite_oracle, ranked):
        # a write lost from a shared result array or the shared heap breaks
        # one of these checks
        workers = min(8, max(4, 2 * (os.cpu_count() or 1)))
        tags = {
            "gnp-u-n200-p0.05-s0", "gnp-d-n200-p0.05-s1", "gnp-u-n100-p0.2-s2",
            "gnp-d-n200-p0.2-s3", "union-u", "union-d", "star-u",
        }
        with time_limit(120):
            checked = 0
            for tag, g in suite:
                if tag not in tags:
                    continue
                table, _ = suite_oracle[tag]
                for k in (1, 10):
                    res, stats = top_k(g, k, workers=workers)
                    done = stats.completed
                    assert np.all(done | (stats.cut_level >= 0)), tag
                    assert not done.all(), tag  # the threshold cut something
                    for name in ("closeness", "farness", "reachable"):
                        assert np.array_equal(
                            ranked[name][done], getattr(table, name)[done]
                        ), (tag, k, name)
                    assert stats.final_threshold == res.entries[k - 1].closeness, (tag, k)
                    checked += 1
            assert checked == 2 * len(tags)

    def test_workers_screen_runs(self, ranked):
        g = preferential_attachment(1000, 3, seed=2)
        table, _ = exact_closeness_all(g)
        with time_limit(120):
            for workers in (2, 4):
                _, stats = top_k(g, 10, workers=workers)
                done = stats.completed
                assert np.all(done | (stats.cut_level >= 0)), workers
                for name in ("closeness", "farness", "reachable"):
                    assert np.array_equal(
                        ranked[name][done], getattr(table, name)[done]
                    ), (workers, name)
                assert stats.screened > 0, workers

    def test_the_lock_excludes_other_processes(self):
        # a forked child waits for the lock the parent holds, so it reads
        # what the parent wrote just before letting go
        flag = shared(2)  # the child has started; the parent's write
        with tempfile.TemporaryFile() as file:
            lock = engine._FileLock(file)

            def child():
                flag[0] = 1
                with lock:
                    if flag[1] != 7:
                        raise AssertionError("the child took the lock the parent held")

            with lock:
                pid = engine._fork(child)
                with time_limit(60):
                    while not flag[0]:
                        time.sleep(0.001)
                time.sleep(0.05)  # the child is now waiting for the lock
                flag[1] = 7
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0

    def test_a_lock_file_that_cannot_be_made_fails_the_run(self, tmp_path, forks, monkeypatch):
        # the lock's file is made only to fork, before any worker starts
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        top_k(path_graph(200), 3)
        with pytest.raises(OSError):
            top_k(path_graph(200), 3, workers=2)
        assert forks == []

    # a worker that dies must fail the run, not hang it: mid-visit, while
    # holding the one lock (in a heap push, or claiming a run; also when
    # SIGKILL ends it there), or by raising an exception
    DYING = {
        "visit": (3, """
            real = engine.decide

            def dying(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return real(*args)

            engine.decide = dying
            """),
        "heap-lock": (3, """
            real = engine.ThresholdHeap.push

            def dying(self, value):
                if os.getpid() != parent and value > 0:
                    self.lock.__enter__()
                    os._exit(3)
                real(self, value)

            engine.ThresholdHeap.push = dying
            """),
        "heap-lock-sigkill": (-9, """
            real = engine.ThresholdHeap.push

            def dying(self, value):
                if os.getpid() != parent and value > 0:
                    self.lock.__enter__()
                    os.kill(os.getpid(), signal.SIGKILL)
                real(self, value)

            engine.ThresholdHeap.push = dying
            """),
        "run-claim": (3, """
            real = engine.Screen.claim

            def dying(self, order, i, x):
                if os.getpid() != parent:
                    os._exit(3)
                return real(self, order, i, x)

            engine.Screen.claim = dying
            """),
        "exception": (1, """
            real = engine.decide

            def raising(*args):
                if os.getpid() != parent:
                    raise ValueError("visit failed")
                return real(*args)

            engine.decide = raising
            """),
    }

    @pytest.mark.parametrize("where", sorted(DYING))
    def test_dead_worker_raises(self, where):
        exitcode, patch = self.DYING[where]
        code = textwrap.dedent(
            """
            import os
            import signal
            from topclose import engine
            from topclose.generators import path_graph

            parent = os.getpid()
            """
        ) + textwrap.dedent(patch) + textwrap.dedent(
            """
            # after the fork the parent waits until the worker has exited,
            # leaving it to the engine to reap: the parent runs the first
            # batch and claims the second, which holds the path's centre; the
            # worker claims the third, in which visits more central than the
            # first batch's complete, and reaches its dying point before the
            # parent decides any of the second
            real_fork = os.fork

            def fork():
                pid = real_fork()
                if pid:
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                return pid

            os.fork = fork
            try:
                engine.top_k(path_graph(200), 3, workers=2)
            except RuntimeError as exc:
                print(exc)
            """
        )
        proc = run_script(code, timeout=15)  # a clean case takes about 0.3 s (2 cores)
        assert proc.returncode == 0, proc.stderr
        assert f"exited with code {exitcode}" in proc.stdout
