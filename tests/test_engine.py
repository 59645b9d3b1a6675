import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from topclose import engine, graph
from topclose.engine import (
    CUT,
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
    """One pruned BFS with fresh scratch."""
    return bfs_cut(
        g, v, lambda: threshold, bounds, np.zeros(g.n, np.int64), 1, np.empty(g.n, np.int64)
    )


def skipped(g, bounds):
    """The vertices top_k never visits: nothing but themselves reachable."""
    return (bounds.exact & (bounds.r <= 1)) | (bounds.alpha <= 1) | (g.n <= 1)


def reference_top_k(g, k, recorder=None):
    """The visit loop without the screen: bfs_cut on every unskipped vertex
    in processing order over one ThresholdHeap. Returns the ranking, the
    cut levels, the final threshold, m_vis and the arcs bfs_cut scanned."""
    bounds = reachability_for(g)
    skip = skipped(g, bounds)
    heap = ThresholdHeap(k)
    closeness, farness, reachable, cut_level = engine._results(g.n, np.zeros)
    seen_epoch, slot = np.zeros(g.n, np.int64), np.empty(g.n, np.int64)
    m_vis = scanned = 0
    for i, v in enumerate(processing_order(g).tolist()):
        if skip[v]:
            continue
        out = bfs_cut(g, v, lambda: heap.threshold, bounds, seen_epoch, i + 1, slot, recorder)
        m_vis += out.arcs
        scanned += out.arcs_scanned
        if out.closeness == CUT:
            cut_level[v] = out.cut_level
        else:
            closeness[v], farness[v], reachable[v] = out.closeness, out.farness, out.reachable
            heap.push(out.closeness)
    ranked = engine._rank(g, k, closeness, farness, reachable, cut_level < 0)
    return ranked, cut_level, heap.threshold, m_vis, scanned


def grid(side):
    cells = np.arange(side * side).reshape(side, side)
    pairs = np.concatenate([
        np.stack([cells[:, :-1].ravel(), cells[:, 1:].ravel()], axis=1),
        np.stack([cells[:-1].ravel(), cells[1:].ravel()], axis=1),
    ])
    return from_edges(side * side, pairs.tolist(), directed=False)


@contextmanager
def time_limit(seconds):
    def timed_out(signum, frame):
        raise TimeoutError(f"parallel top_k did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ranked(monkeypatch):
    """The per-vertex arrays top_k hands to _rank, captured on each call."""
    seen = {}
    real_rank = engine._rank

    def spy(g, k, closeness, farness, reachable, eligible):
        seen.update(closeness=closeness.copy(), farness=farness.copy(),
                    reachable=reachable.copy())
        return real_rank(g, k, closeness, farness, reachable, eligible)

    monkeypatch.setattr(engine, "_rank", spy)
    return seen


def complete_bipartite(a, b):
    return from_edges(a + b, [(u, a + w) for u in range(a) for w in range(b)], directed=False)


def ladder(rungs):
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(2 * i + s, 2 * i + 2 + s) for i in range(rungs - 1) for s in (0, 1)]
    return from_edges(2 * rungs, edges, directed=False)


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
        # level at the boundary is gathered too
        calls = []
        real = engine.frontier_neighbors
        monkeypatch.setattr(
            engine, "frontier_neighbors", lambda g, f: calls.append(1) or real(g, f)
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
        assert connected_components(g).count == 1
        assert frontiers and any(len(f) > 1 for f in frontiers)


class TestScreen:
    def test_leaves_arithmetic_float64_cannot_hold_to_bfs_cut(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
        exact = np.array([True, True, False, False])
        for r, screened in ((2, True), (2**27, False)):  # (2**27 - 1)**2 > 2**53
            bounds = ReachabilityBounds(
                alpha=np.full(4, 2), omega=np.full(4, r), exact=exact, r=np.full(4, r)
            )
            screen = engine.Screen.build(g, bounds, np.zeros(4, dtype=bool))
            assert np.isfinite(screen.ub0[:2]).all() == screened, r
            assert np.isfinite(screen.inv0[2:]).all() == screened, r
            assert screen.ends[:2].all() == screened, r  # exact r(v) = 1 + deg(v)


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

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k(path_graph(3), 0)

    def test_empty_graph(self):
        g = from_edges(0, [], directed=False)
        res, stats = top_k(g, 5)
        assert res.entries == ()
        assert stats.m_vis == 0

    def test_single_vertex(self):
        g = from_edges(1, [], directed=True)
        res, _ = top_k(g, 1)
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

    def test_exact_m_tot_matches_oracle(self, suite, suite_oracle):
        for tag, g in suite:
            m_tot = exact_m_tot(g, reachability_for(g))
            if m_tot is not None:
                assert m_tot == suite_oracle[tag][1], tag
            else:
                assert g.directed, tag

    def test_arcs_scanned_bounded_by_m_vis(self, suite):
        for tag, g in suite:
            _, stats = top_k(g, 10)
            assert 0 <= stats.arcs_scanned <= stats.m_vis, tag

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
        records, expected, kernel_calls = [], [], []
        real = engine.bfs_cut

        def spy(g, v, *args):
            out = real(g, v, *args)
            kernel_calls.append((v, out.cut_level))
            return out

        with monkeypatch.context() as m:
            m.setattr(engine, "bfs_cut", spy)
            res, stats = top_k(g, k, recorder=lambda *a: records.append(a))
        ref, cut_level, threshold, m_vis, scanned = reference_top_k(
            g, k, recorder=lambda *a: expected.append(a)
        )
        assert res == ref, (tag, k)
        assert stats.m_vis == m_vis, (tag, k)
        assert np.array_equal(stats.cut_level, cut_level), (tag, k)
        assert np.array_equal(stats.completed, cut_level < 0), (tag, k)
        assert stats.final_threshold == threshold, (tag, k)
        assert records == expected, (tag, k)
        # a screened level-0 cut of an alpha/omega visit reads no arcs;
        # bfs_cut gathers deg(v) of them to learn that level 1 is non-empty
        bounds = reachability_for(g)
        unread = g.degrees[(cut_level == 0) & ~bounds.exact].sum()
        assert stats.arcs_scanned == scanned - unread, (tag, k)
        # the kernel sees no visit the screen could settle: none cut at
        # boundary 0, none at 1 with an exact r(v)
        for v, level in kernel_calls:
            assert level != 0 and not (level == 1 and bounds.exact[v]), (tag, k, v)
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
        assert 0 < stats.arcs_scanned <= stats.m_vis

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

    # a worker that dies must fail the run, not hang it: mid-visit, while
    # holding the shared-heap lock or the cursor lock (claiming a run) the
    # other worker then waits on, or by raising an exception
    DYING = {
        "visit": (3, """
            real = engine.bfs_cut

            def dying(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return real(*args)

            engine.bfs_cut = dying
            """),
        "heap-lock": (3, """
            real = engine.ThresholdHeap.push

            def dying(self, value):
                if os.getpid() != parent and value > 0:
                    self._lock.acquire()
                    os._exit(3)
                real(self, value)

            engine.ThresholdHeap.push = dying
            """),
        "run-claim": (3, """
            real = engine.Screen.run_end

            def dying(self, order, i, x):
                if os.getpid() != parent:
                    os._exit(3)
                return real(self, order, i, x)

            engine.Screen.run_end = dying
            """),
        "exception": (1, """
            real = engine.bfs_cut

            def raising(*args):
                if os.getpid() != parent:
                    raise ValueError("visit failed")
                return real(*args)

            engine.bfs_cut = raising
            """),
    }

    @pytest.mark.parametrize("where", sorted(DYING))
    def test_dead_worker_raises(self, where):
        exitcode, patch = self.DYING[where]
        code = textwrap.dedent(
            """
            import os
            from topclose import engine
            from topclose.generators import gnp

            parent = os.getpid()
            """
        ) + textwrap.dedent(patch) + textwrap.dedent(
            """
            try:
                engine.top_k(gnp(60, 0.1, 1, directed=False), 3, workers=2)
            except RuntimeError as exc:
                print(exc)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert f"exited with code {exitcode}" in proc.stdout
