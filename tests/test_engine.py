import os
import subprocess
import sys
import textwrap
from collections import Counter
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
from topclose.generators import gnp, path_graph, star_graph
from topclose.graph import bfs, connected_components, from_edges
from topclose.oracle import exact_closeness_all, top_k_textbook
from topclose.scc import reachability_for


def three_cycle():
    return from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)


def visit(g, v, threshold, bounds):
    """One pruned BFS with fresh scratch."""
    return bfs_cut(
        g, v, lambda: threshold, bounds, np.zeros(g.n, np.int64), 1, np.empty(g.n, np.int64)
    )


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

    # a worker that dies must fail the run, not hang it: mid-visit, or while
    # holding the shared-heap lock the other worker then waits on
    DYING = {
        "visit": """
            real = engine.bfs_cut

            def dying(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return real(*args)

            engine.bfs_cut = dying
            """,
        "heap-lock": """
            real = engine._SharedThresholdHeap.push

            def dying(self, value):
                if value > 0:
                    self._lock.acquire()
                    os._exit(3)
                real(self, value)

            engine._SharedThresholdHeap.push = dying
            """,
    }

    @pytest.mark.parametrize("where", sorted(DYING))
    def test_dead_worker_raises(self, where):
        code = textwrap.dedent(
            """
            import os
            from topclose import engine
            from topclose.generators import gnp

            parent = os.getpid()
            """
        ) + textwrap.dedent(self.DYING[where]) + textwrap.dedent(
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
        assert "exited with code 3" in proc.stdout
