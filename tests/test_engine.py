from collections import Counter

import numpy as np
import pytest

from topclose.engine import (
    CUT,
    ThresholdHeap,
    bfs_cut,
    exact_m_tot,
    processing_order,
    top_k,
)
from topclose.generators import gnp, path_graph, star_graph
from topclose.graph import from_edges
from topclose.oracle import exact_closeness_all, top_k_textbook
from topclose.scc import reachability_for


def three_cycle():
    return from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)


def visit(g, v, threshold, bounds):
    """One pruned BFS with fresh scratch."""
    return bfs_cut(g, v, lambda: threshold, bounds, np.zeros(g.n, np.int64), 1)


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
        from topclose.graph import bfs

        g = gnp(50, 0.1, 1, directed=True)
        bounds = reachability_for(g)
        for v in range(g.n):
            if bounds.alpha[v] <= 1:
                continue
            out = visit(g, v, 0.0, bounds)
            _, _, arcs = bfs(g, v)
            assert out.arcs == arcs


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
