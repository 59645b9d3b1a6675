import numpy as np
import pytest

from topclose.engine import RunStats, TopKResult
from topclose.generators import cycle_graph, gnp, path_graph
from topclose.graph import from_edges
from topclose.oracle import exact_closeness_all, top_k_textbook
from topclose.report import build_report


class TestExactClosenessAll:
    def test_three_cycle_m_tot_is_mn(self):
        g = from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        _, m_tot = exact_closeness_all(g)
        assert m_tot == 9 == g.m * g.n

    def test_directed_path_m_tot_smaller(self):
        g = from_edges(3, [(0, 1), (1, 2)], directed=True)
        _, m_tot = exact_closeness_all(g)
        assert m_tot == 3
        assert m_tot < g.m * g.n

    def test_undirected_three_path_closeness(self):
        table, _ = exact_closeness_all(path_graph(3))
        assert table.closeness == pytest.approx([2 / 3, 1.0, 2 / 3])
        assert table.farness.tolist() == [3, 2, 3]

    def test_disjoint_union_equals_componentwise(self):
        a = gnp(30, 0.1, 1, directed=False)
        b = gnp(20, 0.2, 2, directed=False)
        union = from_edges(
            a.n + b.n,
            list(a.edges()) + [(u + a.n, w + a.n) for u, w in b.edges()],
            directed=False,
        )
        tu, _ = exact_closeness_all(union)
        n = union.n
        # closeness depends on the global n; rescale the component tables
        ta, _ = exact_closeness_all(a)
        tb, _ = exact_closeness_all(b)
        expect = np.concatenate(
            [ta.closeness * (a.n - 1) / (n - 1), tb.closeness * (b.n - 1) / (n - 1)]
        )
        assert tu.closeness == pytest.approx(expect)

    def test_r_one_convention(self):
        g = from_edges(2, [], directed=False)
        table, m_tot = exact_closeness_all(g)
        assert table.closeness.tolist() == [0.0, 0.0]
        assert m_tot == 0


class TestTopKTextbook:
    def test_three_path_k1(self):
        res = top_k_textbook(path_graph(3), 1)
        assert res.entries[0].vertex == 1
        assert res.entries[0].closeness == 1.0

    def test_k_at_least_n_full_ranking(self):
        g = gnp(25, 0.2, 0, directed=False)
        res = top_k_textbook(g, 100)
        assert len(res.entries) == g.n
        values = res.closeness_values()
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k_textbook(path_graph(3), 0)


class TestMetrics:
    """Improvement factor m_vis/m_tot (RunStats) and performance ratio
    m_vis/(m*n) (the report), relative to the oracle's arc budget."""

    def report_stats(self, g, stats):
        empty = TopKResult(k=1, entries=())
        return build_report("g", g, empty, stats, 1, include_stats=True).stats

    def test_no_pruning_gives_factor_one(self):
        assert RunStats(m_vis=100, m_tot=100).improvement_factor == 1.0

    def test_performance_ratio(self):
        g = cycle_graph(10, directed=True)  # m * n = 100
        info = self.report_stats(g, RunStats(m_vis=50, m_tot=100))
        assert info["performance_ratio"] == 0.5
        assert info["improvement_factor"] == 0.5

    def test_zero_denominators_marked_undefined(self):
        assert RunStats(m_vis=0, m_tot=0).improvement_factor is None
        assert RunStats(m_vis=0, m_tot=None).improvement_factor is None
        g = from_edges(5, [], directed=False)  # m * n = 0
        info = self.report_stats(g, RunStats(m_vis=0, m_tot=0))
        assert info["improvement_factor"] is None
        assert info["performance_ratio"] is None
