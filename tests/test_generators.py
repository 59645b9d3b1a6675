import numpy as np
import pytest

from topclose.generators import (
    cycle_graph,
    generate,
    gnp,
    path_graph,
    preferential_attachment,
    star_graph,
)


class TestShapes:
    def test_path(self):
        g = path_graph(3)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_star(self):
        g = star_graph(5)
        assert all(u == 0 for u, _ in g.edges())
        assert g.degrees[0] == 4

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.degrees.tolist() == [2, 2, 2, 2]

    def test_directed_cycle(self):
        g = cycle_graph(4, directed=True)
        assert g.degrees.tolist() == [1, 1, 1, 1]


class TestGnp:
    def test_deterministic_per_seed(self):
        a = gnp(150, 0.03, 42)
        b = gnp(150, 0.03, 42)
        assert list(a.edges()) == list(b.edges())

    def test_seed_changes_output(self):
        a = gnp(100, 0.1, 1)
        b = gnp(100, 0.1, 2)
        assert list(a.edges()) != list(b.edges())

    def test_edge_count_near_expectation(self):
        g = gnp(200, 0.1, 0)
        expected = 0.1 * 200 * 199 / 2
        assert abs(g.m / 2 - expected) < 0.15 * expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gnp(10, 1.5, 0)
        with pytest.raises(ValueError):
            gnp(-1, 0.5, 0)


class TestPreferentialAttachment:
    def test_deterministic(self):
        a = preferential_attachment(500, 3, 9)
        b = preferential_attachment(500, 3, 9)
        assert list(a.edges()) == list(b.edges())

    def test_heavy_tailed_degrees(self):
        g = preferential_attachment(5000, 4, 0)
        degs = g.degrees
        assert degs.max() > 10 * degs.mean()

    def test_connected_growth(self):
        from topclose.graph import connected_components

        g = preferential_attachment(300, 2, 5)
        assert len(connected_components(g).component_size) == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            preferential_attachment(10, 0, 0)


class TestGenerateDispatch:
    def test_models(self):
        assert generate("path", nodes=3).n == 3
        assert generate("star", nodes=5).degrees[0] == 4
        assert generate("cycle", nodes=4).m == 8
        assert generate("gnp", nodes=20, prob=0.2, seed=1).n == 20
        assert generate("preferential-attachment", nodes=30, degree=2, seed=1).n == 30

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            generate("small-world", nodes=10)
