import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topclose.graph import (
    EdgeListParseError,
    Graph,
    bfs,
    connected_components,
    from_edges,
    load_edge_list,
    write_edge_list,
)


def load_lines(lines, directed):
    return load_edge_list(iter(line + "\n" for line in lines), directed=directed)


class TestLoadEdgeList:
    def test_three_path_undirected(self):
        g = load_lines(["# c", "0 1", "1 2"], directed=False)
        assert g.n == 3
        assert g.degrees.tolist() == [1, 2, 1]

    def test_dedup_and_self_loop(self):
        g = load_lines(["a b", "a b", "b b"], directed=True)
        assert g.n == 2
        assert g.m == 1
        assert g.labels == ("a", "b")

    def test_three_cycle_directed(self):
        g = load_lines(["0 1", "1 2", "2 0"], directed=True)
        assert g.n == 3
        assert g.degrees.tolist() == [1, 1, 1]

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            load_lines(["0 1", "0 1 2"], directed=True)
        assert exc.value.line_number == 2

    def test_empty_graph(self):
        g = load_lines(["# only comments"], directed=False)
        assert g.n == 0
        assert g.m == 0

    def test_first_appearance_order(self):
        g = load_lines(["z y", "y x"], directed=True)
        assert g.labels == ("z", "y", "x")


class TestCsrInvariants:
    @pytest.mark.parametrize("directed", [False, True])
    def test_offsets_consistent(self, directed):
        rng = np.random.default_rng(0)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(200, 2))]
        g = from_edges(40, edges, directed)
        assert g.offsets[0] == 0
        assert g.offsets[-1] == g.m
        assert np.all(np.diff(g.offsets) >= 0)
        assert sum(len(g.neighbors(v)) for v in range(g.n)) == g.m

    def test_no_self_loops_or_duplicates(self):
        g = from_edges(5, [(0, 1), (1, 0), (0, 0), (0, 1)], directed=True)
        for v in range(g.n):
            nb = g.neighbors(v).tolist()
            assert v not in nb
            assert len(nb) == len(set(nb))

    def test_degrees_computed_once(self):
        g = from_edges(4, [(0, 1), (1, 2), (1, 3)], directed=False)
        assert g.degrees is g.degrees
        assert g.degrees.tolist() == [1, 3, 1, 1]

    def test_undirected_symmetry(self):
        g = from_edges(4, [(0, 1), (1, 2)], directed=False)
        for u in range(g.n):
            for w in g.neighbors(u):
                assert u in g.neighbors(int(w))


class TestEndpointValidation:
    def test_negative_id(self):
        with pytest.raises(ValueError, match=r"edge 0 \(0, -1\)"):
            from_edges(3, [(0, -1)], directed=False)

    def test_id_equal_to_n(self):
        with pytest.raises(ValueError, match=r"edge 1 \(2, 3\)"):
            from_edges(3, [(0, 1), (2, 3)], directed=True)

    def test_negative_id_under_optimize(self):
        # -O strips assert statements; the check must still run
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "from topclose.graph import from_edges; from_edges(3, [(0, -1)], False)"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr

    def test_inconsistent_offsets(self):
        with pytest.raises(ValueError):
            Graph(
                n=2, m=1, offsets=np.array([0, 1], dtype=np.int64),
                targets=np.array([1], dtype=np.int32), directed=True, labels=("0", "1"),
            )


class TestBfs:
    def test_three_path(self):
        g = load_lines(["0 1", "1 2"], directed=False)
        dist, r, arcs = bfs(g, 0)
        assert dist.tolist() == [0, 1, 2]
        assert r == 3

    def test_directed_sink(self):
        g = load_lines(["0 1", "1 2"], directed=True)
        dist, r, _ = bfs(g, 2)
        assert r == 1
        assert dist[2] == 0
        assert dist[0] == dist[1] == -1

    def test_visited_matches_transitive_closure(self):
        # boolean reachability closure by repeated matrix squaring
        from topclose.generators import gnp

        g = gnp(100, 0.05, 11, directed=True)
        adj = np.eye(g.n, dtype=bool)
        for u in range(g.n):
            adj[u, g.neighbors(u)] = True
        closure = adj
        for _ in range(7):  # 2^7 >= n
            closure = closure @ closure
        for source in range(0, g.n, 7):
            _, r, _ = bfs(g, source)
            assert r == int(closure[source].sum())

    def test_triangle_property_on_arcs(self):
        from topclose.generators import gnp

        g = gnp(80, 0.05, 5, directed=True)
        dist, _, _ = bfs(g, 0)
        for u in range(g.n):
            if dist[u] < 0:
                continue
            for w in g.neighbors(u):
                assert 0 <= dist[int(w)] <= dist[u] + 1

    def test_source_out_of_range(self):
        g = load_lines(["0 1"], directed=False)
        with pytest.raises(IndexError):
            bfs(g, 2)


class TestConnectedComponents:
    def test_three_path_single_component(self):
        g = load_lines(["0 1", "1 2"], directed=False)
        comps = connected_components(g)
        assert comps.count == 1
        assert comps.component_size.tolist() == [3]

    def test_two_disjoint_edges(self):
        g = load_lines(["0 1", "2 3"], directed=False)
        comps = connected_components(g)
        assert sorted(comps.component_size.tolist()) == [2, 2]
        assert all(comps.size_of(v) == 2 for v in range(4))

    def test_matches_union_find_oracle(self):
        from topclose.generators import gnp

        g = gnp(200, 0.005, 9, directed=False)
        parent = list(range(g.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, w in g.edges():
            parent[find(u)] = find(w)
        comps = connected_components(g)
        for u in range(g.n):
            for w in range(u + 1, g.n):
                same = find(u) == find(w)
                assert same == (comps.component_id[u] == comps.component_id[w])

    def test_rejects_directed(self):
        g = load_lines(["0 1"], directed=True)
        with pytest.raises(ValueError):
            connected_components(g)


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60),
    directed=st.booleans(),
)
def test_ingestion_idempotent(edges, directed):
    g = from_edges(16, edges, directed)
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    g2 = load_edge_list(buf, directed=directed)
    # reloaded graph is isomorphic under the label map (isolated vertices
    # cannot appear in an edge list, so compare the arc structure)
    relabel = {i: int(g2.labels[i]) for i in range(g2.n)}

    def norm(u, w):
        return (u, w) if directed else (min(u, w), max(u, w))

    stored = {norm(relabel[u], relabel[w]) for u, w in g2.edges()}
    assert stored == {norm(u, w) for u, w in g.edges()}
    assert g2.n == len({v for e in g.edges() for v in e})
    assert g2.m == g.m
