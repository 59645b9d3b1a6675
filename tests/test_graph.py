import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topclose import graph as graph_module
from topclose.graph import (
    EdgeListParseError,
    Graph,
    bfs,
    connected_components,
    from_edges,
    load_edge_list,
    neighbor_or,
    pull_rows,
    write_edge_list,
)


def load_lines(lines, directed):
    return load_edge_list(iter(line + "\n" for line in lines), directed=directed)


def out(g, v):
    """The out-neighbours of v: its slice of the CSR target array."""
    return g.targets[g.offsets[v] : g.offsets[v + 1]]


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


def loop_load_edge_list(source, directed):
    """The per-line loader that the bulk route must match: the reference."""
    ids, ends = {}, []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected 2 tokens, got {len(parts)}: {line!r}")
        ends.append(ids.setdefault(parts[0], len(ids)))
        ends.append(ids.setdefault(parts[1], len(ids)))
    return from_edges(len(ids), ends, directed, tuple(ids))


def outcome(load, source, directed):
    """What a loader makes of ``source``: the graph's arrays, or the error."""
    try:
        g = load(source, directed)
    except EdgeListParseError as exc:
        return "error", exc.line_number, str(exc)
    return g.labels, g.offsets.tolist(), g.targets.tolist(), g.offsets.dtype, g.targets.dtype


def assert_loads_like_loop(text):
    """load_edge_list on a text stream equals the reference loop on its lines."""
    for directed in (False, True):
        expected = outcome(loop_load_edge_list, io.StringIO(text), directed)
        assert outcome(load_edge_list, io.StringIO(text), directed) == expected


EDGE_TOKENS = [
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999",
    "007",
    "+1",
    "-0",
    "-",
    "0",
]


class TestBulkRoute:
    """The bulk integer route against the per-line reference loop."""

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    @pytest.mark.parametrize("place", ["first", "second"])
    def test_edge_token(self, token, place):
        edge = f"{token} 5" if place == "first" else f"5 {token}"
        assert_loads_like_loop(f"# header\n3 5\n{edge}\n5 7\n")

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 3\n4\n",
            "1 2\n1 2 3\n4\n",
            "1\t2\n2 \t 3\n",
            "1\x0b2\n2\x0c3\n",
            "1\x1c2\n2 3\n",
            "1 2\x1c\n",
            "1 2\r\n2 3\r\n",
            "1 2\r3 4\n",
            "  # indented\n\t# tab\n1 2\n",
            "1 2 # inline\n",
            "1 #\n",
            "1 2\n# c 3 4 5\n#\n3 4\n",
            "\n\n1 2\n\n\n2 3\n\n",
            "1 2\n2 3",
            "1 2\n3",
            "1000000000000000 999999999999999\n999999999999999 -1000000000000000\n",
            "-3 -1\n-1 2\n2 -3\n",
            "5 3\n3 1\n1 5\n",
            "",
            "\n",
            "   \n\t\n",
            "# only a comment",
            "1 2\n\x00 3\n",
            "a b\n1 2\n",
            "1 2\n\u00e9 3\n",
        ],
    )
    def test_line_shapes(self, text):
        assert_loads_like_loop(text)

    def test_first_appearance_order(self):
        g = load_edge_list(io.StringIO("5 3\n3 1\n1 5\n"), directed=True)
        assert g.labels == ("5", "3", "1")
        assert out(g, 0).tolist() == [1]

    def test_sparse_labels_sorted_by_first_appearance(self):
        # a label range far wider than the token count takes the sort route
        text = "1000000000000000 7\n7 -1000000000000000\n-1000000000000000 42\n"
        g = load_edge_list(io.StringIO(text), directed=True)
        assert g.labels == ("1000000000000000", "7", "-1000000000000000", "42")
        assert_loads_like_loop(text)

    def test_integer_labels_take_the_bulk_route(self, monkeypatch):
        def no_loop(lines):
            raise AssertionError("the per-line loop ran")

        monkeypatch.setattr(graph_module, "_parse_lines", no_loop)
        text = "# header\n  # indented\n3\t5\r\n\n-5 0\n10 3"
        g = load_edge_list(io.StringIO(text), directed=True)
        assert g.labels == ("3", "5", "-5", "0", "10")

    @pytest.mark.parametrize("data", [b"# c\r\n1 2\r\n2 -3\r\n", b"1 2\r\n007 1\r\n"])
    def test_file_with_crlf_line_ends(self, tmp_path, data):
        p = tmp_path / "crlf.txt"
        p.write_bytes(data)
        with open(p) as fh, open(p) as ref:
            assert outcome(load_edge_list, fh, False) == outcome(loop_load_edge_list, ref, False)

    @pytest.mark.parametrize(
        "data",
        [
            b"1 2\r2 3\r3 1\r",
            b"1 2\r\n2 3\r3 4\n\r4 1",
            b"# c\r1 2\r\n2 3\n3 4\r\r\n4 a\r",
            b"1 2\r3\r4 5\r",
            b"1 2\r\n2 3 # c\r4 5\n",
        ],
    )
    def test_file_opened_with_newline_empty(self, tmp_path, data, monkeypatch):
        # newline="" keeps "\r" and "\r\n" line ends in the text; the loader
        # ends a line where iterating the file does, in both routes
        p = tmp_path / "cr.txt"
        p.write_bytes(data)
        with open(p, newline="") as ref:
            expected = outcome(loop_load_edge_list, ref, False)
        with open(p) as fh:
            assert outcome(load_edge_list, fh, False) == expected
        with open(p, newline="") as fh:
            assert outcome(load_edge_list, fh, False) == expected
        if data.startswith(b"1 2\r2"):
            assert expected[0] == ("1", "2", "3") and len(expected[2]) == 6
            monkeypatch.setattr(graph_module, "_parse_lines", None)  # the bulk route only
            with open(p, newline="") as fh:
                assert outcome(load_edge_list, fh, False) == expected

    def test_source_is_read_once(self):
        class Once:
            def __init__(self, lines):
                self.lines, self.passes = lines, 0

            def __iter__(self):
                self.passes += 1
                return iter(self.lines)

        for text in ("1 2\n2 3\n", "a b\nb c\n", "1 2\n1 2 3\n"):
            source = Once(list(io.StringIO(text)))
            assert outcome(load_edge_list, source, False) == outcome(
                loop_load_edge_list, io.StringIO(text), False
            )
            assert source.passes == 1

    def test_generated_graph_round_trip(self):
        from topclose.generators import preferential_attachment

        buf = io.StringIO()
        write_edge_list(preferential_attachment(3000, 4, seed=2), buf)
        assert_loads_like_loop(buf.getvalue())


int_tokens = st.one_of(st.integers(-20, 20), st.integers(-(2**63) - 2, 2**63 + 1)).map(str)
odd_tokens = st.sampled_from(EDGE_TOKENS + ["a", "#", "1-2", "00", "-01"])


@st.composite
def edge_list_texts(draw):
    """Edge-list text: mostly two integer tokens per line, with comments,
    blank lines, odd token counts, odd separators and line ends. Half the
    texts use integer tokens and the whitespace numpy skips only."""
    if draw(st.booleans()):
        line_tokens, spaces = int_tokens, " \t\x0b\x0c\r"
    else:
        line_tokens, spaces = st.one_of(int_tokens, odd_tokens), " \t\x0b\x0c\x1c\r"
    separators = st.text(alphabet=spaces, min_size=1, max_size=3)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["edge", "edge", "edge", "blank", "comment", "tokens"]))
        if shape == "blank":
            line = draw(st.text(alphabet=" \t", max_size=2))
        elif shape == "comment":
            line = draw(st.text(alphabet=" \t", max_size=2)) + "#" + draw(st.text(max_size=5))
        else:
            count = 2 if shape == "edge" else draw(st.integers(0, 3))
            tokens = [draw(line_tokens) for _ in range(count)]
            line = draw(separators).join(tokens) if tokens else ""
            line = draw(st.sampled_from(["", " ", "\t"])) + line
        lines.append(line.replace("\n", " ") + draw(st.sampled_from(["\n", "\n", "\r\n"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")
    return "".join(lines)


@settings(max_examples=200, deadline=None)
@given(text=edge_list_texts())
@example(text="3 99999999999999999999\n")
@example(text="1 2 3\n4\n")
@example(text="+1 2\n")
@example(text="1\x1c2 3\n")
def test_load_matches_per_line_loop(text):
    assert_loads_like_loop(text)


class TestCsrInvariants:
    @pytest.mark.parametrize("directed", [False, True])
    def test_offsets_consistent(self, directed):
        rng = np.random.default_rng(0)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(200, 2))]
        g = from_edges(40, edges, directed)
        assert g.offsets[0] == 0
        assert g.offsets[-1] == g.m
        assert np.all(np.diff(g.offsets) >= 0)
        assert sum(len(out(g, v)) for v in range(g.n)) == g.m

    def test_no_self_loops_or_duplicates(self):
        g = from_edges(5, [(0, 1), (1, 0), (0, 0), (0, 1)], directed=True)
        for v in range(g.n):
            nb = out(g, v).tolist()
            assert v not in nb
            assert len(nb) == len(set(nb))

    def test_degrees_computed_once(self):
        g = from_edges(4, [(0, 1), (1, 2), (1, 3)], directed=False)
        assert g.degrees is g.degrees
        assert g.degrees.tolist() == [1, 3, 1, 1]

    def test_undirected_symmetry(self):
        g = from_edges(4, [(0, 1), (1, 2)], directed=False)
        for u in range(g.n):
            for w in out(g, u):
                assert u in out(g, int(w))


def reference_rows(n, pairs, directed):
    """Each vertex's out-neighbours as sorted(set(...)), self-loops dropped."""
    rows = [set() for _ in range(n)]
    for u, w in pairs:
        if u != w:
            rows[u].add(w)
            if not directed:
                rows[w].add(u)
    return [sorted(row) for row in rows]


@st.composite
def endpoint_pairs(draw):
    """(n, pairs) with n = 0 possible, pairs possibly empty or all self-loops."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    v = st.integers(0, n - 1)
    return n, draw(st.lists(st.one_of(st.tuples(v, v), v.map(lambda x: (x, x))), max_size=40))


@settings(max_examples=150, deadline=None)
@given(
    case=endpoint_pairs(),
    directed=st.booleans(),
    form=st.sampled_from(["pairs", "array", "array32", "flat"]),
)
@example(case=(0, []), directed=False, form="array")
@example(case=(5, []), directed=True, form="flat")
@example(case=(3, [(0, 0), (2, 2), (0, 0)]), directed=False, form="pairs")
def test_from_edges_matches_sorted_set_rows(case, directed, form):
    n, pairs = case
    edges = {
        "pairs": pairs,
        "array": np.array(pairs, dtype=np.int64).reshape(-1, 2),
        "array32": np.array(pairs, dtype=np.int32).reshape(-1, 2),
        "flat": [x for pair in pairs for x in pair],
    }[form]
    g = from_edges(n, edges, directed)
    assert g.offsets.dtype == np.int64 and g.targets.dtype == np.int32
    assert g.offsets.shape == (n + 1,) and g.m == len(g.targets) == g.offsets[-1]
    assert [out(g, v).tolist() for v in range(n)] == reference_rows(n, pairs, directed)


class TestEndpointValidation:
    def test_negative_id(self):
        with pytest.raises(ValueError, match=r"edge 0 \(0, -1\)"):
            from_edges(3, [(0, -1)], directed=False)

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match=r"n=-1 is negative"):
            from_edges(-1, [], directed=False)

    def test_vertex_count_past_the_int32_ids(self):
        # only the rejected side: a graph at the limit needs 16 GB of offsets
        with pytest.raises(ValueError, match=r"n=2147483649 exceeds 2\*\*31"):
            from_edges(2**31 + 1, [], directed=True)

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
            adj[u, out(g, u)] = True
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
            for w in out(g, u):
                assert 0 <= dist[int(w)] <= dist[u] + 1

    def test_source_out_of_range(self):
        g = load_lines(["0 1"], directed=False)
        with pytest.raises(IndexError):
            bfs(g, 2)


@pytest.mark.parametrize("directed", [False, True])
def test_neighbor_or_over_every_row_range(directed):
    # rows 0, 3, 4 and the last two have no arcs: an empty row reads 0, in
    # the middle of a range, at its end and at the end of the graph
    edges = [(1, 2), (2, 5), (5, 6), (6, 1), (1, 7), (7, 2)]
    g = from_edges(10, edges, directed=directed)
    assert np.flatnonzero(g.degrees == 0).tolist() == [0, 3, 4, 8, 9]
    words = np.array([1 << v for v in range(g.n)], dtype=np.uint64)
    expected = [sum(1 << int(w) for w in out(g, v)) for v in range(g.n)]
    for a in range(g.n + 1):
        for z in range(a, g.n + 1):
            pulled = neighbor_or(g, words, a, z, *pull_rows(g, a, z))
            assert pulled.tolist() == expected[a:z], (a, z)


class TestConnectedComponents:
    def test_three_path_single_component(self):
        g = load_lines(["0 1", "1 2"], directed=False)
        comps = connected_components(g)
        assert len(comps.component_size) == 1
        assert comps.component_size.tolist() == [3]

    def test_two_disjoint_edges(self):
        g = load_lines(["0 1", "2 3"], directed=False)
        comps = connected_components(g)
        assert sorted(comps.component_size.tolist()) == [2, 2]
        assert comps.component_size[comps.component_id].tolist() == [2, 2, 2, 2]

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


def bfs_labelling(g):
    """Components by a per-vertex BFS loop, numbered by smallest member."""
    comp, sizes = [-1] * g.n, []
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        comp[s] = len(sizes)
        queue = [s]
        for u in queue:
            for w in out(g, u).tolist():
                if comp[w] < 0:
                    comp[w] = comp[s]
                    queue.append(w)
        sizes.append(len(queue))
    return comp, sizes


def _random_path(n, seed, closed):
    ids = np.random.default_rng(seed).permutation(n)
    return from_edges(n, np.column_stack((ids, np.roll(ids, -1)))[: n if closed else n - 1], False)


def _bit_reversal_path(bits):
    ids = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]
    return from_edges(len(ids), list(zip(ids, ids[1:])), False)


def _reversed_binary_tree(n):
    # heap position i has id n-1-i, so every parent has a larger id than its children
    return from_edges(n, [(n - 1 - (i - 1) // 2, n - 1 - i) for i in range(1, n)], False)


def _isolated_and_small(n, seed):
    # components of 1-4 vertices over shuffled ids, many of them isolated vertices
    rng = np.random.default_rng(seed)
    ids, edges, i = rng.permutation(n), [], 0
    while i < n:
        size = int(rng.choice([1, 1, 1, 2, 3, 4]))
        part = ids[i : i + size].tolist()
        edges += [(part[j], part[int(rng.integers(j))]) for j in range(1, len(part))]
        i += size
    return from_edges(n, edges, False)


@pytest.mark.parametrize(
    "g",
    [
        _random_path(500, 1, closed=False),
        _random_path(500, 2, closed=True),
        _bit_reversal_path(10),
        _reversed_binary_tree(1023),
        _isolated_and_small(600, 3),
    ],
    ids=[
        "random-path", "random-cycle", "bit-reversal-path", "reversed-binary-tree", "isolated-small"
    ],
)
def test_components_match_bfs_labelling(g):
    comp, sizes = bfs_labelling(g)
    comps = connected_components(g)
    assert comps.component_id.tolist() == comp
    assert comps.component_size.tolist() == sizes


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


def loop_edge_list(g):
    """The per-arc loop that write_edge_list and Graph.edges replaced."""
    kind = "directed" if g.directed else "undirected"
    lines = [f"# topclose edge list: n={g.n} m={g.m} {kind}\n"]
    for u in range(g.n):
        for w in out(g, u):
            w = int(w)
            if g.directed or u < w:
                lines.append(f"{g.labels[u]} {g.labels[w]}\n")
    return "".join(lines)


def test_write_edge_list_matches_loop(suite):
    labelled = [
        ("labels-u", load_lines(["b a", "a c", "c b", "d d"], directed=False)),
        ("labels-d", load_lines(["b a", "a c", "c b", "a b"], directed=True)),
        ("empty", from_edges(0, [], directed=False)),
    ]
    for tag, g in suite + labelled:
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == loop_edge_list(g), tag
