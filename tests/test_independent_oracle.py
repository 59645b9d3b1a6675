"""top_k against an oracle that shares no code with the engine: adjacency
sets built from raw pairs, a deque BFS from every vertex, and closeness as
an exact Fraction. The engine's closeness must equal it exactly."""

import io
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topclose import from_edges, load_edge_list, top_k


def closeness_by_bfs(vertices, pairs, directed):
    """{vertex: (closeness, farness, reachable)}, from one BFS per vertex
    over the arcs ``pairs`` (both ways when undirected); closeness is
    (r - 1)**2 / ((n - 1) * farness), or 0 where only the vertex is reached."""
    adj = {v: set() for v in vertices}
    for u, w in pairs:
        adj[u].add(w)
        if not directed:
            adj[w].add(u)
    n, table = len(adj), {}
    for s in adj:
        dist, queue = {s: 0}, deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u].difference(dist):
                dist[w] = dist[u] + 1
                queue.append(w)
        r, f = len(dist), sum(dist.values())
        table[s] = (Fraction((r - 1) ** 2, (n - 1) * f) if r > 1 else Fraction(0), f, r)
    return table


def check(g, table, k, workers):
    """top_k's closeness multiset is the oracle's k best, exactly, and each
    entry's (closeness, farness, reachable) is its vertex's."""
    res, _ = top_k(g, k, workers=workers)
    best = sorted((c for c, _, _ in table.values()), reverse=True)[:k]
    assert [e.closeness for e in res.entries] == [float(c) for c in best], (k, workers)
    for e in res.entries:
        c, f, r = table[e.label]
        assert (e.closeness, e.farness, e.reachable) == (float(c), f, r), (e, k, workers)


@pytest.fixture(scope="module")
def suite_tables(suite):
    return [
        closeness_by_bfs(g.labels, ((g.labels[u], g.labels[w]) for u, w in g.edges()), g.directed)
        for _, g in suite
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_top_k_matches_on_the_suite(suite, suite_tables, workers):
    for (_, g), table in zip(suite, suite_tables):
        for k in (1, 5, 10, g.n):
            check(g, table, k, workers)


@st.composite
def raw_graphs(draw):
    """(n, pairs, directed): arcs among vertices 0..n-1 with duplicate arcs,
    self-loops and isolated vertices, at times beside an isomorphic copy."""
    n = draw(st.integers(1, 14))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=2))]
    if draw(st.booleans()):  # a disjoint isomorphic copy
        pairs += [(u + n, w + n) for u, w in pairs]
        n *= 2
    return n, pairs, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(raw_graphs(), st.sampled_from([1, 2]))
def test_top_k_matches_on_raw_pairs(graph, workers):
    n, pairs, directed = graph
    labels = [str(v) for v in range(n)]
    table = closeness_by_bfs(labels, [(labels[u], labels[w]) for u, w in pairs], directed)
    g = from_edges(n, pairs, directed)
    # string labels through the loader, where a self-loop line names an isolated vertex
    text = "".join(f"v{u} v{w}\n" for u, w in pairs + [(v, v) for v in range(n)])
    loaded = load_edge_list(io.StringIO(text), directed)
    renamed = {"v" + v: row for v, row in table.items()}
    for k in (1, 5, n):
        check(g, table, k, workers)
        check(loaded, renamed, k, workers)
