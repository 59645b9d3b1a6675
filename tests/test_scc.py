import math
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topclose import top_k, top_k_textbook
from topclose.generators import gnp
from topclose.graph import bfs, from_edges
from topclose.scc import compute_alpha_omega, compute_scc_dag, reachability_for


def digraph(edges, n):
    return from_edges(n, edges, directed=True)


# (n, arcs) of the shapes the trim must get right
SHAPES = {
    "cycle": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    # a pure DAG: the trim peels every vertex and leaves no core
    "dag": (6, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 0), (3, 5)]),
    # every vertex keeps an in-arc and an out-arc: the core is the whole graph
    "whole-core": (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (4, 1)]),
    "isolated": (7, [(0, 1), (1, 2), (2, 0), (5, 6)]),
    # round 1 peels the sink 2 and the source 0; round 2 peels 1, which is both
    "sink-and-source": (3, [(0, 1), (1, 2)]),
    # sources 0 -> 1 and 7 into the core {2, 3, 4}, sinks 5 -> 6 and 8 out of it
    "tails": (9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6), (7, 3), (4, 8)]),
}


@st.composite
def shaped_digraphs(draw):
    """(n, arcs): random arcs, kept acyclic, replaced by a cycle, joined by a
    cycle through every vertex, or hung on both sides of a cycle."""
    n = draw(st.integers(0, 24))
    vertex = st.integers(0, max(n - 1, 0))
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)) if n else []
    kind = draw(st.sampled_from(["random", "dag", "cycle", "whole-core", "tails"]))
    ring = [(v, (v + 1) % n) for v in range(n)]
    if kind == "dag":
        arcs = [(u, w) for u, w in arcs if u < w]
    elif kind == "cycle":
        arcs = ring
    elif kind == "whole-core":
        arcs += ring
    elif kind == "tails":  # sources below n/3 feed a cycle, sinks above 2n/3 leave it
        lo, hi = n // 3, 2 * n // 3
        arcs = [(u, w) for u, w in arcs if (u < lo and u < w) or (w >= hi and u < w)]
        arcs += [(v, v + 1) for v in range(lo, hi - 1)] + ([(hi - 1, lo)] if hi > lo else [])
    return n, arcs


def sweep_reference(dag, g):
    """compute_alpha_omega as one ascending sweep over the sinks-first ids,
    one component at a time: the reference its array rounds must match."""
    n = g.n
    k = dag.scc_count
    offsets, targets, w = dag.offsets.tolist(), dag.targets.tolist(), dag.weight.tolist()
    sid = dag.scc_id
    big = int(sid[np.flatnonzero(dag.weight[sid] == dag.weight.max())[0]])

    downstream = [False] * k
    downstream[big] = True
    r_big = 0
    for c in range(big, -1, -1):
        if downstream[c]:
            r_big += w[c]
            for d in targets[offsets[c] : offsets[c + 1]]:
                downstream[d] = True

    alpha = [0] * k
    omega = [0] * k
    reduced = [0] * k  # omega over the components not downstream of big; 0 on those
    reaches = [False] * k  # reaches big, or is big
    for c in range(k):
        if c == big:
            alpha[c] = omega[c] = r_big
            reaches[c] = True
            continue
        a = om = red = 0
        reach = False
        for d in targets[offsets[c] : offsets[c + 1]]:
            if alpha[d] > a:
                a = alpha[d]
            om += omega[d]
            red += reduced[d]
            reach = reach or reaches[d]
        alpha[c] = w[c] + a
        if not downstream[c]:
            reduced[c] = min(w[c] + red, n)
        reaches[c] = reach
        omega[c] = min(reduced[c] + r_big, n) if reach else min(w[c] + om, n)
    return np.asarray(alpha, dtype=np.int64)[sid], np.asarray(omega, dtype=np.int64)[sid]


def check_invariants(g, dag):
    assert int(dag.weight.sum()) == g.n
    assert dag.scc_count == 0 or dag.weight.min() > 0
    assert len(dag.offsets) == dag.scc_count + 1
    assert dag.offsets[0] == 0 and dag.offsets[-1] == len(dag.targets)
    for c in range(dag.scc_count):
        succ = dag.targets[dag.offsets[c] : dag.offsets[c + 1]].tolist()
        # sinks first: every arc goes from a higher id to a lower one
        assert all(d < c for d in succ)
        assert len(succ) == len(set(succ))


def plain_dp(dag, cap):
    """Per-component heaviest-path alpha and path-sum omega (capped at
    ``cap``) without the heaviest-component pass. Memoised recursion over
    the successor lists, so it relies on no component numbering."""
    succ = [dag.targets[dag.offsets[c] : dag.offsets[c + 1]].tolist() for c in range(dag.scc_count)]
    w = dag.weight.tolist()

    @cache
    def alpha(c):
        return w[c] + max((alpha(d) for d in succ[c]), default=0)

    @cache
    def omega(c):
        return min(w[c] + sum(omega(d) for d in succ[c]), cap)

    ids = range(dag.scc_count)
    return np.array([alpha(c) for c in ids]), np.array([omega(c) for c in ids])


class TestComputeSccDag:
    def test_three_cycle_single_scc(self):
        g = digraph([(0, 1), (1, 2), (2, 0)], 3)
        dag = compute_scc_dag(g)
        assert dag.scc_count == 1
        assert dag.weight.tolist() == [3]
        assert dag.offsets.tolist() == [0, 0]
        assert len(dag.targets) == 0

    def test_chain_of_singletons(self):
        g = digraph([(0, 1), (1, 2)], 3)
        dag = compute_scc_dag(g)
        assert dag.scc_count == 3
        assert dag.weight.tolist() == [1, 1, 1]
        # chain: exactly two DAG arcs
        assert dag.offsets[-1] == len(dag.targets) == 2

    def test_rejects_undirected(self):
        g = from_edges(2, [(0, 1)], directed=False)
        with pytest.raises(ValueError):
            compute_scc_dag(g)

    def test_partition_matches_double_bfs_oracle(self):
        # Kosaraju-style oracle: u,v share an SCC iff mutually reachable
        g = gnp(300, 0.01, 21, directed=True)
        rev = from_edges(g.n, [(w, u) for u, w in g.edges()], True)
        dag = compute_scc_dag(g)
        for v in range(0, g.n, 11):
            fwd, _, _ = bfs(g, v)
            bwd, _, _ = bfs(rev, v)
            mutual = (fwd >= 0) & (bwd >= 0)
            same_scc = dag.scc_id == dag.scc_id[v]
            assert np.array_equal(mutual, same_scc)

    def test_invariants_random(self):
        graphs = [gnp(120, 0.02, seed, directed=True) for seed in range(5)]
        graphs += [digraph(arcs, n) for n, arcs in SHAPES.values()]
        for g in graphs:
            check_invariants(g, compute_scc_dag(g))


class TestAlphaOmega:
    def test_chain_exact_by_structure(self):
        g = digraph([(0, 1), (1, 2)], 3)
        b = compute_alpha_omega(compute_scc_dag(g), g)
        assert b.alpha.tolist() == [3, 2, 1]
        assert b.omega.tolist() == [3, 2, 1]
        assert b.exact.all()
        assert b.r.tolist() == [3, 2, 1]

    def test_diamond_bounds_bracket_truth(self):
        # a->b, a->c, b->d, c->d with the trick disabled by construction:
        # check the plain dynamic program brackets r(a)=4
        g = digraph([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
        dag = compute_scc_dag(g)
        alpha, omega = plain_dp(dag, math.inf)
        a_scc = dag.scc_id[0]
        assert alpha[a_scc] == 3
        assert omega[a_scc] == 5
        _, r_a, _ = bfs(g, 0)
        assert alpha[a_scc] <= r_a <= omega[a_scc]
        assert r_a == 4

    def test_random_dag_closure_oracle(self):
        # alpha(C) <= sum of weights reachable from C <= omega(C)
        rng = np.random.default_rng(17)
        k = 50
        edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.08]
        # blow each DAG node up into a small cycle so SCCs carry weight
        sizes = rng.integers(1, 5, size=k)
        base = np.concatenate([[0], np.cumsum(sizes)])
        g_edges = []
        for i in range(k):
            members = list(range(base[i], base[i + 1]))
            if len(members) > 1:
                g_edges += [(members[t], members[(t + 1) % len(members)]) for t in range(len(members))]
        g_edges += [(base[i], base[j]) for i, j in edges]
        g = digraph(g_edges, int(base[-1]))
        dag = compute_scc_dag(g)
        b = compute_alpha_omega(dag, g)
        for v in range(0, g.n, 3):
            _, r, _ = bfs(g, v)
            assert b.alpha[v] <= r <= b.omega[v]

    def test_trick_never_loosens(self):
        for seed in range(6):
            g = gnp(150, 0.015, seed, directed=True)
            dag = compute_scc_dag(g)
            plain_alpha, plain_omega = plain_dp(dag, g.n)
            b = compute_alpha_omega(dag, g)
            assert np.all(b.alpha >= plain_alpha[dag.scc_id])
            assert np.all(b.omega <= plain_omega[dag.scc_id])

    def test_heaviest_component_pass_by_hand(self):
        # big = the 3-cycle {0,1,2}, reaching sinks 3 and 4 (r = 5). Vertex 5
        # reaches big and 3: r = 6, but the plain DP gives alpha 1 + 4 = 5 and
        # omega 1 + 5 + 1 = 7. Pinning big to 5 and dropping the downstream
        # part from omega make both 6. Vertex 6 reaches 3 but not big, so it
        # keeps the plain omega 1 + 1 = 2.
        g = digraph([(0, 1), (1, 2), (2, 0), (2, 3), (2, 4), (5, 0), (5, 3), (6, 3)], 7)
        b = compute_alpha_omega(compute_scc_dag(g), g)
        assert b.alpha.tolist() == [5, 5, 5, 1, 1, 6, 2]
        assert b.omega.tolist() == [5, 5, 5, 1, 1, 6, 2]
        assert b.exact.all()
        assert b.r.tolist() == [5, 5, 5, 1, 1, 6, 2]

    def test_heaviest_tie_goes_to_smallest_vertex_id(self):
        # two 2-cycles tie; pinning {0,1} to its reach of 4 makes it exact,
        # where the plain DP gives alpha 2 + 1 = 3
        g = digraph([(0, 1), (1, 0), (1, 4), (1, 5), (2, 3), (3, 2)], 6)
        b = compute_alpha_omega(compute_scc_dag(g), g)
        assert b.alpha.tolist() == b.omega.tolist() == [4, 4, 2, 2, 1, 1]
        assert b.exact.all()

    def test_reduced_omega_of_exponentially_many_paths(self):
        # a chain of 62 diamonds into a 3-cycle: 2**62 paths, so the path sum
        # of the chain's head leaves int64 unless it is capped at n
        edges = [(0, 1), (1, 2), (2, 0)]
        t = 3
        for _ in range(62):
            edges += [(t, t + 1), (t, t + 2), (t + 1, t + 3), (t + 2, t + 3)]
            t += 3
        edges.append((t, 0))
        g = digraph(edges, t + 1)
        assert g.n == 190
        b = reachability_for(g)
        assert b.alpha[3] == 62 * 2 + 4 and b.omega[3] == 190
        res, _ = top_k(g, 10)
        expected = top_k_textbook(g, 10)
        assert Counter(np.round(res.closeness_values(), 12)) == Counter(
            np.round(expected.closeness_values(), 12)
        )

    def test_alpha_omega_constant_within_scc(self):
        g = gnp(100, 0.03, 2, directed=True)
        dag = compute_scc_dag(g)
        b = compute_alpha_omega(dag, g)
        for c in range(dag.scc_count):
            members = np.nonzero(dag.scc_id == c)[0]
            assert len(set(b.alpha[members].tolist())) == 1
            assert len(set(b.omega[members].tolist())) == 1


@settings(max_examples=150, deadline=None)
@given(case=shaped_digraphs())
@example(case=SHAPES["cycle"])
@example(case=SHAPES["dag"])
@example(case=SHAPES["whole-core"])
@example(case=SHAPES["isolated"])
@example(case=SHAPES["sink-and-source"])
@example(case=SHAPES["tails"])
def test_trim_and_rounds_match_the_oracle_and_the_sweep(case):
    # the partition is the double-BFS oracle's, and the bounds are the
    # one-component-at-a-time sweep's, bit for bit
    n, arcs = case
    g = digraph(arcs, n)
    rev = digraph([(w, u) for u, w in arcs], n)
    dag = compute_scc_dag(g)
    check_invariants(g, dag)
    for v in range(n):
        mutual = (bfs(g, v)[0] >= 0) & (bfs(rev, v)[0] >= 0)
        assert np.array_equal(mutual, dag.scc_id == dag.scc_id[v])
    b = compute_alpha_omega(dag, g)
    if n:
        alpha, omega = sweep_reference(dag, g)
        assert b.alpha.dtype == b.omega.dtype == np.int64
        assert np.array_equal(b.alpha, alpha) and np.array_equal(b.omega, omega)
    else:
        assert b.alpha.shape == b.omega.shape == (0,)


class TestReachabilityFor:
    @pytest.mark.parametrize("n", [0, 4])
    def test_empty_and_arcless_digraphs(self, n):
        # no arcs: every vertex reaches only itself; n = 0: empty bounds
        g = digraph([], n)
        for b in (compute_alpha_omega(compute_scc_dag(g), g), reachability_for(g)):
            assert b.alpha.tolist() == b.omega.tolist() == [1] * n
            assert b.exact.all()
        u = from_edges(n, [], directed=False)
        assert reachability_for(u).r.tolist() == [1] * n

    def test_undirected_disjoint_edges(self):
        g = from_edges(4, [(0, 1), (2, 3)], directed=False)
        b = reachability_for(g)
        assert b.exact.all()
        assert b.r.tolist() == [2, 2, 2, 2]

    def test_strongly_connected_digraph(self):
        g = digraph([(0, 1), (1, 2), (2, 0)], 3)
        b = reachability_for(g)
        assert b.exact.all()
        assert b.r.tolist() == [3, 3, 3]

    def test_directed_chain(self):
        g = digraph([(0, 1), (1, 2)], 3)
        b = reachability_for(g)
        assert b.exact.all()
        assert b.r.tolist() == [3, 2, 1]

    @pytest.mark.parametrize("directed", [False, True])
    def test_bounds_bracket_bfs_on_random_graphs(self, directed):
        for seed in range(4):
            g = gnp(90, 0.02, seed, directed=directed)
            b = reachability_for(g)
            for v in range(g.n):
                _, r, _ = bfs(g, v)
                assert b.alpha[v] <= r <= b.omega[v]
                if b.exact[v]:
                    assert b.r[v] == r
