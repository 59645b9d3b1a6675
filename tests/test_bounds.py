import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topclose import from_edges
from topclose.engine import (
    CUT,
    VisitOutcome,
    bfs_cut,
    closeness_upper_bound,
    cut_keys,
    farness_lower_bound,
    interval_closeness_bound,
    top_k,
)
from topclose.scc import reachability_for


class TestFarnessLowerBound:
    def test_star_center_at_level_zero(self):
        # K_{1,3} from the center: f = 3, bound is already exact at d=0
        assert farness_lower_bound(d=0, f_d=0, n_d=1, gamma_next=3, x=4) == 3

    def test_star_leaf_at_level_zero(self):
        # from a leaf: f = 1 + 2 + 2 = 5
        assert farness_lower_bound(d=0, f_d=0, n_d=1, gamma_next=1, x=4) == 5

    def test_completed_visit_is_exact(self):
        # x = n_d and empty next frontier: bound collapses to f_d
        assert farness_lower_bound(d=3, f_d=17, n_d=9, gamma_next=0, x=9) == 17


class TestClosenessUpperBound:
    def test_star_center(self):
        lam = farness_lower_bound(0, 0, 1, 3, 4)
        assert closeness_upper_bound(lam, r=4, n=4) == 1.0

    def test_degenerate_bound_is_infinite(self):
        assert closeness_upper_bound(0, r=5, n=10) == math.inf
        assert closeness_upper_bound(-3, r=5, n=10) == math.inf
        lam = np.array([0, -3, 4])
        assert closeness_upper_bound(lam, np.array([5, 5, 5]), 10).tolist() == [
            math.inf, math.inf, closeness_upper_bound(4, 5, 10)
        ]

    def test_three_cycle_boundary(self):
        # directed 3-cycle from vertex 0, boundary d=0 -> 1
        lam = farness_lower_bound(0, 0, 1, 1, 3)
        assert lam == 3
        assert closeness_upper_bound(lam, r=3, n=3) == 2 / 3


class TestIntervalClosenessBound:
    def test_diamond_source(self):
        # a->b, a->c, b->d, c->d: alpha(a)=3, omega(a)=5, c(a) = 3/4; the
        # ends give 4/(3*2) and 16/(3*6)
        val = interval_closeness_bound(d=0, f_d=0, n_d=1, gamma_next=2, alpha=3, omega=5, n=4)
        assert val == 16 / 18
        assert val >= 3 / 4

    def test_exact_bounds_reduce_to_closeness_upper_bound(self):
        d, f_d, n_d, gamma, r, n = 1, 4, 5, 6, 9, 20
        lam = farness_lower_bound(d, f_d, n_d, gamma, r)
        key = interval_closeness_bound(d, f_d, n_d, gamma, r, r, n)
        assert key == closeness_upper_bound(lam, r, n)

    def test_nonpositive_terms_never_cut(self):
        # a lambda <= 0 at an end (here both): +inf, trivially valid
        val = interval_closeness_bound(d=0, f_d=0, n_d=10, gamma_next=50, alpha=2, omega=3, n=20)
        assert val == math.inf


@given(
    d=st.integers(0, 50),
    f_d=st.integers(0, 10_000),
    n_d=st.integers(1, 1_000),
    gamma=st.integers(0, 10_000),
    alpha=st.integers(2, 1_000),
    extra=st.integers(0, 1_000),
)
def test_bound_functions_are_total(d, f_d, n_d, gamma, alpha, extra):
    omega = alpha + extra
    n = max(n_d, omega) + 1
    lam = farness_lower_bound(d, f_d, n_d, gamma, alpha)
    assert isinstance(lam, int)
    assert closeness_upper_bound(lam, alpha, n) >= 0
    # positive, so a threshold of 0 never cuts
    assert interval_closeness_bound(d, f_d, n_d, gamma, alpha, omega, n) > 0


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_array_evaluation_matches_scalar_bit_for_bit(suite, suite_oracle):
    # every boundary top_k evaluates on the suite (criterion 2's records),
    # with the vertex's true r(v) and its alpha/omega pair
    checked = 0
    for tag, g in suite:
        records = []
        top_k(g, 10, recorder=lambda *a: records.append(a))
        if not records:
            continue
        table, _ = suite_oracle[tag]
        bounds = reachability_for(g)
        v, d, f_d, n_d, gamma = (np.array(c, dtype=np.int64) for c in zip(*records))
        r = table.reachable[v]
        alpha, omega = bounds.alpha[v], bounds.omega[v]
        lam = farness_lower_bound(d, f_d, n_d, gamma, r)
        scalar_lam = [farness_lower_bound(*a[1:], int(x)) for a, x in zip(records, r)]
        assert lam.tolist() == scalar_lam, tag
        assert np.array_equal(
            bits(closeness_upper_bound(lam, r, g.n)),
            bits([closeness_upper_bound(lam_, int(x), g.n) for lam_, x in zip(scalar_lam, r)]),
        ), tag
        scalar_keys = [
            interval_closeness_bound(*a[1:], int(lo), int(hi), g.n)
            for a, lo, hi in zip(records, alpha, omega)
        ]
        assert np.array_equal(
            bits(cut_keys(d, f_d, n_d, gamma, alpha, omega, g.n)), bits(scalar_keys)
        ), tag
        checked += len(records)
    assert checked == 52_395


@pytest.mark.parametrize("k", [1, 10])
def test_cut_key_is_above_the_oracle(suite, suite_oracle, k):
    # at every boundary a run records, directed or not, the cut key is at
    # least the true closeness (r-1)**2 / ((n-1) * farness). Both sides are
    # exact: the scalar form, given f_d as a Fraction, computes in
    # Fractions. cut_keys' keys are the scalar form's floats.
    checked = 0
    for tag, g in suite:
        records = []
        top_k(g, k, recorder=lambda *a: records.append(a))
        table, _ = suite_oracle[tag]
        bounds = reachability_for(g)
        rows = [a for a in records if table.reachable[a[0]] > 1]
        if not rows:
            continue
        v, d, f_d, n_d, gamma = (np.array(c, dtype=np.int64) for c in zip(*rows))
        keys = cut_keys(d, f_d, n_d, gamma, bounds.alpha[v], bounds.omega[v], g.n)
        for (u, level, f, nd, gm), key in zip(rows, keys.tolist()):
            r, alpha, omega = int(table.reachable[u]), int(bounds.alpha[u]), int(bounds.omega[u])
            closeness = Fraction((r - 1) ** 2, (g.n - 1) * int(table.farness[u]))
            bound = interval_closeness_bound(level, Fraction(f), nd, gm, alpha, omega, g.n)
            assert bound >= closeness, (tag, u, level)
            scalar = interval_closeness_bound(level, f, nd, gm, alpha, omega, g.n)
            assert key == scalar, (tag, u, level)
            checked += 1
    assert checked > 10_000


def test_visited_count_raises_the_lower_end_to_a_cut():
    # 0 reaches 1..20 and the chain 21 -> 22 -> 23, but not the 3-cycle,
    # the heaviest SCC: alpha(0) = 4 and omega(0) = r(0) = 24. At boundary 1,
    # 22 vertices are seen, so the lower end is 22, not 4, and the key falls
    # from +inf to 441/520 <= 0.85, while closeness(0) is 529/676 = 0.7825.
    # The visit is cut at level 1 after 22 arcs; run to its end it scans 23
    arcs = [(0, i) for i in range(1, 22)] + [(21, 22), (22, 23), (24, 25), (25, 26), (26, 24)]
    g = from_edges(27, arcs, directed=True)
    bounds = reachability_for(g)
    assert not bounds.exact[0] and (bounds.alpha[0], bounds.omega[0]) == (4, 24)
    assert closeness_upper_bound(farness_lower_bound(1, 21, 22, 1, 4), 4, 27) == math.inf
    key = interval_closeness_bound(1, 21, 22, 1, 4, 24, 27)
    assert key == 21**2 / (26 * (21 - 1 + 3 * (22 - 22)))  # farness bound at 22
    assert 529 / 676 < key <= 0.85
    assert cut_keys(*(np.array([a]) for a in (1, 21, 22, 1, 4, 24)), 27)[0] == key
    assert bfs_cut(g, 0, lambda: 0.85, bounds) == VisitOutcome(CUT, 21, 22, 1, 22)
    completed = bfs_cut(g, 0, lambda: 0.0, bounds)
    assert (completed.farness, completed.reachable, completed.arcs) == (26, 24, 23)


def random_boundary_states(seed, count):
    """Integer boundary states whose float64 intermediates fall on both
    sides of 2**53: log-uniform sizes up to 2**30 and sums up to 2**45, plus
    x - 1 just either side of sqrt(2**53) = 94906265.6. Half are exact
    (alpha = omega)."""
    rng = np.random.default_rng(seed)

    def logs(high, size=count):
        return np.exp(rng.uniform(0, np.log(high), size)).astype(np.int64)

    alpha = 2 + logs(2**30)
    omega = alpha + logs(2**20)
    exact = rng.random(count) < 0.5
    alpha[exact] = omega[exact]
    n = omega + logs(2**30)
    n_d = 1 + rng.integers(0, omega)
    f_d, gamma = logs(2**45), logs(2**45)
    d = rng.integers(0, 60, count)
    # (omega - 1)**2 just below and just above 2**53, with farness bounds
    # small enough that it alone decides: one vertex unseen at level 0
    edge = slice(0, 8)
    omega[edge] = 94906266 + np.arange(8) % 2
    alpha[edge] = np.where(np.arange(8) < 4, omega[edge], 2)
    n[edge], n_d[edge] = omega[edge] + 1, omega[edge] - 1
    d[edge], f_d[edge], gamma[edge] = 0, 1, 0
    # (n-1)*lam = 2**53 + 1, which float64 rounds to 2**53
    alpha[8], omega[8], n[8] = 4, 4, 4
    d[8], n_d[8], gamma[8], f_d[8] = 0, 1, 0, 3002399751580331 - 6
    # only the lower end's (n-1)*lam reaches 2**53: -2**26 * 2**27
    alpha[9], omega[9], n[9] = 2, 2**26, 2**26 + 1
    d[9], n_d[9], gamma[9], f_d[9] = 0, 2**26 - 1, 2**27, 0
    return d, f_d, n_d, gamma, alpha, omega, n


def scalar_key(d, f_d, n_d, gamma, alpha, omega, n):
    """The cut key in Python integers, and its integer intermediates."""
    terms = []
    for x in (max(alpha, min(n_d, omega)), omega):  # the lower end, raised to the vertices seen
        terms += [(x - 1) ** 2, (n - 1) * farness_lower_bound(d, f_d, n_d, gamma, x)]
    return interval_closeness_bound(d, f_d, n_d, gamma, alpha, omega, n), terms


def keys_one_by_one(states, n):
    """cut_keys called on one state at a time: exact or not per call."""
    cols = [np.asarray(c) for c in states]
    return np.concatenate([
        cut_keys(*(c[i : i + 1] for c in cols), int(n[i])) for i in range(len(cols[0]))
    ])


def test_cut_keys_match_the_scalar_bound():
    *states, n = random_boundary_states(0, 3000)
    keys = keys_one_by_one(states, n)
    # [states with a term float64 cannot hold, the others], exact r and not
    checked = {True: [0, 0], False: [0, 0]}
    for i, state in enumerate(zip(*states, n)):
        state = [int(v) for v in state]
        key, terms = scalar_key(*state)
        checked[state[4] == state[5]][max(abs(t) for t in terms) < 2**53] += 1
        assert bits([keys[i]]) == bits([key]), state
    for exact in (True, False):
        assert min(checked[exact]) >= 100, checked
    # one call over both kinds of state gives the keys of one call per state
    n_all = np.full(len(n), 2**31)
    assert np.array_equal(cut_keys(*states, 2**31), keys_one_by_one(states, n_all))


def test_cut_key_ties_the_threshold_it_equals():
    # gnp-d-n50-p0.01-s8, vertex 47 (alpha 3, omega 4) at boundary 1: the
    # lower end gives 2**2 / (49 * 2) = 2/49, the same double as the
    # threshold 2/49; 1 / fl(2/49) = 24.500000000000004 > 24.5 missed it
    key = cut_keys(*(np.array([a]) for a in (1, 1, 2, 2, 3, 4)), 50)[0]
    assert key == 2 / 49 == interval_closeness_bound(1, 1, 2, 2, 3, 4, 50)
