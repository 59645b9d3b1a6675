import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from topclose.engine import (
    closeness_upper_bound,
    farness_lower_bound,
    inverse_closeness_lower_bound,
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


class TestInverseClosenessLowerBound:
    def test_diamond_source(self):
        # a->b, a->c, b->d, c->d: alpha(a)=3, omega(a)=5, 1/c(a) = 4/3
        val = inverse_closeness_lower_bound(
            d=0, f_d=0, n_d=1, gamma_next=2, alpha=3, omega=5, n=4
        )
        assert val == 1.125
        assert val <= 4 / 3

    def test_exact_bounds_reduce_to_reciprocal_form(self):
        d, f_d, n_d, gamma, r, n = 1, 4, 5, 6, 9, 20
        lam = farness_lower_bound(d, f_d, n_d, gamma, r)
        inv = inverse_closeness_lower_bound(d, f_d, n_d, gamma, r, r, n)
        assert inv == (n - 1) * lam / (r - 1) ** 2

    def test_nonpositive_terms_never_cut(self):
        # both lambda terms <= 0: result is non-positive, trivially valid
        val = inverse_closeness_lower_bound(
            d=0, f_d=0, n_d=10, gamma_next=50, alpha=2, omega=3, n=20
        )
        assert val <= 0


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
    inv = inverse_closeness_lower_bound(d, f_d, n_d, gamma, alpha, omega, n)
    assert math.isfinite(inv)


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
        scalar_inv = [
            inverse_closeness_lower_bound(*a[1:], int(lo), int(hi), g.n)
            for a, lo, hi in zip(records, alpha, omega)
        ]
        assert np.array_equal(
            bits(inverse_closeness_lower_bound(d, f_d, n_d, gamma, alpha, omega, g.n)),
            bits(scalar_inv),
        ), tag
        checked += len(records)
    assert checked == 52_398
