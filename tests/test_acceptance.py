"""Acceptance criteria, one test per criterion. Each prints a PASS/FAIL line
(run with -rA or -s to see them all)."""

from __future__ import annotations

import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from topclose import top_k, top_k_textbook
from topclose.engine import closeness_upper_bound, farness_lower_bound
from topclose.generators import preferential_attachment
from topclose.graph import load_edge_list

REL_TOL = 1e-12


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def same_multiset(a: list[float], b: list[float]) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(sorted(a), sorted(b)):
        if not math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0):
            return False
    return True


@pytest.fixture(scope="module")
def parallel_runs(suite):
    """k=10 engine runs for every suite instance at 1/2/4/8 workers."""
    out = {}
    for tag, g in suite:
        out[tag] = {w: top_k(g, 10, workers=w) for w in (1, 2, 4, 8)}
    return out


@pytest.fixture(scope="module")
def big_pa_graph():
    return preferential_attachment(100_000, 4, seed=1)


def test_criterion_1_oracle_equivalence(suite, suite_oracle):
    t0 = time.perf_counter()
    failures = []
    for tag, g in suite:
        expected_full = top_k_textbook(g, max(g.n, 1))
        for k in (1, 5, 10, max(g.n, 1)):
            res, _ = top_k(g, k)
            want = [e.closeness for e in expected_full.entries[:k]]
            if not same_multiset(res.closeness_values(), want):
                failures.append((tag, k))
    elapsed = time.perf_counter() - t0
    report(
        "1 oracle-equivalence",
        not failures and elapsed < 60.0,
        f"{len(suite)} instances x 4 k-values, {len(failures)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_bound_validity(suite, suite_oracle):
    lam_bad = chat_bad = cut_bad = boundaries = 0
    for tag, g in suite:
        table, _ = suite_oracle[tag]
        records: list[tuple[int, int, int, int, int]] = []
        res, stats = top_k(g, 10, recorder=lambda *a: records.append(a))
        for v, d, f_d, n_d, gamma in records:
            boundaries += 1
            r_v = int(table.reachable[v])
            lam = farness_lower_bound(d, f_d, n_d, gamma, r_v)
            if lam > table.farness[v]:
                lam_bad += 1
            if g.n > 1 and closeness_upper_bound(lam, r_v, g.n) < table.closeness[v] - 1e-15:
                chat_bad += 1
        cut = np.nonzero(~stats.completed)[0]
        for v in cut:
            if table.closeness[v] > stats.final_threshold * (1 + REL_TOL):
                cut_bad += 1
    report(
        "2 bound-validity",
        lam_bad == 0 and chat_bad == 0 and cut_bad == 0,
        f"{boundaries} boundaries checked: {lam_bad} farness, {chat_bad} closeness,"
        f" {cut_bad} cut violations",
    )


def test_criterion_3_pruning_invariant(suite, suite_oracle):
    violations = 0
    log_factors = []
    for tag, g in suite:
        _, m_tot = suite_oracle[tag]
        _, stats = top_k(g, 1)
        if m_tot and stats.m_vis > m_tot:
            violations += 1
        if tag.startswith("gnp") and m_tot:
            log_factors.append(math.log(max(stats.m_vis, 1) / m_tot))
    geo_mean = math.exp(sum(log_factors) / len(log_factors))
    report(
        "3 pruning-invariant",
        violations == 0 and geo_mean < 0.5,
        f"{violations} m_vis>m_tot violations, geometric-mean improvement {geo_mean:.4f}",
    )


def test_criterion_4_scale_trend(big_pa_graph):
    factors = []
    big_seconds = 0.0
    for n in (10_000, 50_000, 100_000):
        g = big_pa_graph if n == 100_000 else preferential_attachment(n, 4, seed=1)
        t0 = time.perf_counter()
        _, stats = top_k(g, 10, workers=1)
        elapsed = time.perf_counter() - t0
        factors.append(stats.m_vis / stats.m_tot)
        if n == 100_000:
            big_seconds = elapsed
    monotone = all(a > b for a, b in zip(factors, factors[1:]))
    report(
        "4 scale-trend",
        monotone and big_seconds < 60.0,
        f"improvement factors {['%.5f' % f for f in factors]}, n=1e5 in {big_seconds:.1f}s",
    )


def test_criterion_5_parallel_agreement(parallel_runs):
    mismatches = 0
    for tag, runs in parallel_runs.items():
        base = runs[1][0].closeness_values()
        for w in (2, 4, 8):
            if not same_multiset(runs[w][0].closeness_values(), base):
                mismatches += 1
    report(
        "5a parallel-agreement",
        mismatches == 0,
        f"{len(parallel_runs)} instances x workers 2/4/8, {mismatches} multiset mismatches",
    )


def test_criterion_5_parallel_speedup(big_pa_graph):
    t0 = time.perf_counter()
    top_k(big_pa_graph, 10, workers=1)
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    top_k(big_pa_graph, 10, workers=8)
    t8 = time.perf_counter() - t0
    speedup = t1 / t8
    cores = len(os.sched_getaffinity(0))
    report(
        "5b parallel-speedup",
        speedup >= 3.0,
        f"1 worker {t1:.1f}s, 8 workers {t8:.1f}s, speedup {speedup:.2f}x on {cores} core(s)",
    )


def test_criterion_6_threshold_race(parallel_runs):
    vis1 = sum(runs[1][1].m_vis for runs in parallel_runs.values())
    vis8 = sum(runs[8][1].m_vis for runs in parallel_runs.values())
    extra = (vis8 - vis1) / vis1
    report(
        "6 threshold-race",
        extra <= 0.25,
        f"suite arcs: 1 worker {vis1}, 8 workers {vis8}, extra {extra:+.2%}",
    )


CA_GRQC = os.environ.get("TOPCLOSE_CA_GRQC", "datasets/ca-GrQc.txt")


@pytest.mark.skipif(
    not os.path.exists(CA_GRQC),
    reason="optional: requires the ca-GrQc edge list (set TOPCLOSE_CA_GRQC)",
)
def test_criterion_7_ca_grqc_improvement_factor():
    with open(CA_GRQC) as fh:
        g = load_edge_list(fh, directed=False)
    assert g.n == 5242
    _, stats = top_k(g, 1)
    factor = stats.m_vis / stats.m_tot
    published = 0.03472
    report(
        "7 ca-grqc",
        published / 2 <= factor <= published * 2,
        f"k=1 improvement factor {factor:.5f} vs published {published}",
    )
