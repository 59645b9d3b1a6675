#!/usr/bin/env python3
"""Mutation check: each catalogued mutant must fail the tests named for it.

A mutant is (file under src/, old text, new text, the fast tests expected
to fail). The script first runs every named test on an unmutated copy of
src/; they must pass there. Then, for each mutant, it copies src/ to a
temporary directory, replaces the old text (which must occur exactly once)
and runs the mutant's tests against the copy. A mutant whose tests still
pass survived: some guard has no test that needs it. The script lists the
survivors and exits 1. It exits 2 when the catalogue no longer matches the
code or the tests fail without any mutant.

A run that outlives its 300 s limit counts as killed and is reported as
timed out. Each line gives the seconds its run took.

The catalogue holds the loader's guards, the cut keys' (both ends of the
reachable-count interval, the raise of its lower end to the vertices
seen, the 2**53 guard's scalar test and per-entry mask, the integer
fallback for the keys past it and the +inf of a degenerate bound), the
cut test key <= x in the kernel (where only exact-r visits leave
before the gather) and in the decision, the screen's claim,
the visit order's drop of the vertices never visited, the visit
decision's (with the row log's offsets of the visits that left the
kernel and its test for the first claim still running), the boundary
state the records hold (the gamma that the kernel and the screen write,
and a completion's farness and r, read from its end row), the kernel's
pull (the OR of the masks of the vertices started since the last step,
its test on the arcs left once a visit leaves and the leaving bits kept
out of the masks it reads), its per-source count's byte table and its
float64 past 2**24, its clear of a freed slot's
seen bits and the growth of its level table, and the parallel run's: its
warm-up, its fork only when its first claim at a positive threshold
leaves visits, its mmap import, shared memory and lock made only for a
fork, the parent's move onto the shared state when it forks, no fork
hook for a serial run, a worker's nonzero exit code raised, a forked
child's exit in place of a return, and the lock's exclusion. It also
holds the reachability bounds': the SCC trim's sources in reverse peel
order, its dedup of a round's sinks and its one side for a vertex with
neither arc, and the dedup of the alpha/omega rounds' ready set. A later
change that adds a cut, scheduling or bounds path adds its mutants.

Usage: python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


GRAPH = "topclose/graph.py"
BULK = "tests/test_graph.py::TestBulkRoute"
ENGINE = "topclose/engine.py"
KEYS = "tests/test_bounds.py::test_cut_keys_match_the_scalar_bound"
ORACLE = "tests/test_bounds.py::test_cut_key_is_above_the_oracle[1]"
DEGENERATE = "tests/test_bounds.py::TestClosenessUpperBound::test_degenerate_bound_is_infinite"
TIE = "tests/test_engine.py::TestKernel::test_a_key_equal_to_the_threshold_retires_the_visit"
REPLAY = "tests/test_engine.py::TestKernel::test_replay_decides_inexact_keys_in_integers"
HUB = "tests/test_engine.py::TestTopK::test_screen_settles_a_hub_graph_not_a_grid"
PATH = "tests/test_engine.py::TestTopK::test_path_middle_vertex_wins"
AGREE = "tests/test_engine.py::TestKernel::test_pull_and_push_agree[8192]"
GATHERED = "tests/test_engine.py::TestKernel::test_arcs_gathered_counts_the_kernel_gathers"
LADDER = "tests/test_engine.py::TestBfsCut::test_frontiers_hold_no_repeats[ladder]"
UNSCREENED = "tests/test_engine.py::TestTopK::test_screen_matches_the_visit_loop_without_it"
SPANS = "tests/test_engine.py::TestTopK::test_spans_cut_short_match_the_reference[3]"
WARMUP = "tests/test_engine.py::TestParallel::test_workers_start_from_a_positive_threshold"
DEAD = "tests/test_engine.py::TestParallel::test_dead_worker_raises"
FORKS = "tests/test_engine.py::TestParallel::test_forks_only_when_visits_are_left"
NO_LOCKS = "tests/test_engine.py::TestParallel::test_a_run_that_forks_none_makes_no_locks"
EXCLUDES = "tests/test_engine.py::TestParallel::test_the_lock_excludes_other_processes"
COUNT = "tests/test_engine.py::TestKernel::test_per_source_counts_every_bit_exactly"
ARCS_LEFT = "tests/test_engine.py::TestKernel::test_a_step_pulls_only_on_the_arcs_left"
RAISED = ("tests/test_engine.py::TestParallel::"
          "test_a_decision_acts_on_a_threshold_another_worker_raised")
INDEPENDENT = "tests/test_independent_oracle.py::test_top_k_matches_on_the_suite"
SCC = "topclose/scc.py"
SWEEP = "tests/test_scc.py::test_trim_and_rounds_match_the_oracle_and_the_sweep"
INVARIANTS = "tests/test_scc.py::TestComputeSccDag::test_invariants_random"

MUTANTS = (
    Mutant(
        "loader: accept any byte, not only digits, '-' and whitespace",
        GRAPH,
        "if np.count_nonzero(digit) + np.count_nonzero(minus) + blank != len(a):",
        "if False:",
        (f"{BULK}::test_edge_token",),
    ),
    Mutant(
        "loader: drop the two-tokens-per-line check",
        GRAPH,
        'if b"\\0\\0\\0" in runs or b"\\1\\0\\1" in runs:',
        "if False:",
        (f"{BULK}::test_line_shapes",),
    ),
    Mutant(
        "loader: drop the canonical sign check",
        GRAPH,
        "if np.count_nonzero(signed) != np.count_nonzero(minus):",
        "if False:",
        (f"{BULK}::test_edge_token",),
    ),
    Mutant(
        "loader: drop the canonical leading-zero check",
        GRAPH,
        "if (start[:-1] & (a[:-1] == 48) & ~space[1:]).any():",
        "if False:",
        (f"{BULK}::test_edge_token",),
    ),
    Mutant(
        "loader: drop the int64-edge guard",
        GRAPH,
        "if vals.min() == _INT64.min or vals.max() == _INT64.max:",
        "if False:",
        (f"{BULK}::test_edge_token",),
    ),
    Mutant(
        "loader: accept numpy's parse whatever its length",
        GRAPH,
        "if len(vals) != count:",
        "if False:",
        (f"{BULK}::test_line_shapes",),
    ),
    Mutant(
        "loader: read a '#' after a token as a comment",
        GRAPH,
        'if data[data.rfind(b"\\n", 0, at) + 1 : at].strip():',
        "if False:",
        (f"{BULK}::test_line_shapes",),
    ),
    Mutant(
        "loader: ids in sorted order, not first appearance",
        GRAPH,
        "keys = key[is_first]",
        "keys = np.unique(key)",
        (f"{BULK}::test_first_appearance_order",
         f"{BULK}::test_sparse_labels_sorted_by_first_appearance"),
    ),
    Mutant(
        "decision: at the threshold read before the last decide, not the live one",
        ENGINE,
        "claimed, stop = claimed[took:], stop - took\n                x = heap.threshold",
        "claimed, stop = claimed[took:], stop - took",
        (HUB,),
    ),
    Mutant(
        "row log: a left visit's rows read one offset off",
        ENGINE,
        "self.end[rec.vs], self.depth[rec.vs] = a + rec.depth.cumsum(), rec.depth",
        "self.end[rec.vs], self.depth[rec.vs] = a + 1 + rec.depth.cumsum(), rec.depth",
        (HUB, SPANS),
    ),
    Mutant(
        "decision: take the claims up to the first still running even while the first runs",
        ENGINE,
        "if claimed.size and log.depth[claimed[0]]:",
        "if claimed.size:",
        (HUB, SPANS),
    ),
    Mutant(
        "decision: go on after a push that raises the threshold",
        ENGINE,
        "if heap.threshold > x:",
        "if False:",
        (HUB,),
    ),
    Mutant(
        "screen: claim at threshold 0, not the live one",
        ENGINE,
        "self.keys[1][window]) <= x",
        "self.keys[1][window]) <= 0.0",
        (HUB,),
    ),
    Mutant(
        "kernel: < for <= against the threshold",
        ENGINE,
        "cut = key <= x",
        "cut = key < x",
        (TIE,),
    ),
    Mutant(
        "kernel: an alpha/omega visit leaves before the gather that tells whether it goes on",
        ENGINE,
        "        if some_ao:\n            leave &= ~ao\n",
        "",
        (REPLAY,),
    ),
    Mutant(
        "decision: < for <= against the threshold",
        ENGINE,
        "~more | (rec.keys <= x)",
        "~more | (rec.keys < x)",
        (REPLAY,),
    ),
    Mutant(
        "decision: a completion's farness and r from the row before its end",
        ENGINE,
        "*ints[:2, at[done]].tolist()",
        "*ints[:2, at[done] - 1].tolist()",
        (PATH,),
    ),
    Mutant(
        "screen: boundary-1 gamma unrefined",
        ENGINE,
        "gamma1 = s1 - deg if not g.directed else s1",
        "gamma1 = s1",
        (HUB,),
    ),
    Mutant(
        "kernel: the degree sum recorded as gamma",
        ENGINE,
        "self.more[:] = more\n",
        "self.more[:] = more\n        self.gamma[:] = self.s\n",
        (HUB,),
    ),
    Mutant(
        "closeness bound: 0, not +inf, for a non-positive lambda",
        ENGINE,
        "out=np.full(den.shape, INF)",
        "out=np.full(den.shape, 0.0)",
        (DEGENERATE,),
    ),
    Mutant(
        "cut keys: > for >= in the per-entry 2**53 guard",
        ENGINE,
        "(n - 1.0) * lam) >= 2.0**53",
        "(n - 1.0) * lam) > 2.0**53",
        (KEYS,),
    ),
    Mutant(
        "cut keys: no raise in the array keys",
        ENGINE,
        "np.array([omega, np.maximum(alpha, np.minimum(n_d, omega))])",
        "np.array([omega, alpha])",
        (KEYS,),
    ),
    Mutant(
        "cut keys: lower end raised to omega, not to the visited count",
        ENGINE,
        "np.array([omega, np.maximum(alpha, np.minimum(n_d, omega))])",
        "np.array([omega, np.maximum(alpha, np.maximum(n_d, omega))])",
        (ORACLE,),
    ),
    Mutant(
        "cut keys: only the omega end",
        ENGINE,
        "np.maximum(key[0], key[1])",
        "key[0]",
        (ORACLE,),
    ),
    Mutant(
        "pull: a plain scatter of the started tail's masks, not an OR",
        ENGINE,
        "np.bitwise_or.at(acc, frontier[head:], masks[head:])",
        "acc[frontier[head:]] = masks[head:]",
        (AGREE,),
    ),
    Mutant(
        "pull: keep the visits that have seen a vertex in its pulled word",
        ENGINE,
        "pulled &= ~seen[a:z]",
        "pass",
        (AGREE,),
    ),
    Mutant(
        "pull: leave the frontier's masks in acc",
        ENGINE,
        "acc[frontier] = 0\n        self.gathered += g.m",
        "self.gathered += g.m",
        (AGREE,),
    ),
    Mutant(
        "kernel: a freed slot keeps its bits in seen",
        ENGINE,
        "self.seen &= ~_word(_BIT[gone])",
        "pass",
        (GATHERED,),
    ),
    Mutant(
        "kernel: grow the level table without its rows",
        ENGINE,
        "np.concatenate([a, np.empty_like(a)], axis=-1)",
        "np.concatenate([np.empty_like(a), np.empty_like(a)], axis=-1)",
        (LADDER,),
    ),
    Mutant(
        "visit order: keep the skipped vertices",
        ENGINE,
        "order = order[bounds.alpha[order] > 1]\n    screen",
        "screen",
        (UNSCREENED,),
    ),
    Mutant(
        "cut keys: skip the per-entry guard although a term reaches 2**53",
        ENGINE,
        "* int(lam.max(initial=0))) >= 2**53:",
        "* int(lam.max(initial=0))) >= 2**53 and False:",
        (KEYS,),
    ),
    Mutant(
        "cut keys: skip the integer fallback",
        ENGINE,
        "key[rows] = [interval_closeness_bound(*row, n) for row in per_row]",
        "pass",
        (KEYS,),
    ),
    Mutant(
        "count: the byte table built high bit first",
        ENGINE,
        'np.arange(256, dtype=np.uint8)[:, None], 1, bitorder="little")',
        'np.arange(256, dtype=np.uint8)[:, None], 1, bitorder="big")',
        (COUNT,),
    ),
    Mutant(
        "pull: tested on the arc sum before the leaving bits are cleared",
        ENGINE,
        "int(deg @ active if left else deg.sum())",
        "int(deg.sum())",
        (f"{ARCS_LEFT}[grid-20]",),
    ),
    Mutant(
        "pull: a leaving visit's bits kept in the masks it reads",
        ENGINE,
        "frontier, masks = self._pull(frontier, masks, self.started)",
        "frontier, masks = self._pull(frontier, self.masks, self.started)",
        (AGREE,),
    ),
    Mutant(
        "count: float32 even once the weights reach 2**24",
        ENGINE,
        "dtype = np.float32 if weights.sum() < 2**24 else np.float64",
        "dtype = np.float32",
        (COUNT,),
    ),
    Mutant(
        "trim: sources numbered in peel order, not reverse",
        SCC,
        "*sources[::-1]",
        "*sources",
        (INVARIANTS,),
    ),
    Mutant(
        "trim: a vertex peeled twice in one round",
        SCC,
        "sink = distinct(pred[(out[pred] == 0) & alive[pred]], slot)",
        "sink = pred[(out[pred] == 0) & alive[pred]]",
        (INVARIANTS,),
    ),
    Mutant(
        "trim: a vertex with neither arc peeled as a sink and as a source",
        SCC,
        "source = source[out[source] > 0]",
        "pass",
        (INVARIANTS,),
    ),
    Mutant(
        "alpha/omega rounds: a ready component is folded twice",
        SCC,
        "ready = distinct(pred[pending[pred] == 0], slot)",
        "ready = pred[pending[pred] == 0]",
        (SWEEP,),
    ),
    Mutant(
        "scheduler: fork the workers before the threshold rises",
        ENGINE,
        "if spawn and x > 0:",
        "if spawn:",
        (WARMUP,),
    ),
    Mutant(
        "scheduler: fork even when the first claim at a positive threshold left no visit",
        ENGINE,
        "if more:  # it left visits for the others",
        "if True:",
        (f"{FORKS}[pa1000-2-0]",),
    ),
    Mutant(
        "scheduler: import mmap with the module",
        ENGINE,
        "from __future__ import annotations\n",
        "from __future__ import annotations\n\nimport mmap\n",
        (NO_LOCKS,),
    ),
    Mutant(
        "scheduler: share the state and make the lock before the warm-up",
        ENGINE,
        "    try:\n        counts[0] = _visit_all(",
        "    if workers > 1:\n        files.append(tempfile.TemporaryFile())\n"
        "        values, cursor, counts, *results = map(\n"
        "            _shared, (values, cursor, counts, *results))\n"
        "    try:\n        counts[0] = _visit_all(",
        (NO_LOCKS,),
    ),
    Mutant(
        "scheduler: the parent's loop keeps its private cursor and results after the fork",
        ENGINE,
        "heap, cursor, results, lock = spawn()",
        "heap, _, _, lock = spawn()",
        (RAISED, f"{INDEPENDENT}[2]"),
    ),
    Mutant(
        "scheduler: a serial run gets the fork hook",
        ENGINE,
        "spawn if workers > 1 else None)",
        "spawn)",
        (NO_LOCKS,),
    ),
    Mutant(
        "scheduler: a worker's nonzero exit ignored",
        ENGINE,
        "if code:\n                raise RuntimeError(",
        "if False:\n                raise RuntimeError(",
        (f"{DEAD}[exception]", f"{DEAD}[heap-lock-sigkill]"),
    ),
    Mutant(
        "fork: a child that returns into the caller after its work",
        ENGINE,
        "    finally:\n        os._exit(code)",
        "    finally:\n        pass",
        (NO_LOCKS,),
    ),
    Mutant(
        "lock: LOCK_EX a no-op",
        ENGINE,
        "fcntl.lockf(self.file, fcntl.LOCK_EX)",
        "pass",
        (EXCLUDES,),
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> str:
    """"passed", "failed" or "timed out" (after 300 s): the tests, run with
    ``src`` as the package source. Asserts fail as plain asserts: with no
    bytecode cache, rewriting them (hypothesis's modules too, as a pytest
    plugin's) costs about 1 s per run, and only the outcome is read."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--assert=plain", *tests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for m in MUTANTS:
            count = (ROOT / "src" / m.file).read_text().count(m.old)
            if count != 1:
                print(f"stale: {m.name}: old text found {count} times in src/{m.file}")
                return 2
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        t = time.perf_counter()
        if run_tests(src, tests) != "passed":
            print("the named tests fail on the unmutated source")
            return 2
        print(f"passed\t{time.perf_counter() - t:5.1f} s\tthe unmutated source")
        survivors = []
        for m in MUTANTS:
            path = src / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            t = time.perf_counter()
            outcome = run_tests(src, m.tests)
            seconds = time.perf_counter() - t
            path.write_text(original)
            killed = outcome != "passed"  # a run that times out counts as killed
            note = " (timed out)" if outcome == "timed out" else ""
            print(f"{'killed' if killed else 'SURVIVED'}\t{seconds:5.1f} s\t{m.name}{note}")
            if not killed:
                survivors.append(m)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - t0:.1f} s")
    for m in survivors:
        print(f"missing test: nothing in {', '.join(m.tests)} fails when {m.name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
