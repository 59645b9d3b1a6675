"""Checks of the benchmark's own parts: the reference against the repo's
textbook oracle, the generators, the tracer and the metric declarations.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer  # noqa: E402
from topclose import exact_closeness_all, load_edge_list, top_k_textbook  # noqa: E402


def _write(tmp_path: Path, pairs, name: str) -> Path:
    path = tmp_path / name
    path.write_text("# test\n" + "".join(f"{u} {v}\n" for u, v in pairs))
    return path


def _random_pairs(seed: int, ids: int, arcs: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [tuple(p) for p in rng.integers(ids, size=(arcs, 2)).tolist()]


SMALL = [
    ("sparse", lambda: _random_pairs(1, 120, 130)),
    ("dense", lambda: _random_pairs(2, 60, 400)),
    ("path", lambda: [(i, i + 1) for i in range(90)]),
    ("cycle-ties", lambda: [(i, (i + 1) % 40) for i in range(40)]),
    ("loops-and-duplicates", lambda: _random_pairs(3, 30, 60) + [(5, 5), (7, 7), (1, 2), (1, 2)]),
    ("grid", lambda: workloads.relabel(workloads.grid_pairs(9), 4).tolist()),
    ("two-word-pass", lambda: _random_pairs(4, 2600, 5200)),  # more sources than one pass
]


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("name,make", SMALL, ids=[s[0] for s in SMALL])
def test_reference_matches_textbook(tmp_path, directed, name, make):
    path = _write(tmp_path, make(), f"{name}.txt")
    k = 10
    ref = reference.reference(path, directed, k)
    with open(path) as fh:
        g = load_edge_list(fh, directed)
    table, m_tot = exact_closeness_all(g)
    assert ref["n"] == g.n
    assert ref["m_tot"] == m_tot
    assert ref["topk_closeness"] == sorted(top_k_textbook(g, k).closeness_values(), reverse=True)
    # and the whole table, not only its top k
    n, pairs = reference.parse_edge_list(path)
    reach, far, _ = reference.closeness_table(n, pairs, directed)
    assert sorted(zip(reach, far)) == sorted(zip(table.reachable, table.farness))
    # vertex by vertex against scipy's own BFS
    dist = shortest_path(reference.adjacency(n, pairs, directed), directed=directed,
                         unweighted=True)
    found = np.isfinite(dist)
    assert np.array_equal(reach, found.sum(axis=1))
    assert np.array_equal(far, np.where(found, dist, 0).sum(axis=1).astype(np.int64))


def test_relabelled_copies_share_one_reference(tmp_path):
    base = workloads.grid_pairs(7)
    refs = [
        reference.reference(_write(tmp_path, workloads.relabel(base, s).tolist(), f"g{s}.txt"),
                            False, 10)
        for s in (1, 2)
    ]
    assert refs[0]["topk_closeness"] == refs[1]["topk_closeness"]
    assert refs[0]["m_tot"] == refs[1]["m_tot"]


def test_reference_is_cached_per_file_digest(tmp_path):
    path = _write(tmp_path, workloads.grid_pairs(5).tolist(), "g.txt")
    first = reference.cached_reference(path, "digest-a", False, 10)
    again = reference.cached_reference(path, "digest-a", False, 10)
    assert again == first
    path.write_text("0 1\n")
    rebuilt = reference.cached_reference(path, "digest-b", False, 10)
    assert rebuilt["n"] == 2 and rebuilt["sha256"] == "digest-b"


def test_edge_list_file_is_cached_and_seeded(tmp_path):
    w = workloads.WORKLOADS["grid-deep"]
    p1, h1 = workloads.edge_list_file(w, 1, tmp_path)
    again, h1_again = workloads.edge_list_file(w, 1, tmp_path)
    p2, h2 = workloads.edge_list_file(w, 2, tmp_path)
    assert (again, h1_again) == (p1, h1)
    assert h1 != h2 and h1 == workloads.sha256_of(p1)


def test_pa_urn_shape():
    pairs = workloads.pa_pairs(200, 4, seed=1)
    assert len(pairs) == 6 + 4 * (200 - 4)
    assert len({tuple(p) for p in pairs.tolist()}) == len(pairs)  # no repeated edge


def test_bit_column_counts():
    bits = np.zeros((3, 2), dtype=np.uint64)
    bits[0, 0] = 0b101
    bits[2, 0] = 0b001
    bits[1, 1] = np.uint64(1) << np.uint64(63)
    counts = reference._bit_column_counts(bits, rows=2)
    assert counts[0] == 2 and counts[2] == 1 and counts[127] == 1 and counts.sum() == 4


def test_tracer_self_time_and_missing_names():
    tr = Tracer()
    tr.wrap("topclose.engine", "no_such_function", "x")
    assert tr.missing == ["topclose.engine.no_such_function"]

    def child():
        return 7

    def parent():
        return tr.span("child", child) + tr.span("child", child)

    assert tr.span("parent", parent) == 14
    assert tr.count("child") == 2
    whole = tr.total("parent")
    assert tr.self_time("parent") == pytest.approx(whole - tr.total("child"))
    assert [s["parent"] for s in tr.to_json()] == [-1, 0, 0]


def test_wrapper_is_removed(monkeypatch):
    import topclose.engine as engine

    original = engine.processing_order
    tr = Tracer()
    tr.wrap("topclose.engine", "processing_order", "processing_order")
    assert engine.processing_order is not original
    tr.unwrap()
    assert engine.processing_order is original


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
