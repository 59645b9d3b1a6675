"""Benchmark-owned input generators and the workload table.

Every workload is a seeded SNAP-style edge-list file written by this module
alone, so a change to ``topclose.generators`` or ``write_edge_list`` cannot
change what the benchmark measures. Each random graph is drawn once from a
fixed structure seed; ``--seed`` picks a relabelling of it (vertex labels
and line order), so runs with different seeds do the same work up to the
engine's tie-breaks. Files are cached by (graph, seed) and their SHA-256 is
recorded beside them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # generator key; workloads that share it share the file
    directed: bool
    workers: int  # asked for; capped at the cores this process may use
    why: str


K = 10

PA_N, PA_D = 10_000, 4
GRID_SIDE = 45
DIGRAPH_IDS, DIGRAPH_ARCS = 20_000, 20_000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pa-hub", "pa", False, 1,
            "preferential attachment: hubs prune hard, wide frontiers; the visit "
            "kernel's gather and dedup dominate",
        ),
        Workload(
            "grid-deep", "grid", False, 1,
            "high-diameter grid: weak pruning, many tiny BFS levels; per-level "
            "overhead and the cut test dominate",
        ),
        Workload(
            "digraph-sparse", "digraph", True, 1,
            "sparse random digraph: almost all SCCs are singletons; Tarjan, the "
            "alpha/omega DP and per-visit cost dominate",
        ),
        Workload(
            "pa-hub-2w", "pa", False, 2,
            "the pa-hub graph with two forked workers: the only run of the "
            "parallel scheduler",
        ),
    )
}


STRUCTURE_SEED = 1  # fixes the random graphs; --seed only relabels them


def pa_pairs(n: int, d: int, seed: int) -> np.ndarray:
    """Preferential attachment by the repeated-endpoints urn: a d-clique,
    then each new vertex attaches to d distinct urn draws."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(d) for j in range(i + 1, d)]
    urn = list(range(d))
    for v in range(d, n):
        targets: set[int] = set()
        while len(targets) < d:
            targets.add(urn[int(rng.integers(len(urn)))])
        for t in targets:
            edges.append((v, t))
            urn.append(t)
        urn.extend([v] * d)
    return np.asarray(edges, dtype=np.int64)


def grid_pairs(side: int) -> np.ndarray:
    ids = np.arange(side * side).reshape(side, side)
    return np.concatenate([
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1),
    ])


def digraph_pairs(ids: int, arcs: int, seed: int) -> np.ndarray:
    """``arcs`` arcs with both endpoints uniform over ``ids`` labels; only the
    labels that appear become vertices."""
    return np.random.default_rng(seed).integers(ids, size=(arcs, 2))


def base_pairs(graph: str) -> np.ndarray:
    """The workload's graph before relabelling, as int64 endpoint pairs."""
    if graph == "pa":
        return pa_pairs(PA_N, PA_D, STRUCTURE_SEED)
    if graph == "grid":
        return grid_pairs(GRID_SIDE)
    if graph == "digraph":
        return digraph_pairs(DIGRAPH_IDS, DIGRAPH_ARCS, STRUCTURE_SEED)
    raise ValueError(f"unknown graph {graph!r}")


def structure_key(graph: str) -> str:
    """Names the graph's parameters; changes when a size changes."""
    if graph == "pa":
        return f"pa-n{PA_N}-d{PA_D}-s{STRUCTURE_SEED}"
    if graph == "grid":
        return f"grid-{GRID_SIDE}x{GRID_SIDE}"
    if graph == "digraph":
        return f"digraph-i{DIGRAPH_IDS}-a{DIGRAPH_ARCS}-s{STRUCTURE_SEED}"
    raise ValueError(f"unknown graph {graph!r}")


def relabel(pairs: np.ndarray, seed: int) -> np.ndarray:
    """An isomorphic copy: labels and line order permuted by the seed. The
    closeness multiset and m_tot do not change; the engine's degree-order
    tie-breaks, its hash and its file layout do."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(int(pairs.max()) + 1)
    return label[pairs][rng.permutation(len(pairs))]


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def edge_list_file(w: Workload, seed: int, cache: Path) -> tuple[Path, str]:
    """Write (or reuse) the workload's edge list for ``seed``; returns
    (path, sha256)."""
    cache.mkdir(parents=True, exist_ok=True)
    stem = f"{structure_key(w.graph)}-s{seed}"
    path = cache / f"{stem}.txt"
    meta = cache / f"{stem}.sha256.json"
    if path.exists() and meta.exists():
        digest = json.loads(meta.read_text())["sha256"]
        if sha256_of(path) == digest:
            return path, digest
    pairs = relabel(base_pairs(w.graph), seed)
    kind = "directed" if w.directed else "undirected"
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write(f"# perfbench {w.graph} structure={STRUCTURE_SEED} seed={seed} {kind}\n")
        fh.write("".join(f"{u} {v}\n" for u, v in pairs.tolist()))
    tmp.replace(path)
    digest = sha256_of(path)
    meta.write_text(json.dumps({"sha256": digest, "lines": len(pairs)}))
    return path, digest
