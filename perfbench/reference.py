"""Independent correctness reference: exact closeness of every vertex and
m_tot, computed from the edge pairs by a bit-parallel BFS over a
``scipy.sparse`` CSR matrix. It uses no code from ``topclose``.

One pass runs 64 * WORDS BFSes at once on the reversed graph: bit s of
``visited[u]`` is set once u is found from source s, that is once u reaches
s in the original graph. Row popcounts then give every vertex's reachable
count and farness without a per-source loop. (``scipy.sparse.csgraph``'s
``shortest_path`` gives the same table, about 20 times slower on the
preferential-attachment workload; the tests compare the two.)

Closeness follows the engine's definition, c(v) = (r-1)^2 / ((n-1) f(v)),
with 0 when r(v) <= 1, evaluated with Python integers so the floats match
bit for bit.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix

WORDS = 32  # sources per pass = 64 * WORDS


def parse_edge_list(path: Path) -> tuple[int, np.ndarray]:
    """(n, int64 pairs) with dense ids in first-appearance order."""
    tokens: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                tokens.extend(line.split())
    if not tokens:
        return 0, np.empty((0, 2), dtype=np.int64)
    uniq, first, inverse = np.unique(np.asarray(tokens), return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    return len(uniq), rank[inverse].reshape(-1, 2)


def adjacency(n: int, pairs: np.ndarray, directed: bool):
    """CSR adjacency without self-loops or duplicate arcs."""
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not directed:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    ones = np.ones(len(pairs), dtype=np.int8)
    a = coo_matrix((ones, (pairs[:, 0], pairs[:, 1])), shape=(n, n)).tocsr()
    a.sum_duplicates()
    a.data[:] = 1
    return a


def closeness_table(n: int, pairs: np.ndarray, directed: bool):
    """Per-vertex (reachable, farness) as int64 arrays, and m_tot: the arcs
    that one full BFS from every vertex traverses."""
    fwd = adjacency(n, pairs, directed)
    outdeg = np.diff(fwd.indptr).astype(np.int64)
    rev = fwd.T.tocsr()
    reach = np.zeros(n, dtype=np.int64)
    far = np.zeros(n, dtype=np.int64)
    m_tot = 0
    for lo in range(0, n, 64 * WORDS):
        src = np.arange(lo, min(n, lo + 64 * WORDS))
        bit = src - lo
        # the frontier is kept sparse: its rows and their bit words
        rows = src
        bits = np.zeros((len(src), WORDS), dtype=np.uint64)
        bits[bit, bit // 64] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
        visited = np.zeros((n, WORDS), dtype=np.uint64)
        visited[rows] = bits
        d = 0
        while rows.size:
            starts = rev.indptr[rows]
            counts = rev.indptr[rows + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            arc = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(total)
            tail = np.repeat(np.arange(len(rows)), counts)
            head = rev.indices[arc]
            order = np.argsort(head, kind="stable")
            head, tail = head[order], tail[order]
            first = np.flatnonzero(np.r_[True, head[1:] != head[:-1]])
            found = np.bitwise_or.reduceat(bits[tail], first, axis=0)
            head = head[first]
            new = found & ~visited[head]
            keep = new.any(axis=1)
            rows, bits = head[keep], new[keep]
            visited[rows] |= bits
            d += 1
            far[rows] += d * np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
        reach += np.bitwise_count(visited).sum(axis=1, dtype=np.int64)
        # every vertex that reaches s scans s's arcs once
        m_tot += int(_bit_column_counts(visited)[: len(src)] @ outdeg[src])
    return reach, far, m_tot


def _bit_column_counts(bits: np.ndarray, rows: int = 8192) -> np.ndarray:
    """Number of rows with bit j set, for every bit j of a uint64 matrix."""
    total = np.zeros(bits.shape[1] * 64, dtype=np.int64)
    for lo in range(0, len(bits), rows):
        block = bits[lo : lo + rows].view(np.uint8)
        total += np.unpackbits(block, axis=1, bitorder="little").sum(axis=0, dtype=np.int64)
    return total


def closeness(r: int, f: int, n: int) -> float:
    return 0.0 if r <= 1 or n <= 1 else (r - 1) ** 2 / ((n - 1) * f)


def reference(path: Path, directed: bool, k: int) -> dict:
    """Top-k closeness multiset (descending) and m_tot for the file."""
    t0 = time.perf_counter()
    n, pairs = parse_edge_list(path)
    reach, far, m_tot = closeness_table(n, pairs, directed)
    values = sorted((closeness(int(r), int(f), n) for r, f in zip(reach, far)), reverse=True)
    return {
        "n": n,
        "k": k,
        "topk_closeness": values[:k],
        "m_tot": m_tot,
        "reference_s": time.perf_counter() - t0,
    }


def cached_reference(path: Path, sha256: str, directed: bool, k: int) -> dict:
    """Reference for one edge-list file, built on first use and stored beside
    it. A stored reference whose file digest differs is rebuilt."""
    store = path.with_name(f"{path.stem}.ref-k{k}.json")
    if store.exists():
        ref = json.loads(store.read_text())
        if ref.get("sha256") == sha256:
            return ref
    ref = reference(path, directed, k)
    ref["sha256"] = sha256
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref))
    tmp.replace(store)
    return ref
