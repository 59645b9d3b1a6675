"""Immutable CSR graph storage and its builder, edge-list I/O, plain BFS, components."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.typing import ArrayLike


class EdgeListParseError(ValueError):
    """Raised on a malformed data line; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Graph:
    """Adjacency in compressed sparse row form over dense vertex ids 0..n-1.

    Undirected graphs store each edge in both directions, so ``m`` counts
    stored arcs (2x the number of edges). Immutable after construction and
    safe to read concurrently.
    """

    n: int
    m: int
    offsets: np.ndarray  # int64, length n+1
    targets: np.ndarray  # int32, length m
    directed: bool
    labels: tuple[str, ...]  # dense id -> original token

    @cached_property
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex, computed once and read-only."""
        degrees = np.diff(self.offsets)
        degrees.flags.writeable = False
        return degrees

    def __post_init__(self):
        if not (
            self.offsets.shape == (self.n + 1,)
            and self.offsets[0] == 0
            and self.offsets[self.n] == self.m
        ):
            raise ValueError("offsets must have length n+1, start at 0 and end at m")

    def edges(self) -> Iterator[tuple[int, int]]:
        """Stored arcs (u, w) in CSR order; for undirected graphs only u < w once."""
        sources = np.repeat(np.arange(self.n), self.degrees)
        targets = self.targets
        if not self.directed:
            keep = sources < targets
            sources, targets = sources[keep], targets[keep]
        return zip(sources.tolist(), targets.tolist())


class Csr(NamedTuple):
    """Bare CSR arrays: row v is ``targets[offsets[v]:offsets[v + 1]]``."""

    offsets: np.ndarray
    targets: np.ndarray


def csr_from_arcs(n: int, src: np.ndarray, tgt: np.ndarray) -> Csr:
    """CSR ``(offsets, targets)``, both int64, of the arcs ``src[i] -> tgt[i]``
    over vertices 0..n-1: self-arcs dropped, each row sorted and deduplicated.
    Sorts ``src*n + tgt`` keys: ``np.unique``'s hash table costs more memory."""
    keys = np.sort((src * n + tgt)[src != tgt])
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=offsets[1:])
    return Csr(offsets, keys % n)


def from_edges(
    n: int,
    edges: ArrayLike,
    directed: bool,
    labels: tuple[str, ...] | None = None,
) -> Graph:
    """Build a Graph from integer endpoint pairs: a sequence of (u, w), an
    (m, 2) array, or a flat sequence u0, w0, u1, w1, ... Self-loops and
    duplicate arcs are dropped, an undirected edge is stored both ways, and
    each vertex's targets come out sorted and deduplicated.

    Raises ValueError naming n < 0 or n > 2**31 (ids are stored as int32),
    or the first pair with an endpoint outside [0, n).
    """
    if n < 0:
        raise ValueError(f"the vertex count n={n} is negative")
    if n > 2**31:
        raise ValueError(f"the vertex count n={n} exceeds 2**31: ids are stored as int32")
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        i = int(bad[0])
        u, w = (int(x) for x in pairs[i])
        raise ValueError(f"edge {i} ({u}, {w}) has an endpoint outside [0, {n})")
    if not directed:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    offsets, targets = csr_from_arcs(n, pairs[:, 0], pairs[:, 1])
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return Graph(
        n=n,
        m=len(targets),
        offsets=offsets,
        targets=targets.astype(np.int32),
        directed=directed,
        labels=labels,
    )


def load_edge_list(source: IO[str] | Iterable[str], directed: bool) -> Graph:
    """Parse a SNAP-style edge list: '#' comments, two tokens per data line.

    Dense ids are assigned in first-appearance order of tokens. Self-loops
    and parallel arcs are removed. An empty stream yields the n=0 graph.

    A text file (anything with ``read``) is read whole, once. When every
    token in it is a canonical decimal int64 ("0", "17", "-3"; not "007",
    "+1", "-0" or past int64), numpy parses it in bulk. Any other text (other
    labels, non-ASCII text, a malformed line) and any other iterable of lines
    go through a per-line loop, which gives the same result and raises
    EdgeListParseError with the 1-based number of the first bad line.

    A file opened with newline="" keeps "\r", "\n" and "\r\n" line ends in
    its text; a line ends at each, as when iterating the file. A stream
    whose ``newlines`` is None (io.StringIO with its default newline="\n")
    is split at "\n" only, and so, unlike its own iteration, is a file
    opened with newline="\r" or "\r\n".
    """
    ends, labels = _parse(source)
    return from_edges(len(labels), ends, directed, labels)


def _parse(source: IO[str] | Iterable[str]) -> tuple[ArrayLike, tuple[str, ...]]:
    """Endpoint ids u0, w0, u1, w1, ... and the labels. The text is freed on
    return, before the CSR build. One leading U+FEFF (a UTF-8 byte order
    mark read without the utf-8-sig codec) is dropped, as that codec does."""
    if not hasattr(source, "read"):
        lines = iter(source)
        return _parse_lines(chain([next(lines, "").removeprefix("\ufeff")], lines))
    text = source.read().removeprefix("\ufeff")
    if getattr(source, "newlines", None) not in (None, "\n"):
        # opened with newline="", read() keeps "\r" and "\r\n" line ends, where
        # iterating the file splits; with the default newline=None it kept none
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text.isascii():
        parsed = _parse_bulk(text)
        if parsed is not None:
            return parsed
    return _parse_lines(_lines(text))


def _lines(text: str) -> Iterator[str]:
    """The items of ``text.split("\n")``, split a block of about 64 kB at a
    time, so that no list of all the lines is alive beside the text."""
    a = 0
    while (z := text.find("\n", a + (1 << 16))) >= 0:
        yield from text[a:z].split("\n")
        a = z + 1
    yield from text[a:].split("\n")


def _parse_lines(lines: Iterable[str]) -> tuple[list[int], tuple[str, ...]]:
    """Endpoint ids u0, w0, u1, w1, ... and the labels, one line at a time."""
    ids: dict[str, int] = {}
    ends: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected 2 tokens, got {len(parts)}: {line!r}")
        ends.append(ids.setdefault(parts[0], len(ids)))
        ends.append(ids.setdefault(parts[1], len(ids)))
    return ends, tuple(ids)  # insertion order


_INT64 = np.iinfo(np.int64)


def _parse_bulk(text: str) -> tuple[np.ndarray, tuple[str, ...]] | None:
    """What ``_parse_lines`` returns for ASCII ``text``, computed by
    whole-array passes, or None unless every token is a canonical decimal
    int64 and every data line holds two tokens."""
    data = text.encode("ascii") + b"\n"  # so that a newline follows every token
    if b"#" in data:
        data = _drop_comments(data)
        if data is None:
            return None
    a = np.frombuffer(data, dtype=np.uint8)
    digit = (a - 48) < 10  # uint8 wraps below '0'
    minus = a == 45
    # only digits, '-' and the whitespace that str.split and numpy both skip: \t\n\v\f\r ' '
    blank = np.count_nonzero((a - 9) < 5) + np.count_nonzero(a == 32)
    if np.count_nonzero(digit) + np.count_nonzero(minus) + blank != len(a):
        return None
    space = a <= 32
    start = ~space  # the first byte of each token
    start[1:] &= space[:-1]
    # starts and newlines in text order: every run of starts has length 2
    newline = a == 10
    runs = b"\1" + newline[start | newline].tobytes()
    if b"\0\0\0" in runs or b"\1\0\1" in runs:
        return None
    # canonical: a '-' opens a token and precedes 1-9; a leading 0 is the whole token
    signed = minus[:-1] & start[:-1] & digit[1:] & (a[1:] != 48)
    if np.count_nonzero(signed) != np.count_nonzero(minus):
        return None
    if (start[:-1] & (a[:-1] == 48) & ~space[1:]).any():
        return None
    count = np.count_nonzero(start)
    del a, digit, minus, space, start, newline, signed  # before numpy allocates the values
    vals = np.fromstring(data, dtype=np.int64, sep=" ")
    del data
    if len(vals) != count:  # numpy reads blank text as one 0
        return None
    if not count:
        return vals, ()
    if vals.min() == _INT64.min or vals.max() == _INT64.max:  # where numpy clamps overflow
        return None
    return _first_appearance_ids(vals)


def _drop_comments(data: bytes) -> bytes | None:
    """``data`` without the text of its comment lines (their newlines stay),
    or None if a '#' follows a token on its line."""
    view, pieces, done, at = memoryview(data), [], 0, data.find(b"#")
    while at >= 0:
        if data[data.rfind(b"\n", 0, at) + 1 : at].strip():
            return None
        pieces.append(view[done:at])
        done = data.find(b"\n", at)
        at = data.find(b"#", done)
    pieces.append(view[done:])
    return b"".join(pieces)


def _first_appearance_ids(vals: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Dense ids of ``vals`` in first-appearance order, and the labels;
    overwrites ``vals``.

    Each value gets a key in a small range: itself less the minimum when the
    value range is at most twice the token count, else its rank among the
    distinct values (by a sort), so memory never grows with a sparse label
    range. A table over the keys then finds each key's first position.
    """
    lo = int(vals.min())
    span = int(vals.max()) - lo + 1
    if span <= 2 * len(vals):
        key, distinct = np.subtract(vals, lo, out=vals), None
    else:
        order = np.argsort(vals)
        ordered = vals[order]
        new = np.ones(len(vals), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        distinct = ordered[new]
        key = vals
        key[order] = np.cumsum(new) - 1
        span = len(distinct)
    first = np.full(span, len(key))
    np.minimum.at(first, key, np.arange(len(key)))
    is_first = np.zeros(len(key), dtype=bool)
    is_first[first[first < len(key)]] = True
    keys = key[is_first]  # in first-appearance order
    first[keys] = np.arange(len(keys))
    labels = keys + lo if distinct is None else distinct[keys]
    return first[key], tuple(map(str, labels.tolist()))


def write_edge_list(g: Graph, sink: IO[str]) -> None:
    """Canonical writer: header with n/m/direction, then one 'u v' per line.
    An undirected edge is written with a label that starts with '#' second,
    as first on its line it reads as a comment; where no order avoids that
    (a directed arc's tail, or both ends) it raises ValueError, unwritten."""
    labels, edges = g.labels, g.edges()
    if lead := {v for v, label in enumerate(labels) if label.startswith("#")}:
        edges = [(w, u) if u in lead and not g.directed else (u, w) for u, w in edges]
        if bad := [labels[u] for u, _ in edges if u in lead]:
            raise ValueError(f"label {bad[0]!r} would start a line, which reads as a comment")
    kind = "directed" if g.directed else "undirected"
    sink.write(f"# topclose edge list: n={g.n} m={g.m} {kind}\n")
    sink.write("".join(f"{labels[u]} {labels[w]}\n" for u, w in edges))


def frontier_neighbors(g: Graph | Csr, frontier: np.ndarray) -> np.ndarray:
    """Out-neighbours of every vertex in ``frontier`` as int64 ids,
    concatenated in frontier order with repeats; its length is the
    frontier's arc count. ``g`` is a Graph or bare CSR arrays."""
    # a BFS root, a one-vertex level or a hub alone in a gather span: a slice is cheaper
    if len(frontier) == 1:
        v = int(frontier[0])
        return g.targets[g.offsets[v] : g.offsets[v + 1]].astype(np.int64)
    starts = g.offsets[frontier]
    counts = g.offsets[frontier + 1] - starts
    total = int(counts.sum())
    idx = np.repeat(starts + counts - np.cumsum(counts), counts) + np.arange(total)
    return g.targets[idx].astype(np.int64)


def pull_rows(g: Graph, a: int, z: int) -> tuple[np.ndarray, np.ndarray]:
    """What neighbor_or reads of the rows [a, z), which depends only on the
    graph: each row's first arc, counted from row a's, and the rows with arcs."""
    return g.offsets[a:z] - g.offsets[a], np.flatnonzero(g.degrees[a:z])


def neighbor_or(
    g: Graph, words: np.ndarray, a: int, z: int, starts: np.ndarray, has: np.ndarray
) -> np.ndarray:
    """For each vertex v in [a, z): the OR of ``words[w]`` over its
    out-neighbours w, 0 where v has none. Reads the arcs of those rows once,
    in CSR order: g.offsets[z] - g.offsets[a] of them. ``starts`` and
    ``has`` are ``pull_rows(g, a, z)``, kept by a caller that pulls the
    same rows again."""
    lo, hi = int(g.offsets[a]), int(g.offsets[z])
    # reduceat gives an empty segment the element at its start, and rejects
    # a start of hi - lo: only rows with arcs go in
    read = words.take(g.targets[lo:hi])  # take: faster than [] with int32 ids
    if has.size == z - a:
        return np.bitwise_or.reduceat(read, starts)
    pulled = np.zeros(z - a, words.dtype)
    if has.size:
        pulled[has] = np.bitwise_or.reduceat(read, starts[has])
    return pulled


def distinct(ids: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The distinct vertex ids in ``ids``, in no particular order.

    Scatter dedup: every position writes itself into ``slot[id]``, exactly
    one write per id survives, and that position is kept. ``slot`` is
    reusable int64 scratch of length n; its contents never matter.
    """
    pos = np.arange(len(ids))
    slot[ids] = pos
    return ids[slot[ids] == pos]


def bfs(g: Graph | Csr, source: int) -> tuple[np.ndarray, int, int]:
    """Plain BFS from ``source`` over a Graph or bare CSR arrays.

    Returns (distance array with -1 for unreached, visited count r(source),
    traversed-arc count = sum of out-degree over visited vertices).
    """
    n = len(g.offsets) - 1
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range for n={n}")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    slot = np.empty(n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    visited = 1
    arcs = 0
    d = 0
    while frontier.size:
        neigh = frontier_neighbors(g, frontier)
        arcs += len(neigh)
        new = distinct(neigh[dist[neigh] < 0], slot)
        d += 1
        dist[new] = d
        visited += len(new)
        frontier = new
    return dist, visited, arcs


@dataclass(frozen=True)
class ComponentMap:
    """Connected-component labelling of an undirected graph."""

    component_id: np.ndarray  # per vertex
    component_size: np.ndarray  # per component


def connected_components(g: Graph) -> ComponentMap:
    """Label connected components of an undirected graph by hook-and-jump
    (Shiloach & Vishkin 1982): each round every root hooks under the smallest
    root it shares an edge with and pointer jumping flattens the trees, until
    no edge joins two roots. A parent is never larger than its child, so
    components are numbered by their smallest member."""
    if g.directed:
        raise ValueError("connected_components requires an undirected graph")
    label = np.arange(g.n)
    # arcs between roots; int64 both, as ufunc.at is slow when it must cast
    a, b = np.repeat(label, g.degrees), g.targets.astype(np.int64)
    while a.size:
        np.minimum.at(label, a, b)
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]
        a, b = label[a], label[b]
        cross = a != b
        a, b = a[cross], b[cross]
    _, component_id, component_size = np.unique(label, return_inverse=True, return_counts=True)
    return ComponentMap(component_id=component_id, component_size=component_size)
