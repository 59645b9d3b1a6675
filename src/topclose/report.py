"""Machine-readable run reports (JSON and TSV) emitted by the CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .engine import COUNTERS, RankedVertex, RunStats, TopKResult
from .graph import Graph


@dataclass(frozen=True)
class InputInfo:
    path: str
    n: int
    m: int
    directed: bool


@dataclass(frozen=True)
class StatsInfo:
    m_vis: int
    m_tot: int | None
    improvement_factor: float | None
    performance_ratio: float | None
    preprocessing_seconds: float
    total_seconds: float
    screened: int = 0  # absent from reports written before it existed
    arcs_gathered: int = 0  # likewise
    kernel_levels: int = 0  # likewise
    source_levels: int = 0  # likewise
    dense_levels: int = 0  # likewise
    load_seconds: float = 0.0  # likewise
    # RunStats.per_process: per process, the calling one first, its COUNTERS by name
    per_process: tuple[dict[str, int], ...] = ()  # likewise


@dataclass(frozen=True)
class RunReport:
    input: InputInfo
    k: int
    workers: int
    results: tuple[RankedVertex, ...]
    stats: StatsInfo | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        stats = raw.get("stats")
        if stats is not None:
            stats.pop("arcs_scanned", None)  # written by older versions, now dropped
            stats = StatsInfo(**{**stats, "per_process": tuple(stats.get("per_process", ()))})
        return cls(
            input=InputInfo(**raw["input"]),
            k=raw["k"],
            workers=raw["workers"],
            results=tuple(RankedVertex(**e) for e in raw["results"]),
            stats=stats,
        )

    def to_tsv(self) -> str:
        """rank, label, closeness (12 significant digits), farness, reachable."""
        lines = [
            f"{e.rank}\t{e.label}\t{e.closeness:.12g}\t{e.farness}\t{e.reachable}"
            for e in self.results
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def build_report(
    path: str,
    g: Graph,
    result: TopKResult,
    stats: RunStats | None,
    workers: int,
    include_stats: bool,
) -> RunReport:
    stats_info = None
    if include_stats and stats is not None:
        mn = g.m * g.n
        rows = [] if stats.per_process is None else stats.per_process.tolist()
        stats_info = StatsInfo(
            **{name: getattr(stats, name) for name in COUNTERS},
            m_tot=stats.m_tot,
            improvement_factor=stats.improvement_factor,
            performance_ratio=stats.m_vis / mn if mn else None,
            preprocessing_seconds=stats.preprocessing_seconds,
            total_seconds=stats.total_seconds,
            load_seconds=stats.load_seconds,
            per_process=tuple(dict(zip(COUNTERS, row)) for row in rows),
        )
    return RunReport(
        input=InputInfo(path=path, n=g.n, m=g.m, directed=g.directed),
        k=result.k,
        workers=workers,
        results=result.entries,
        stats=stats_info,
    )
