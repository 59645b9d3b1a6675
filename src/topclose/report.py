"""Machine-readable run reports (JSON and TSV) emitted by the CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .engine import RankedVertex, RunStats, TopKResult
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
    arcs_scanned: int = 0  # absent from reports written before it existed
    screened: int = 0  # likewise


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
        stats = StatsInfo(**raw["stats"]) if raw.get("stats") is not None else None
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
        stats_info = StatsInfo(
            m_vis=stats.m_vis,
            m_tot=stats.m_tot,
            improvement_factor=stats.improvement_factor,
            performance_ratio=stats.m_vis / mn if mn else None,
            preprocessing_seconds=stats.preprocessing_seconds,
            total_seconds=stats.total_seconds,
            arcs_scanned=stats.arcs_scanned,
            screened=stats.screened,
        )
    return RunReport(
        input=InputInfo(path=path, n=g.n, m=g.m, directed=g.directed),
        k=result.k,
        workers=workers,
        results=result.entries,
        stats=stats_info,
    )
