"""Machine-readable run reports (JSON and TSV) emitted by the CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .engine import COUNTERS, RankedVertex, RunStats, TopKResult
from .graph import Graph


@dataclass(frozen=True)
class RunReport:
    input: dict  # path, n, m, directed
    k: int
    workers: int
    results: tuple[RankedVertex, ...]
    stats: dict | None  # built from RunStats by build_report, None unless asked for

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

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
    """The one place that turns a run's RunStats into the report's stats."""
    report_stats = None
    if include_stats and stats is not None:
        mn = g.m * g.n
        rows = [] if stats.per_process is None else stats.per_process.tolist()
        report_stats = {
            "m_vis": stats.m_vis,
            "m_tot": stats.m_tot,
            "improvement_factor": stats.improvement_factor,
            "performance_ratio": stats.m_vis / mn if mn else None,
            "preprocessing_seconds": stats.preprocessing_seconds,
            "total_seconds": stats.total_seconds,
            **{name: getattr(stats, name) for name in COUNTERS[1:]},  # after m_vis
            "load_seconds": stats.load_seconds,
            # per process, the calling one first, its COUNTERS by name
            "per_process": [dict(zip(COUNTERS, row)) for row in rows],
        }
    return RunReport(
        input={"path": path, "n": g.n, "m": g.m, "directed": g.directed},
        k=result.k,
        workers=workers,
        results=result.entries,
        stats=report_stats,
    )
