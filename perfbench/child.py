"""One measured run in a fresh process: load the edge list, then top_k.

Untraced, it times ``load_edge_list`` (set-up) and ``top_k`` once each.
Traced, it loads and ranks once with span wrappers installed and derives the
per-layer metrics. Either way it prints one JSON object on stdout; run.py
checks the answer against the reference.

    python3 perfbench/child.py --file F --directed 0 --k 10 --workers 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import topclose  # noqa: E402

from spans import Tracer  # noqa: E402

# (module, attribute the caller looks up, span name)
WRAPPED = (
    ("topclose.graph", "from_edges", "from_edges"),
    ("topclose.engine", "reachability_for", "reachability_for"),
    ("topclose.engine", "processing_order", "processing_order"),
    ("topclose.engine", "exact_m_tot", "exact_m_tot"),
    ("topclose.engine", "connected_components", "connected_components"),
    ("topclose.scc", "connected_components", "connected_components"),
    ("topclose.scc", "compute_scc_dag", "compute_scc_dag"),
    ("topclose.scc", "compute_alpha_omega", "compute_alpha_omega"),
)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its joined children.

    This process's own peak is read from VmHWM, because Linux carries
    ``ru_maxrss`` across exec and it would include the parent's peak.
    """
    with open("/proc/self/status") as fh:
        own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, kids_kb) / 1024.0


def load(path: Path, directed: bool):
    with open(path) as fh:
        return topclose.load_edge_list(fh, directed)


def answer(result, stats) -> dict:
    return {
        "closeness": sorted((float(c) for c in result.closeness_values()), reverse=True),
        "m_vis": int(stats.m_vis),
    }


def untraced(args) -> dict:
    t0 = time.perf_counter()
    g = load(args.file, args.directed)
    setup_s = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    result, stats = topclose.top_k(g, args.k, args.workers)
    topk_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "topk_s": topk_s, "peak_rss_mb": peak_rss_mb(),
            **answer(result, stats)}


def _ratio(a, b):
    return None if a is None or b is None or b == 0 else a / b


def layer_metrics(tr: Tracer, g, stats, args, report_json: str | None) -> dict:
    """Per-layer metrics; None where the layer does not run on this input or
    a wrapped name is missing."""
    n = g.n
    m: dict[str, float | None] = {}

    load_s, from_edges_s = tr.total("load_edge_list"), tr.total("from_edges")
    parse_s = None if from_edges_s is None else load_s - from_edges_s
    with open(args.file) as fh:
        lines = sum(1 for line in fh if line.strip() and not line.startswith("#"))
    m["graph.parse_s"] = parse_s
    m["graph.from_edges_s"] = from_edges_s
    m["graph.lines_per_s"] = _ratio(lines, parse_s)
    m["graph.input_bytes"] = float(args.file.stat().st_size)
    undirected = not args.directed
    cc_calls = tr.count("connected_components")
    m["graph.connected_components_s"] = tr.total("connected_components") if undirected else None
    m["graph.connected_components_calls"] = float(cc_calls) if undirected and cc_calls else None

    bounds = tr.results.get("reachability_for")
    skip = None
    if bounds is not None:
        skip = (bounds.exact & (bounds.r <= 1)) | (bounds.alpha <= 1) | (n <= 1)
    dag = tr.results.get("compute_scc_dag")
    if args.directed:
        m["scc.reachability_for_s"] = tr.total("reachability_for")
        m["scc.compute_scc_dag_s"] = tr.total("compute_scc_dag")
        m["scc.compute_alpha_omega_s"] = tr.total("compute_alpha_omega")
        m["scc.scc_count"] = None if dag is None else float(dag.scc_count)
        m["scc.largest_scc_frac"] = None if dag is None else float(dag.weight.max()) / n
        m["scc.exact_frac"] = None if bounds is None else float(np.mean(bounds.exact))
        m["scc.skipped_frac"] = None if skip is None else float(np.mean(skip))
    else:
        for name in ("reachability_for_s", "compute_scc_dag_s", "compute_alpha_omega_s",
                     "scc_count", "largest_scc_frac", "exact_frac", "skipped_frac"):
            m["scc." + name] = None

    visit_s = tr.self_time("top_k")
    cut_level = getattr(stats, "cut_level", None)
    cut = None if cut_level is None else cut_level[cut_level >= 0]
    visits = None if skip is None else n - int(skip.sum())
    m["engine.visit_s"] = visit_s
    m["engine.processing_order_s"] = tr.total("processing_order")
    m["engine.exact_m_tot_s"] = tr.total("exact_m_tot")
    m["engine.visits"] = None if visits is None else float(visits)
    m["engine.cut_frac"] = None if cut is None else _ratio(len(cut), visits)
    m["engine.mean_cut_level"] = None if cut is None or not len(cut) else float(cut.mean())
    m["engine.max_cut_level"] = None if cut is None or not len(cut) else float(cut.max())
    m["engine.m_vis"] = float(stats.m_vis)
    m["engine.arcs_per_s"] = _ratio(stats.m_vis, visit_s)
    m["engine.us_per_visit"] = None if visits is None else _ratio(visit_s * 1e6, visits)
    m["engine.final_threshold"] = getattr(stats, "final_threshold", None)

    m["report.build_report_s"] = tr.total("build_report")
    m["report.to_json_s"] = tr.total("to_json")
    m["report.json_bytes"] = None if report_json is None else float(len(report_json))
    m["trace.topk_s"] = tr.total("top_k")
    return m


def traced(args) -> dict:
    tr = Tracer()
    for module, attr, name in WRAPPED:
        tr.wrap(module, attr, name)
    try:
        g = tr.span("load_edge_list", load, args.file, args.directed)
        result, stats = tr.span("top_k", topclose.top_k, g, args.k, args.workers)
        report_json = None
        try:
            from topclose.report import build_report

            report = tr.span("build_report", build_report, str(args.file), g, result, stats,
                             args.workers, True)
            report_json = tr.span("to_json", report.to_json)
        except (ImportError, AttributeError, TypeError) as exc:
            tr.missing.append(f"topclose.report ({exc})")
    finally:
        tr.unwrap()
    return {
        "peak_rss_mb": peak_rss_mb(),
        "layers": layer_metrics(tr, g, stats, args, report_json),
        "missing": tr.missing,
        "spans": tr.to_json(),
        **answer(result, stats),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--file", type=Path, required=True)
    ap.add_argument("--directed", type=int, choices=(0, 1), required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.directed = bool(args.directed)
    src = (ROOT / "src").resolve()
    if Path(topclose.__file__).resolve().parent.parent != src:
        print(f"topclose imported from {topclose.__file__}, not {src}", file=sys.stderr)
        return 2
    out = traced(args) if args.trace else untraced(args)
    out["pid"] = os.getpid()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
