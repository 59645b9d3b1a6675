"""Seeded top-k closeness benchmark.

    python3 perfbench/run.py --workload pa-hub --seed 1 --seconds 25 --trace 0

Writes the workload's edge list for the seed (cached), builds or reuses the
independent reference for that file, then starts fresh processes (child.py)
that each load the file and run ``top_k`` until ``--seconds`` of measuring
have passed. Every answer is checked against the reference. ``--trace 1``
measures untraced for half the time, then adds one traced process and
reports the per-layer metrics instead of the end-to-end ones.
Human-readable lines come first; the last line of stdout is the JSON result.
A full record (environment, samples, spans) goes to perfbench/results/.
Exit code 1 if any run failed or disagreed with the reference, 2 if the
program under test is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from calibrate import NOMINAL_S, kernel_s  # noqa: E402
from reference import cached_reference  # noqa: E402
from workloads import K, WORKLOADS, Workload, edge_list_file  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "topk_s": "s",
    "peak_rss_mb": "MB",
    "improvement_factor": "ratio",
}
PER_LAYER = {
    "graph.parse_s": "s",
    "graph.from_edges_s": "s",
    "graph.lines_per_s": "1/s",
    "graph.input_bytes": "B",
    "graph.connected_components_s": "s",
    "graph.connected_components_calls": "count",
    "scc.reachability_for_s": "s",
    "scc.compute_scc_dag_s": "s",
    "scc.compute_alpha_omega_s": "s",
    "scc.scc_count": "count",
    "scc.largest_scc_frac": "fraction",
    "scc.exact_frac": "fraction",
    "scc.skipped_frac": "fraction",
    "engine.visit_s": "s",
    "engine.processing_order_s": "s",
    "engine.exact_m_tot_s": "s",
    "engine.visits": "count",
    "engine.cut_frac": "fraction",
    "engine.mean_cut_level": "level",
    "engine.max_cut_level": "level",
    "engine.m_vis": "arcs",
    "engine.arcs_per_s": "arcs/s",
    "engine.us_per_visit": "us",
    "engine.final_threshold": "closeness",
    "report.build_report_s": "s",
    "report.to_json_s": "s",
    "report.json_bytes": "B",
    "oracle.reference_s": "s",
    "trace.topk_s": "s",
    "trace.overhead_s": "s",
}

RUN_DEADLINE_S = 170.0  # a run must end within 180 s


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_child(path: Path, w: Workload, workers: int, trace: bool, timeout: float
              ) -> tuple[dict | None, str]:
    """Run child.py once; returns (parsed output, error text)."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--file", str(path),
        "--directed", str(int(w.directed)), "--k", str(K), "--workers", str(workers),
        "--trace", str(int(trace)),
    ]
    # fixed string hashing, so the loader's dict layout is the same every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (json.JSONDecodeError, IndexError):
        return None, f"unreadable output: {proc.stdout[-500:]!r}"


def checked_child(path: Path, w: Workload, workers: int, trace: bool, ref: dict,
                  deadline: float) -> tuple[dict | None, str]:
    """run_child, and an error when the top-k closeness multiset differs
    from the reference's."""
    out, err = run_child(path, w, workers, trace, deadline - time.perf_counter())
    if not err and out["closeness"] != ref["topk_closeness"]:
        err = f"top-k closeness {out['closeness']} != reference {ref['topk_closeness']}"
    return (None, err) if err else (out, "")


def measure(path: Path, w: Workload, workers: int, ref: dict, seconds: float,
            deadline: float) -> tuple[list[dict], list[str]]:
    """Fresh untraced processes until ``seconds`` have been measured."""
    samples, errors = [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        out, err = checked_child(path, w, workers, False, ref, deadline)
        if err:
            errors.append(err)
        else:
            out["calibration_s"] = kernel_s()
            samples.append(out)
        now = time.perf_counter()
        if now - t0 >= seconds or now + (now - start) > deadline:
            return samples, errors


def scaled(sample: dict, key: str) -> float:
    """A wall time of one process at nominal machine speed. The speed of a
    shared virtual machine can shift by a third or more for minutes at a
    time; the calibration job timed right after the process shifts with it."""
    return sample[key] * NOMINAL_S / sample["calibration_s"]


def end_to_end(samples: list[dict], ref: dict) -> dict:
    """Medians over the run's processes; m_tot comes from the reference."""
    return {
        "setup_s": statistics.median(scaled(x, "setup_s") for x in samples),
        "topk_s": statistics.median(scaled(x, "topk_s") for x in samples),
        "peak_rss_mb": statistics.median(x["peak_rss_mb"] for x in samples),
        "improvement_factor": statistics.median(x["m_vis"] for x in samples) / ref["m_tot"],
    }


def spread_line(name: str, values: list[float]) -> str:
    values = sorted(values)
    return (f"  {name} over {len(values)} processes: min {values[0]:.4g} "
            f"median {statistics.median(values):.4g} max {values[-1]:.4g}")


def layer_status(name: str, directed: bool) -> str:
    """Why a per-layer metric has no value: its layer does not run on this
    kind of graph, or a wrapped name has gone."""
    if name.startswith("scc.") and not directed:
        return "absent"
    if name.startswith("graph.connected_components") and directed:
        return "absent"
    return "missing"


def per_layer(traced: dict, samples: list[dict], ref: dict) -> dict:
    layers = dict(traced["layers"])
    layers["oracle.reference_s"] = ref["reference_s"]
    if samples:
        untraced_topk = statistics.median(x["topk_s"] for x in samples)
        layers["trace.overhead_s"] = layers["trace.topk_s"] - untraced_topk
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description="Seeded top-k closeness benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "topclose" / "__init__.py").is_file():
        print(f"program under test not found: {ROOT / 'src' / 'topclose'}", file=sys.stderr)
        return 2
    begin = time.perf_counter()
    deadline = begin + RUN_DEADLINE_S
    w = WORKLOADS[args.workload]
    env = environment()
    workers = min(w.workers, env["nproc"])

    path, sha = edge_list_file(w, args.seed, CACHE)
    ref = cached_reference(path, sha, w.directed, K)
    measure_s = args.seconds / 2 if args.trace else args.seconds
    samples, errors = measure(path, w, workers, ref, measure_s, deadline)
    traced = None
    if args.trace:
        traced, err = checked_child(path, w, workers, True, ref, deadline)
        if err:
            errors.append(err)
    attempted = len(samples) + len(errors) + (traced is not None)

    print(f"workload {w.name} seed {args.seed} workers {workers} k {K} "
          f"file {path.name} sha256 {sha}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for err in errors:
        print(f"FAILED: {err}")
    print(f"error_rate {len(errors) / attempted:.4f} fraction ({len(errors)} of {attempted} runs)")

    metrics: dict[str, dict] = {}
    status: dict[str, str] = {}
    if samples and not args.trace:
        for name, value in end_to_end(samples, ref).items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
        print(f"end-to-end, medians of {len(samples)} fresh processes; setup_s and "
              f"topk_s are scaled to nominal speed ({NOMINAL_S} s calibration job):")
        for key in ("setup_s", "topk_s", "calibration_s", "peak_rss_mb"):
            print(spread_line(f"wall {key}" if key.endswith("_s") else key,
                              [x[key] for x in samples]))
    if traced is not None:
        layers = per_layer(traced, samples, ref)
        for name, unit in PER_LAYER.items():
            value = layers.get(name)
            if value is None:
                status[name] = layer_status(name, w.directed)
            metrics[name] = {"value": 0.0 if value is None else float(value), "unit": unit}
        print(f"per-layer from one traced process (trace.overhead_s against the "
              f"untraced median of {len(samples)}):")
        for missing in traced["missing"]:
            print(f"wrapped name missing: {missing}")
    for name, m in metrics.items():
        note = f"  [{status[name]}]" if name in status else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "k": K, "workers": workers, "file": path.name, "sha256": sha, "environment": env,
        "reference": {k: ref[k] for k in ("n", "m_tot", "topk_closeness", "reference_s")},
        "attempted": attempted, "failed": len(errors), "errors": errors,
        "samples": samples, "traced": traced, "metrics": metrics, "status": status,
        "wall_s": time.perf_counter() - begin,
    }
    (RESULTS / f"{w.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record))

    result = {"correct": not errors and bool(metrics), "attempted": attempted,
              "failed": len(errors), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
