"""Command-line surface: run the engine or the oracle on an edge list,
compare them, and generate test graphs.

Exit codes: 0 success, 2 input/usage error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import engine, generators, oracle
from .graph import EdgeListParseError, Graph, load_edge_list, write_edge_list
from .report import build_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="edge-list file")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--directed", action="store_true")
    direction.add_argument("--undirected", action="store_true")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--stats", action="store_true")


def _load(args: argparse.Namespace) -> Graph:
    try:
        with open(args.input) as fh:
            return load_edge_list(fh, directed=args.directed)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except EdgeListParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _emit(report, fmt: str) -> None:
    if fmt == "tsv":
        sys.stdout.write(report.to_tsv())
    else:
        print(report.to_json())


def _multisets_match(a, b) -> bool:
    return Counter(round(c, 12) for c in a) == Counter(round(c, 12) for c in b)


def cmd_topk(args: argparse.Namespace) -> int:
    g = _load(args)
    if args.k < 1:
        print("error: -k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    result, stats = engine.top_k(g, args.k, workers=args.threads)
    report = build_report(args.input, g, result, stats, args.threads, args.stats)
    _emit(report, args.format)
    if args.check:
        expected = oracle.top_k_textbook(g, args.k)
        if not _multisets_match(result.closeness_values(), expected.closeness_values()):
            print("error: engine/oracle closeness multisets differ", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load(args)
    if args.k < 1:
        print("error: -k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    table, m_tot = oracle.exact_closeness_all(g)
    result = table.ranked(g, args.k)
    stats = engine.RunStats(m_vis=m_tot, m_tot=m_tot, arcs_scanned=m_tot)
    report = build_report(args.input, g, result, stats, 1, args.stats)
    _emit(report, args.format)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    g = _load(args)
    if args.k < 1:
        print("error: -k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    result, stats = engine.top_k(g, args.k, workers=args.threads)
    table, m_tot = oracle.exact_closeness_all(g)
    expected = table.ranked(g, args.k)
    stats.m_tot = m_tot
    match = _multisets_match(result.closeness_values(), expected.closeness_values())
    improvement = stats.improvement_factor
    engine_report = build_report(args.input, g, result, stats, args.threads, True)
    oracle_report = build_report(
        args.input, g, expected,
        engine.RunStats(m_vis=m_tot, m_tot=m_tot, arcs_scanned=m_tot), 1, args.stats,
    )
    if args.format == "tsv":
        sys.stdout.write("# engine\n")
        sys.stdout.write(engine_report.to_tsv())
        sys.stdout.write("# oracle\n")
        sys.stdout.write(oracle_report.to_tsv())
        imp = "nan" if improvement is None else f"{improvement:.6g}"
        sys.stdout.write(f"# improvement_factor\t{imp}\n")
        sys.stdout.write(f"# verdict\t{'match' if match else 'mismatch'}\n")
    else:
        import json

        print(
            json.dumps(
                {
                    "engine": json.loads(engine_report.to_json()),
                    "oracle": json.loads(oracle_report.to_json()),
                    "improvement_factor": improvement,
                    "performance_ratio": engine_report.stats.performance_ratio,
                    "verdict": "match" if match else "mismatch",
                },
                indent=2,
            )
        )
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        g = generators.generate(
            args.model,
            nodes=args.nodes,
            prob=args.prob,
            degree=args.degree,
            seed=args.seed,
            directed=args.directed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with open(args.out, "w") as fh:
            write_edge_list(g, fh)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topclose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_topk = sub.add_parser("topk", help="rank the k most central vertices")
    _add_input_flags(p_topk)
    p_topk.add_argument("--check", action="store_true",
                        help="also run the textbook oracle and verify agreement")
    p_topk.set_defaults(func=cmd_topk)

    p_oracle = sub.add_parser("oracle", help="textbook all-BFS ranking")
    _add_input_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_cmp = sub.add_parser("compare", help="run both and report the improvement factor")
    _add_input_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen", help="write a generated edge list")
    p_gen.add_argument("--model", choices=generators.MODELS, required=True)
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--prob", type=float, default=0.0)
    p_gen.add_argument("--degree", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--directed", action="store_true")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
