import json
import math
import time

import pytest

from topclose import oracle
from topclose.cli import _multisets_match, main


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "path3.txt"
    p.write_text("0 1\n1 2\n")
    return str(p)


@pytest.fixture
def cycle3(tmp_path):
    p = tmp_path / "cycle3.txt"
    p.write_text("0 1\n1 2\n2 0\n")
    return str(p)


class TestTopkCommand:
    def test_tsv_path3(self, path3, capsys):
        assert main(["topk", "--input", path3, "--undirected", "-k", "1", "--format", "tsv"]) == 0
        out = capsys.readouterr().out
        assert out == "1\t1\t1\t2\t3\n"

    def test_json_includes_stats(self, path3, capsys):
        code = main(["topk", "--input", path3, "--undirected", "-k", "2", "--stats"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["n"] == 3
        assert report["stats"]["m_vis"] <= report["stats"]["m_tot"]
        assert report["stats"]["performance_ratio"] is not None
        assert report["stats"]["screened"] >= 0
        assert report["stats"]["arcs_gathered"] >= 0
        levels, source_levels = report["stats"]["kernel_levels"], report["stats"]["source_levels"]
        assert 0 < levels <= source_levels <= 64 * levels
        assert 0 <= report["stats"]["dense_levels"] <= levels
        assert report["stats"]["load_seconds"] > 0
        assert len(report["results"]) == 2

    def test_k_above_n_ranks_everyone(self, tmp_path, capsys):
        p = tmp_path / "path5.txt"
        p.write_text("0 1\n1 2\n2 3\n3 4\n")
        args = ["topk", "--input", str(p), "--undirected", "-k", "1000000000000", "--format", "tsv"]
        assert main(args) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_empty_graph(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing\n")
        assert main(["topk", "--input", str(p), "--undirected", "-k", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == []

    def test_check_flag_passes(self, cycle3, capsys):
        assert main(["topk", "--input", cycle3, "--directed", "-k", "2", "--check"]) == 0

    def test_missing_input(self, capsys):
        code = main(["topk", "--input", "/nonexistent/x.txt", "--directed"])
        assert code == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n0 1 2\n")
        code = main(["topk", "--input", str(p), "--directed"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["topk", "oracle", "compare"])
    def test_non_utf8_input(self, command, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"1 2\n\xff\xfe 3\n")
        assert main([command, "--input", str(p), "--undirected"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {p}: ")
        assert captured.err.count("\n") == 1

    def test_bad_k(self, path3, capsys):
        assert main(["topk", "--input", path3, "--undirected", "-k", "0"]) == 2

    @pytest.mark.parametrize("command", ["topk", "oracle", "compare"])
    @pytest.mark.parametrize("flag", [["-k", "0"], ["--threads", "0"], ["--threads", "-2"]])
    def test_counts_below_one_rejected_before_load(self, command, flag, capsys):
        code = main([command, "--input", "/nonexistent/x.txt", "--directed", *flag])
        assert code == 2
        err = capsys.readouterr().err
        if command == "oracle" and flag[0] == "--threads":
            assert "unrecognized arguments: --threads" in err  # see test_oracle_takes_no_threads
        else:
            assert f"argument {flag[0]}: must be >= 1" in err
        assert "cannot read" not in err

    def test_oracle_takes_no_threads(self, path3, capsys):
        # the oracle runs in one process, so a worker count would do nothing
        assert main(["oracle", "--input", path3, "--undirected", "--threads", "2"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads 2" in err

    def test_threads_agree(self, tmp_path, capsys):
        from topclose.generators import gnp
        from topclose.graph import write_edge_list

        p = tmp_path / "g.txt"
        with open(p, "w") as fh:
            write_edge_list(gnp(200, 0.03, 13, directed=False), fh)
        values = {}
        for threads in ("1", "4"):
            main(["topk", "--input", str(p), "--undirected", "-k", "10", "--threads", threads])
            report = json.loads(capsys.readouterr().out)
            values[threads] = sorted(e["closeness"] for e in report["results"])
        assert values["1"] == pytest.approx(values["4"])


class TestOracleAndCompare:
    def test_oracle_matches_topk(self, cycle3, capsys):
        assert main(["oracle", "--input", cycle3, "--directed", "-k", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["closeness"] for e in report["results"]] == pytest.approx([2 / 3] * 3)

    @pytest.mark.parametrize("command", ["oracle", "compare", "topk --check"])
    def test_one_oracle_pass(self, command, cycle3, capsys, monkeypatch):
        calls = []
        real = oracle.exact_closeness_all

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(oracle, "exact_closeness_all", counting)
        assert main([*command.split(), "--input", cycle3, "--directed", "-k", "2"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_oracle_stats_count_its_arcs_and_time(self, command, cycle3, capsys, monkeypatch):
        # three full BFSes over the three arcs of the cycle: m_tot = 9
        real = oracle.exact_closeness_all

        def slow(g):
            time.sleep(0.05)
            return real(g)

        monkeypatch.setattr(oracle, "exact_closeness_all", slow)
        assert main([command, "--input", cycle3, "--directed", "-k", "2", "--stats"]) == 0
        report = json.loads(capsys.readouterr().out)
        stats = report["stats"] if command == "oracle" else report["oracle"]["stats"]
        counts = ("m_vis", "m_tot", "arcs_gathered")
        assert [stats[c] for c in counts] == [9] * 3
        assert stats["total_seconds"] >= 0.05

    def test_compare_match_verdict(self, cycle3, capsys):
        assert main(["compare", "--input", cycle3, "--directed", "-k", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "match"
        assert report["improvement_factor"] <= 1.0

    def test_verdicts_compare_exactly(self):
        # both sides compute each closeness exactly rounded, so one ulp apart
        # is a mismatch, which rounding to 12 digits would hide
        values = [2 / 3, 0.5, 2 / 3]
        assert _multisets_match(values, values[::-1])
        assert not _multisets_match(values, [math.nextafter(2 / 3, 1.0), 0.5, 2 / 3])

    def test_compare_random_digraph(self, tmp_path, capsys):
        from topclose.generators import gnp
        from topclose.graph import write_edge_list

        p = tmp_path / "g.txt"
        with open(p, "w") as fh:
            write_edge_list(gnp(200, 0.05, 8, directed=True), fh)
        assert main(["compare", "--input", str(p), "--directed", "-k", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "match"

    def test_compare_star_prunes_heavily(self, tmp_path, capsys):
        # degree order processes the hub first; every leaf cuts immediately
        from topclose.generators import star_graph
        from topclose.graph import write_edge_list

        p = tmp_path / "star.txt"
        with open(p, "w") as fh:
            write_edge_list(star_graph(10_000), fh)
        assert main(["compare", "--input", str(p), "--undirected", "-k", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["improvement_factor"] < 0.01


class TestGenCommand:
    def test_path_output(self, tmp_path):
        out = tmp_path / "p.txt"
        assert main(["gen", "--model", "path", "--nodes", "3", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["0 1", "1 2"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "--model", "gnp", "--nodes", "100", "--prob", "0.05", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_star_edges(self, tmp_path):
        out = tmp_path / "s.txt"
        assert main(["gen", "--model", "star", "--nodes", "5", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 4
        assert all(l.split()[0] == "0" for l in lines)

    def test_invalid_parameters(self, tmp_path, capsys):
        code = main(["gen", "--model", "gnp", "--nodes", "10", "--prob", "2.0",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2

    def test_negative_nodes(self, tmp_path, capsys):
        code = main(["gen", "--model", "path", "--nodes", "-3", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert capsys.readouterr().err == "error: the vertex count n=-3 is negative\n"


class TestReportRoundTrip:
    def test_report_keys_in_order(self, path3, capsys):
        # the JSON schema: every key the reports carry, in the order they print
        input_keys = ["path", "n", "m", "directed"]
        top = ["input", "k", "workers", "results", "stats"]
        entry = ["rank", "vertex", "label", "closeness", "farness", "reachable"]
        counters = ["m_vis", "screened", "arcs_gathered", "kernel_levels", "source_levels",
                    "dense_levels"]
        stats = ["m_vis", "m_tot", "improvement_factor", "performance_ratio",
                 "preprocessing_seconds", "total_seconds", *counters[1:], "load_seconds",
                 "per_process"]
        # a serial run has one per-process row; the oracle's stats have none
        for command, rows in (("topk", [counters]), ("oracle", [])):
            main([command, "--input", path3, "--undirected", "-k", "3", "--stats"])
            report = json.loads(capsys.readouterr().out)
            assert list(report) == top, command
            assert list(report["input"]) == input_keys, command
            assert list(report["results"][0]) == entry, command
            assert list(report["stats"]) == stats, command
            assert [list(row) for row in report["stats"]["per_process"]] == rows, command
        main(["compare", "--input", path3, "--undirected", "-k", "3"])
        assert list(json.loads(capsys.readouterr().out)) == [
            "engine", "oracle", "improvement_factor", "performance_ratio", "verdict"
        ]

    def test_per_process_rows_sum_to_the_totals(self, tmp_path, capsys):
        p = tmp_path / "path200.txt"
        p.write_text("".join(f"{v} {v + 1}\n" for v in range(199)))
        main(["topk", "--input", str(p), "--undirected", "-k", "3", "--threads", "2", "--stats"])
        stats = json.loads(capsys.readouterr().out)["stats"]
        rows = stats["per_process"]
        assert len(rows) == 2
        for name in ("m_vis", "screened", "arcs_gathered", "kernel_levels", "source_levels",
                     "dense_levels"):
            assert sum(row[name] for row in rows) == stats[name], name
