import json

import pytest

from topclose import oracle
from topclose.cli import main
from topclose.report import RunReport


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
        assert 0 <= report["stats"]["arcs_scanned"] <= report["stats"]["m_vis"]
        assert report["stats"]["screened"] >= 0
        assert len(report["results"]) == 2

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

    def test_bad_k(self, path3, capsys):
        assert main(["topk", "--input", path3, "--undirected", "-k", "0"]) == 2

    @pytest.mark.parametrize("command", ["topk", "oracle", "compare"])
    @pytest.mark.parametrize("flag", [["-k", "0"], ["--threads", "0"], ["--threads", "-2"]])
    def test_counts_below_one_rejected_before_load(self, command, flag, capsys):
        code = main([command, "--input", "/nonexistent/x.txt", "--directed", *flag])
        assert code == 2
        err = capsys.readouterr().err
        assert f"argument {flag[0]}: must be >= 1" in err
        assert "cannot read" not in err

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

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_one_oracle_pass(self, command, cycle3, capsys, monkeypatch):
        calls = []
        real = oracle.exact_closeness_all

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(oracle, "exact_closeness_all", counting)
        assert main([command, "--input", cycle3, "--directed", "-k", "2"]) == 0
        assert len(calls) == 1

    def test_compare_match_verdict(self, cycle3, capsys):
        assert main(["compare", "--input", cycle3, "--directed", "-k", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "match"
        assert report["improvement_factor"] <= 1.0

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


class TestReportRoundTrip:
    def test_json_round_trip(self, path3, capsys):
        main(["topk", "--input", path3, "--undirected", "-k", "3", "--stats"])
        text = capsys.readouterr().out
        report = RunReport.from_json(text)
        assert RunReport.from_json(report.to_json()) == report
        assert report.k == 3
        assert report.stats is not None

    def test_report_without_arcs_scanned_loads(self, path3, capsys):
        main(["topk", "--input", path3, "--undirected", "-k", "3", "--stats"])
        raw = json.loads(capsys.readouterr().out)
        del raw["stats"]["arcs_scanned"]
        report = RunReport.from_json(json.dumps(raw))
        assert report.stats.arcs_scanned == 0
        assert report.stats.m_vis == raw["stats"]["m_vis"]

    def test_report_without_screened_loads(self, path3, capsys):
        main(["topk", "--input", path3, "--undirected", "-k", "3", "--stats"])
        raw = json.loads(capsys.readouterr().out)
        del raw["stats"]["screened"]
        report = RunReport.from_json(json.dumps(raw))
        assert report.stats.screened == 0
        assert report.stats.m_vis == raw["stats"]["m_vis"]
