"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.updates == 4096
        assert args.method == "hardware"
        assert args.trace_requests == 0

    def test_trace_requests_flag(self):
        args = build_parser().parse_args(
            ["simulate", "--trace-requests", "16"])
        assert args.trace_requests == 16

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--method", "magic"])

    def test_bench_subcommand_is_gone(self):
        # Host timing lives in bench/run.py; the CLI has no timing harness.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_area(self, capsys):
        assert main(["area", "--units", "8", "--entries", "8"]) == 0
        out = capsys.readouterr().out
        assert "1.60%" in out

    @pytest.mark.parametrize("method", ["hardware", "sortscan",
                                        "privatization", "coloring"])
    def test_simulate_all_methods_exact(self, capsys, method):
        code = main(["simulate", "--updates", "256", "--range", "64",
                     "--method", method])
        assert code == 0
        assert "matches numpy reference: True" in capsys.readouterr().out

    def test_run_table1(self, capsys, tmp_path):
        assert main(["run", "table1", "--out-dir", str(tmp_path)]) == 0
        assert "cache_banks" in capsys.readouterr().out
        assert (tmp_path / "table1.txt").exists()

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])

    def test_compare_rejects_unpublished_figures(self):
        with pytest.raises(SystemExit):
            main(["compare", "figure6"])

    def test_compare_figure9_reports_ratios(self, capsys):
        assert main(["compare", "figure9"]) == 0
        out = capsys.readouterr().out
        assert "measured/paper" in out
        assert "CSR" in out
        assert "EBE HW scatter-add" in out

    def test_simulate_prints_latency_breakdown(self, capsys):
        code = main(["simulate", "--updates", "256", "--range", "64",
                     "--trace-requests", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "requests traced" in out
        assert "unattributed 0" in out

    def test_simulate_exports_request_trace(self, capsys, tmp_path):
        trace = tmp_path / "req.trace.json"
        code = main(["simulate", "--updates", "128", "--range", "32",
                     "--trace-requests", "4", "--trace-out", str(trace)])
        assert code == 0
        payload = json.loads(trace.read_text())
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert {"s", "t", "f"} <= phases
