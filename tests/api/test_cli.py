"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_parser,
    check_bench_regression,
    main,
)


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


class TestBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.smoke is False
        assert args.repeats == 3
        assert args.out == "results/engine_bench.json"
        assert args.engine == "all"

    def test_parser_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--engine", "warp"])

    @pytest.mark.parametrize("engine", ["columnar", "both"])
    def test_parser_rejects_removed_engine(self, engine):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--engine", engine])

    def test_bench_rejects_non_positive_repeats(self):
        with pytest.raises(SystemExit):
            main(["bench", "--smoke", "--repeats", "0"])

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

    def test_bench_smoke_writes_report(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["smoke"] is True
        workloads = report["workloads"]
        assert set(workloads) == {"histogram", "spmv_ebe_hw",
                                  "fig11_latency256", "network_ablation"}
        for entry in workloads.values():
            # Every scheduler simulates the identical workload.
            assert set(entry) == {"event", "legacy", "stepping", "speedup",
                                  "collapse_speedup"}
            assert entry["event"]["cycles"] == entry["legacy"]["cycles"]
            assert entry["stepping"]["cycles"] == entry["event"]["cycles"]
            assert entry["event"]["cycles_per_second"] > 0
            assert entry["legacy"]["cycles_per_second"] > 0
            assert entry["speedup"] > 0
            assert entry["collapse_speedup"] > 0
        printed = capsys.readouterr().out
        assert "event/legacy" in printed
        assert "event/stepping" in printed

    def test_bench_single_engine_has_no_speedup_column(self, capsys,
                                                       tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--engine", "event", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["engines"] == ["event"]
        for entry in report["workloads"].values():
            assert set(entry) == {"event"}


def _bench_entry(cycles, wall):
    return {
        "legacy": {"cycles": cycles, "wall_seconds": wall},
        "event": {"cycles": cycles, "wall_seconds": wall},
    }


def _bench_report(workloads):
    from repro.cli import BENCH_SCHEMA

    return {"schema": BENCH_SCHEMA, "engines": ["legacy", "event"],
            "workloads": workloads}


class TestBenchCheck:
    def test_identical_reports_pass(self):
        report = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        assert check_bench_regression(report, report) == []

    def test_small_drift_within_tolerance_passes(self):
        current = _bench_report({"histogram": _bench_entry(1100, 0.6)})
        baseline = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        assert check_bench_regression(current, baseline) == []

    def test_cycle_drift_beyond_tolerance_fails(self):
        current = _bench_report({"histogram": _bench_entry(1300, 0.5)})
        baseline = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        failures = check_bench_regression(current, baseline)
        assert failures and "cycle count" in failures[0]

    def test_cycle_speedup_beyond_tolerance_also_fails(self):
        # A big *drop* in cycle count is a modelling change too.
        current = _bench_report({"histogram": _bench_entry(700, 0.5)})
        baseline = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        assert check_bench_regression(current, baseline)

    def test_wall_time_regression_fails(self):
        current = _bench_report({"histogram": _bench_entry(1000, 1.2)})
        baseline = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        failures = check_bench_regression(current, baseline)
        assert failures and "wall time" in failures[0]

    def test_new_workload_is_skipped_not_failed(self, capsys):
        current = _bench_report({"histogram": _bench_entry(1000, 0.5),
                                 "brand_new": _bench_entry(9, 9.0)})
        baseline = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        assert check_bench_regression(current, baseline) == []
        assert "not in baseline" in capsys.readouterr().out

    def test_stale_baseline_without_schema_fails_loudly(self):
        # A pre-versioning baseline (or one from a different layout) must
        # fail, not silently compare incomparable medians.
        current = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        baseline = {"workloads": {"histogram": _bench_entry(1000, 0.5)}}
        failures = check_bench_regression(current, baseline)
        assert failures and "stale baseline" in failures[0]

    def test_stale_baseline_missing_engine_fails_loudly(self):
        current = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        current["engines"] = ["legacy", "event", "stepping"]
        baseline = _bench_report({"histogram": _bench_entry(1000, 0.5)})
        failures = check_bench_regression(current, baseline)
        assert failures and "stepping" in failures[0]

    def test_fastforward_speedup_floor_enforced(self):
        # The fig11 floor: event (with window collapse) over its own
        # stepping loop.
        current = _bench_report({"fig11": _bench_entry(1000, 0.5)})
        current["workloads"]["fig11"]["collapse_speedup"] = 2.1
        baseline = _bench_report({"fig11": _bench_entry(1000, 0.5)})
        baseline["workloads"]["fig11"]["min_collapse_speedup"] = 3.0
        failures = check_bench_regression(current, baseline)
        assert failures and "below the 3.0x floor" in failures[0]
        assert "event vs stepping" in failures[0]
        current["workloads"]["fig11"]["collapse_speedup"] = 3.4
        assert check_bench_regression(current, baseline) == []

    def test_cli_check_passes_against_fresh_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--out", str(baseline)]) == 0
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--out", str(out), "--check", str(baseline)]) == 0

    def test_cli_check_fails_on_corrupted_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--out", str(baseline)]) == 0
        doctored = json.loads(baseline.read_text())
        for entry in doctored["workloads"].values():
            entry["legacy"]["cycles"] *= 2
            entry["event"]["cycles"] *= 2
        baseline.write_text(json.dumps(doctored))
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--out", str(out), "--check", str(baseline)]) == 1
        assert "FAIL" in capsys.readouterr().out
