"""Tests of the benchmark itself, at small sizes: ``python -m pytest bench/``."""

import json
import math
import re

import numpy as np
import pytest

import compare
import run
import suite
from repro.sim.engine import Simulator
from spans import LayerTracer

SPEC = run.benchmark_spec()
WORKLOADS = suite.workloads(small=True)
HEADLINE_ENGINES = [None, "fastforward"]


@pytest.fixture(scope="module")
def reports():
    return {name: run.measure(workload, 3, 0, True, import_s=0.0)
            for name, workload in WORKLOADS.items()}


def test_spec_is_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert isinstance(SPEC["run_seconds"], int)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(reports, workload, trace):
    line = run.contract_line(dict(reports[workload], trace=trace), SPEC)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    json.dumps(line)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("engine", HEADLINE_ENGINES)
def test_traced_run_is_observation_only(workload, engine):
    workload = WORKLOADS[workload]
    inputs = workload.build(5)
    plain = workload.run(inputs, engine)
    original = Simulator.__dict__["run"]
    with LayerTracer() as tracer:
        traced = tracer.call(workload.run, inputs, engine)
    assert Simulator.__dict__["run"] is original
    assert traced.cycles == plain.cycles
    assert traced.stats == plain.stats
    assert run.fingerprint(traced) == run.fingerprint(plain)
    assert np.array_equal(traced.result, plain.result)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("engine", HEADLINE_ENGINES)
def test_self_times_add_up_to_traced_wall(workload, engine):
    workload = WORKLOADS[workload]
    inputs = workload.build(6)
    with LayerTracer() as tracer:
        tracer.call(workload.run, inputs, engine)
    layers = tracer.summary()
    assert "machine.init" in layers
    assert set(layers) <= set(run.LAYER_PREFIX) | {"machine.init",
                                                   "sim.fastforward"}
    assert all(entry["self_s"] >= 0 for entry in layers.values())
    total = sum(entry["self_s"] for entry in layers.values())
    assert total + tracer.untracked_s == pytest.approx(tracer.wall_s,
                                                       rel=0.05)
    trace = tracer.chrome_trace("test")
    assert {event["ph"] for event in trace["traceEvents"]} >= {"X", "C"}


def test_corrupted_result_counts_as_failure():
    workload = WORKLOADS["hist_wide"]
    inputs = workload.build(0)
    gate = run.Gate(workload, workload.reference(inputs), "legacy")
    assert gate.check("legacy", workload.run(inputs, "legacy"))
    corrupted = workload.run(inputs, "event")
    corrupted.result[int(inputs[0])] += 1.0
    assert not gate.check("event", corrupted)
    drifted = workload.run(inputs, "event")
    drifted.cycles += 1
    assert not gate.check("event", drifted)
    assert gate.check("event", workload.run(inputs, "event"))
    assert (gate.attempted, gate.failed) == (4, 2)
    assert gate.failures[0]["reasons"] == [
        "result differs from the numpy reference",
        "result differs from legacy"]
    assert gate.failures[1]["reasons"] == ["cycles %d != legacy %d" % (
        drifted.cycles, drifted.cycles - 1)]


class _CorruptFastForward:
    """A workload whose fastforward runs return a wrong result."""

    def __init__(self, workload):
        self._workload = workload

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def run(self, inputs, engine=None):
        outcome = self._workload.run(inputs, engine)
        if engine == "fastforward":
            outcome.result[0] -= 1.0
        return outcome


def test_measure_counts_failures_without_skipping_them():
    workload = _CorruptFastForward(WORKLOADS["fig11_uniform"])
    report = run.measure(workload, 1, 0, False)
    gate = report["gate"]
    assert gate["failed"] > 0
    assert {failure["engine"] for failure in gate["failures"]} == {
        "fastforward"}
    assert report["end_to_end"]["failed_frac"]["median"] == pytest.approx(
        gate["failed"] / gate["attempted"])
    throughput = report["end_to_end"]["cycles_per_s.fastforward"]
    assert throughput["n"] >= run.MIN_ROUNDS
    assert throughput["value"] == max(throughput["samples"])
    assert run.contract_line(report, SPEC)["correct"] is False


def _report(**metrics):
    return {"workloads": {"w": {"end_to_end": {
        name: run.summarize(samples, "x")
        for name, samples in metrics.items()}}}}


def test_compare_verdicts(tmp_path):
    base = _report(cycles_per_s=[100, 101, 99, 100, 100],
                   sim_cycles=[5000], failed_frac=[0.0])
    same = _report(cycles_per_s=[98, 99, 97, 98, 99],
                   sim_cycles=[5000], failed_frac=[0.0])
    worse = _report(cycles_per_s=[70, 71, 69, 70, 70],
                    sim_cycles=[6000], failed_frac=[0.1])
    noisy = _report(cycles_per_s=[60, 140, 80, 120, 100],
                    sim_cycles=[5000], failed_frac=[0.0])
    verdicts = {name: {row[1]: row[4] for row in compare.compare(
        base, other, SPEC)} for name, other in
        (("same", same), ("worse", worse), ("noisy", noisy))}
    assert set(verdicts["same"].values()) == {"within bound"}
    assert set(verdicts["worse"].values()) == {"worse"}
    assert verdicts["noisy"]["cycles_per_s"] == "unresolved"
    paths = []
    for index, report in enumerate((base, same, worse)):
        path = tmp_path / ("%d.json" % index)
        path.write_text(json.dumps(report))
        paths.append(str(path))
    assert compare.main([paths[0], paths[1]]) == 0
    assert compare.main([paths[0], paths[2]]) == 1
