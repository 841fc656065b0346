"""Outside-in benchmark of the scatter-add simulator.

Full run, every workload in its own fresh process, one after another::

    python bench/run.py [--seed N] [--seconds S] [--out DIR]

It prints every metric by name with its unit, checks every run's output,
writes ``DIR/report.json`` and one host-time Chrome trace per workload and
engine (``DIR/<workload>.<engine>.trace.json``).  One workload::

    python bench/run.py --workload NAME [--seed N] [--seconds S] --trace 0|1

measures the end-to-end metrics (``--trace 0``) or, with ``--trace 1``,
also every other engine and one traced pass per headline engine for the
per-layer metrics.  Its last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Set-ups per process; setup_s is their median.
SETUP_REPEATS = 5
#: Timed rounds of the headline engines at least, however long they take.
MIN_ROUNDS = 3
#: Timed runs of each engine reported only as a per-layer number.
OTHER_ENGINE_RUNS = 3

#: Per-layer metric prefix of each traced layer (see spans.layer_of).
LAYER_PREFIX = {
    "sim.engine": "engine",
    "core.unit": "sau",
    "cache.bank": "bank",
    "memory.dram": "dram",
    "node.agu": "agu",
    "node.router": "router",
    "network.fabric": "switch",
    "multinode.interface": "nif",
}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def summarize(samples, unit, best=False):
    """Median, min, max, quartiles and spread of one metric's samples.

    ``value`` is the number the metric reports: the median, or with
    `best` the fastest run.  Other tenants of a shared machine only ever
    slow a run down, sometimes by half or more, so the fastest of a
    run's samples varies far less between processes than their median.
    """
    samples = [float(value) for value in samples]
    median = statistics.median(samples)
    if len(samples) > 1:
        q1, __, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {
        "unit": unit, "value": max(samples) if best else median,
        "statistic": "best" if best else "median", "median": median,
        "min": min(samples), "max": max(samples), "q1": q1, "q3": q3,
        "n": len(samples), "spread": (q3 - q1) / median if median else 0.0,
        "samples": samples,
    }


# ---------------------------------------------------------------------- #
# correctness gate
# ---------------------------------------------------------------------- #
def fingerprint(outcome):
    """What every engine must reproduce exactly: cycles, stats, result.

    ``engine.*`` and ``sim.columnar.*`` counters describe the scheduler's
    own work and legitimately differ between engines.
    """
    stats = sorted((name, value) for name, value in outcome.stats.items()
                   if not name.startswith(("engine.", "sim.columnar.")))
    return (outcome.cycles,
            hashlib.sha256(repr(stats).encode()).hexdigest(),
            hashlib.sha256(outcome.result.tobytes()).hexdigest())


class Gate:
    """Counts every run and fails it on a wrong result or a drift.

    A run fails when its result differs from the numpy reference, or
    when its cycles, stats or result differ from the reference engine's
    run in the same process.
    """

    def __init__(self, workload, expected, reference_engine):
        self.workload = workload
        self.expected = expected
        self.reference_engine = reference_engine
        self.reference = None
        self.attempted = 0
        self.failures = []

    def check(self, engine, outcome, label="run"):
        """Record one run; returns True when it passed."""
        if self.reference is None and engine == self.reference_engine:
            self.reference = fingerprint(outcome)
        reasons = []
        if not self.workload.matches(outcome.result, self.expected):
            reasons.append("result differs from the numpy reference")
        if self.reference is not None:
            cycles, stats, result = fingerprint(outcome)
            if cycles != self.reference[0]:
                reasons.append("cycles %d != %s %d" % (
                    cycles, self.reference_engine, self.reference[0]))
            if stats != self.reference[1]:
                reasons.append("stats differ from " + self.reference_engine)
            if result != self.reference[2]:
                reasons.append("result differs from " + self.reference_engine)
        self.attempted += 1
        if reasons:
            self.failures.append({"engine": engine, "run": label,
                                  "reasons": reasons})
        return not reasons

    @property
    def failed(self):
        return len(self.failures)


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
def _stat_sum(stats, suffix):
    """Sum of every counter named ``<scope>.<suffix>`` (one per instance).

    Only the scatter-add units count ``stall_cycles`` and only the cache
    banks ``hits``, ``mshr_hits`` and ``misses``.
    """
    return sum(value for name, value in stats.items()
               if name.endswith("." + suffix))


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, outcome, config, untraced_wall, suffix=""):
    """Per-layer metrics of one traced pass, names ending in `suffix`."""
    stats = outcome.stats
    layers = tracer.summary()
    wall = tracer.wall_s
    out = {}

    def put(name, value, unit):
        out[name + suffix] = {"value": float(value), "unit": unit}

    for layer, prefix in LAYER_PREFIX.items():
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        put(prefix + ".self_s", entry["self_s"], "s")
        put(prefix + ".share", _ratio(entry["self_s"], wall), "ratio")
        if prefix != "engine":
            put(prefix + ".ticks", entry["calls"], "count")
    executed = stats.get("engine.ticks_executed", 0)
    skipped = stats.get("engine.ticks_skipped", 0)
    stepped = stats.get("engine.cycles_executed", 0)
    jumped = stats.get("engine.cycles_fast_forwarded", 0)
    put("engine.ticks", executed, "count")
    put("engine.tick_skip_frac", _ratio(skipped, executed + skipped), "ratio")
    put("engine.idle_skip_frac", _ratio(jumped, stepped + jumped), "ratio")
    sau = layers.get("core.unit", {"self_s": 0.0, "calls": 0})
    put("sau.ns_per_tick", _ratio(sau["self_s"] * 1e9, sau["calls"]), "ns")
    put("sau.stall_cycles", _stat_sum(stats, "stall_cycles"), "cycles")
    hits = _stat_sum(stats, "hits")
    lookups = (hits + _stat_sum(stats, "mshr_hits")
               + _stat_sum(stats, "misses"))
    put("bank.hit_frac", _ratio(hits, lookups), "ratio")
    channels = config.dram_channels if config.memory_model == "cached" else 1
    put("dram.busy_frac",
        _ratio(_stat_sum(stats, "dram.busy_cycles")
               + _stat_sum(stats, "mem.busy_cycles"),
               (stepped + jumped) * channels * config.nodes), "ratio")
    put("router.hol_blocks", _stat_sum(stats, "router.hol_blocks"), "count")
    put("switch.combined_frac",
        _ratio(stats.get("sim.network.combined_in_flight", 0),
               stats.get("sim.network.injected", 0)), "ratio")
    put("trace.overhead_frac", wall / untraced_wall - 1.0, "ratio")
    put("trace.untracked_frac", _ratio(tracer.untracked_s, wall), "ratio")
    return out


# ---------------------------------------------------------------------- #
# one workload, in this process
# ---------------------------------------------------------------------- #
def measure(workload, seed, seconds, trace, out_dir=None, import_s=None):
    """Set up, gate, time and (with `trace`) trace one workload.

    Returns the workload's report: end-to-end metrics as summaries of
    their samples, per-layer metrics as single values, the per-layer
    host-time table of each traced pass and the gate's verdicts.
    """
    from repro.sim import engine as engine_module

    from spans import LayerTracer

    schedulers = engine_module.SCHEDULERS
    default = engine_module.DEFAULT_SCHEDULER
    reference_engine = "legacy" if "legacy" in schedulers else default
    headline = [default] + [name for name in ("fastforward",)
                            if name != default]
    others = ([name for name in schedulers if name not in headline]
              if trace else [])
    clock = time.perf_counter

    # --- set-up: inputs from the seed plus one machine, several times --
    builds, inits, setups = [], [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = clock()
        inputs = workload.build(seed)
        built = clock()
        workload.machine(inputs)
        done = clock()
        builds.append(built - start)
        inits.append(done - built)
        setups.append(done - start)
    expected = workload.reference(inputs)
    gate = Gate(workload, expected, reference_engine)

    def run(engine):
        # The default engine runs exactly as a user would call it,
        # without naming an engine.
        return workload.run(inputs, None if engine == default else engine)

    # --- the reference engine first; its run doubles as its warm-up ---
    gate.check(reference_engine, run(reference_engine), "warm-up")
    walls = {name: [] for name in headline + others}
    cycles = {}

    def timed(engine):
        gc.collect()
        start = clock()
        outcome = run(engine)
        walls[engine].append(clock() - start)
        cycles[engine] = outcome.cycles
        gate.check(engine, outcome)

    for engine in headline + others:
        if engine != reference_engine:
            gate.check(engine, run(engine), "warm-up")
    # Headline engines alternate, in rotating order, for `seconds`: no
    # round starts that would end past it once MIN_ROUNDS are done.
    start = clock()
    rounds = 0
    while True:
        round_start = clock()
        for index in range(len(headline)):
            timed(headline[(rounds + index) % len(headline)])
        rounds += 1
        now = clock()
        if (rounds >= MIN_ROUNDS
                and now - start + (now - round_start) > seconds):
            break
    for engine in others:
        for _ in range(OTHER_ENGINE_RUNS):
            timed(engine)

    def cycles_per_s(engine):
        return [cycles[engine] / wall for wall in walls[engine]]

    end_to_end = {
        "cycles_per_s": summarize(cycles_per_s(default), "cyc/s",
                                  best=True),
        "cycles_per_s.fastforward": summarize(
            cycles_per_s("fastforward"), "cyc/s", best=True),
        "sim_cycles": summarize([cycles[default]], "cycles"),
        "setup_s": summarize(setups, "s"),
    }
    report = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": bool(trace), "rounds": rounds,
        "engines": {name: {"cycles": cycles[name], "walls": walls[name],
                           "cycles_per_s": max(cycles_per_s(name))}
                    for name in headline + others},
        "end_to_end": end_to_end, "per_layer": {}, "layers": {},
    }
    if workload.paper_cycles:
        report["paper"] = {
            "cycles": workload.paper_cycles,
            "simulated/paper": cycles[default] / workload.paper_cycles,
        }

    # --- traced pass: one per headline engine, observation only ---------
    if trace:
        per_layer = report["per_layer"]
        for engine in headline:
            suffix = "" if engine == default else "." + engine
            gc.collect()
            with LayerTracer() as tracer:
                outcome = tracer.call(run, engine)
            gate.check(engine, outcome, "traced")
            per_layer.update(layer_metrics(
                tracer, outcome, workload.config,
                statistics.median(walls[engine]), suffix))
            if engine == "fastforward":
                layers = tracer.summary()
                per_layer["fastforward.attempt_s"] = {
                    "value": layers.get("sim.fastforward",
                                        {"self_s": 0.0})["self_s"],
                    "unit": "s"}
                per_layer["fastforward.windows_collapsed"] = {
                    "value": float(outcome.stats.get(
                        "engine.windows_collapsed", 0)), "unit": "count"}
            report["layers"][engine] = {
                "wall_s": tracer.wall_s, "untracked_s": tracer.untracked_s,
                "layers": {layer: dict(entry,
                                       share=entry["self_s"] / tracer.wall_s)
                           for layer, entry in tracer.summary().items()},
            }
            if out_dir is not None:
                path = Path(out_dir) / ("%s.%s.trace.json"
                                        % (workload.name, engine))
                path.write_text(json.dumps(tracer.chrome_trace(
                    "%s on %s (seed %d)" % (workload.name, engine, seed))))
        for name in schedulers:
            per_layer["engine.%s.cycles_per_s" % name] = {
                "value": report["engines"][name]["cycles_per_s"],
                "unit": "cyc/s"}
        per_layer["workloads.build_s"] = {
            "value": statistics.median(builds), "unit": "s"}
        per_layer["machine.init_s"] = {
            "value": statistics.median(inits), "unit": "s"}
        if import_s is not None:
            per_layer["import_s"] = {"value": import_s, "unit": "s"}

    end_to_end["peak_rss_mb"] = summarize(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB")
    end_to_end["failed_frac"] = summarize(
        [gate.failed / gate.attempted], "ratio")
    report["gate"] = {"reference": reference_engine,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "failures": gate.failures}
    return report


def contract_line(report, spec):
    """The last output line: correctness plus this mode's metrics."""
    if report["trace"]:
        names = [metric["name"] for metric in spec["per_layer"]]
        metrics = {name: report["per_layer"][name] for name in names}
    else:
        names = [metric["name"] for metric in spec["end_to_end"]]
        metrics = {name: {"value": report["end_to_end"][name]["value"],
                          "unit": report["end_to_end"][name]["unit"]}
                   for name in names}
    gate = report["gate"]
    return {"correct": gate["failed"] == 0, "attempted": gate["attempted"],
            "failed": gate["failed"], "metrics": metrics}


def print_report(report):
    print("== %s (seed %d): %s" % (report["workload"], report["seed"],
                                   report["why"]))
    for name, entry in report["end_to_end"].items():
        print("  %-28s %14.6g %-6s %s of %d  [median %.6g  min %.6g  "
              "max %.6g  spread %.1f%%]" % (
                  name, entry["value"], entry["unit"], entry["statistic"],
                  entry["n"], entry["median"], entry["min"], entry["max"],
                  100 * entry["spread"]))
    for name, entry in sorted(report["per_layer"].items()):
        print("  %-36s %14.6g %s" % (name, entry["value"], entry["unit"]))
    if "paper" in report:
        paper = report["paper"]
        print("  model vs paper: %d simulated cycles vs %d published "
              "(ratio %.2f)" % (report["end_to_end"]["sim_cycles"]["median"],
                                paper["cycles"], paper["simulated/paper"]))
    gate = report["gate"]
    print("  gate vs %s: %d of %d runs failed" % (
        gate["reference"], gate["failed"], gate["attempted"]))
    for failure in gate["failures"]:
        print("    FAILED %s %s: %s" % (failure["engine"], failure["run"],
                                        "; ".join(failure["reasons"])))


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #
def run_one(args, spec):
    """Measure one workload in this process and print the contract line."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import suite
    except ImportError as exc:
        raise SystemExit("bench: cannot import the simulator from %s: %s"
                         % (ROOT / "src", exc))
    import_s = time.perf_counter() - start
    workloads = suite.workloads()
    if args.workload not in workloads:
        raise SystemExit("bench: unknown workload %r (have %s)"
                         % (args.workload, ", ".join(workloads)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = measure(workloads[args.workload], args.seed, args.seconds,
                     args.trace, out_dir=out_dir, import_s=import_s)
    (out_dir / (args.workload + ".json")).write_text(
        json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(json.dumps(contract_line(report, spec)), flush=True)
    return 0


def run_all(args, spec):
    """Every workload, each in a fresh process, then ``report.json``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    report = {
        "schema": "bench.report/1", "seed": args.seed,
        "seconds": args.seconds, "python": platform.python_version(),
        "machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count()),
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1",
             "--out", str(out_dir)],
            check=True, env=dict(os.environ, PYTHONHASHSEED="0"))
        report["workloads"][name] = json.loads(
            (out_dir / (name + ".json")).read_text())
    report["wall_s"] = time.perf_counter() - started
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print("\n%-14s %-26s %14s %-6s %-7s %s" % (
        "workload", "metric", "value", "unit", "of", "spread"))
    for name, entry in report["workloads"].items():
        for metric, summary in entry["end_to_end"].items():
            print("%-14s %-26s %14.6g %-6s %-7s %.1f%%" % (
                name, metric, summary["value"], summary["unit"],
                "%s %d" % (summary["statistic"], summary["n"]),
                100 * summary["spread"]))
    print("wrote %s in %.0f s" % (path, report["wall_s"]))
    return 0


def main(argv=None):
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure one workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget of the headline engines' "
                             "timed rounds (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also time every engine and trace layers")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"),
                        help="directory for reports and traces")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same string hashing, hence dict and set layout, in every run.
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())]
                  + (sys.argv[1:] if argv is None else list(argv)),
                  dict(os.environ, PYTHONHASHSEED="0"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
