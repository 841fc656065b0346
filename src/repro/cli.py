"""Command-line interface: run experiments and quick simulations.

Usage::

    python -m repro list
    python -m repro run figure6 [--out results/figure6.txt]
    python -m repro run all --out-dir results/
    python -m repro simulate --updates 4096 --range 2048 --method hardware
    python -m repro simulate --trace-requests 8
    python -m repro bench --smoke --out results/engine_bench.json
    python -m repro bench --smoke --check benchmarks/baseline.json
    python -m repro area --units 8 --entries 8

``run`` regenerates a paper experiment and prints its table; ``simulate``
times a single scatter-add with the chosen implementation
(``--trace-requests N`` samples 1-in-N requests and prints a per-stage
latency breakdown); ``bench`` compares the event and legacy simulation
schedulers on fixed workloads (asserting identical cycle counts) and
writes a JSON report (``--check BASELINE`` fails on cycle-count drift
beyond 25% or wall-time regression beyond 2x); ``area`` prints the
die-area estimate; ``compare`` sets figure 9/10 against the paper's
published numbers.
"""

import argparse
import pathlib
import sys

import numpy as np

from repro.config import MachineConfig
from repro.core.area import AreaModel

#: Experiment name -> zero-argument callable (resolved lazily to keep CLI
#: startup fast).
EXPERIMENTS = (
    "table1", "figure6", "figure7", "figure8", "figure9", "figure10",
    "figure11", "figure12", "figure13", "network_ablation",
)


def _experiment(name):
    import repro.harness as harness

    try:
        return getattr(harness, name)
    except AttributeError:
        raise SystemExit("unknown experiment %r; try 'list'" % (name,))


def _cmd_list(args):
    print("experiments (one per paper table/figure):")
    for name in EXPERIMENTS:
        print("  " + name)
    return 0


def _observe_if_requested(args):
    """Ambient observation context when any --trace-out / --metrics-out /
    --sample-every / --trace-requests flag is given; a no-op context
    otherwise."""
    import contextlib

    from repro.obs import observe

    sample_every = getattr(args, "sample_every", 0) or 0
    tracing = bool(getattr(args, "trace_out", None))
    trace_requests = getattr(args, "trace_requests", 0) or 0
    if not (sample_every or tracing or trace_requests
            or getattr(args, "metrics_out", None)):
        return contextlib.nullcontext(None)
    return observe(sample_every=sample_every, trace=tracing,
                   trace_requests=trace_requests)


def _export_observation(args, observation):
    """Write and validate the artifacts requested on the command line."""
    if observation is None:
        return
    from repro.obs import (
        validate_chrome_trace,
        validate_metrics,
        write_chrome_trace,
        write_metrics,
    )

    if getattr(args, "trace_out", None):
        path = pathlib.Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = write_chrome_trace(path, observation)
        validate_chrome_trace(payload)
        print("wrote %s (%d trace events)"
              % (path, len(payload["traceEvents"])))
    if getattr(args, "metrics_out", None):
        path = pathlib.Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = write_metrics(path, observation)
        validate_metrics(payload)
        print("wrote %s (%d scopes)" % (path, len(payload["scopes"])))


def _network_args_given(args):
    return any(getattr(args, name, None) is not None
               for name in ("nodes", "topology", "combine_site"))


def _validate_network_args(args, **defaults):
    """Check the multi-node flags against :class:`NetworkConfig`.

    Construction is the validation: the same rules gate programmatic use,
    so the CLI can never accept a topology/site/node-count combination
    the config layer would reject.  `defaults` fill in flags the user
    left unset.  Returns the validated NetworkConfig (or ``None`` when no
    multi-node flag was given).
    """
    if not _network_args_given(args):
        return None
    from repro.config import NetworkConfig

    kwargs = dict(defaults)
    if args.nodes is not None:
        kwargs["nodes"] = args.nodes
    if args.topology is not None:
        kwargs["topology"] = args.topology
    if args.combine_site is not None:
        kwargs["combine_site"] = args.combine_site
    try:
        return NetworkConfig(**kwargs)
    except ValueError as exc:
        raise SystemExit("invalid network flags: %s" % (exc,))


def _experiment_network_kwargs(name, callable_, args):
    """Map --nodes/--topology/--combine-site onto an experiment's kwargs.

    Experiments advertise multi-node support through their signatures
    (``node_counts``, ``topology``, ``sites``); a flag that maps to a
    parameter the experiment lacks is an error, not a silent no-op.
    """
    import inspect

    parameters = inspect.signature(callable_).parameters
    wanted = []
    if args.nodes is not None:
        wanted.append(("--nodes", "node_counts", (args.nodes,)))
    if args.topology is not None:
        wanted.append(("--topology", "topology", args.topology))
    if args.combine_site is not None:
        wanted.append(("--combine-site", "sites", (args.combine_site,)))
    kwargs = {}
    for flag, parameter, value in wanted:
        if parameter not in parameters:
            raise SystemExit(
                "experiment %r does not take %s (no %r parameter)"
                % (name, flag, parameter))
        kwargs[parameter] = value
    return kwargs


def _cmd_run(args):
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    _validate_network_args(args)
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    with _observe_if_requested(args) as observation:
        for name in names:
            runner = _experiment(name)
            kwargs = _experiment_network_kwargs(name, runner, args)
            result = runner(**kwargs)
            text = result.render()
            print(text)
            print()
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / (result.exp_id + ".txt")).write_text(text + "\n")
    _export_observation(args, observation)
    return 0


def _cmd_simulate(args):
    from repro.api import Simulation, scatter_add_reference
    from repro.software import (
        ColoringScatterAdd,
        PrivatizationScatterAdd,
        SortScanScatterAdd,
    )

    rng = np.random.default_rng(args.seed)
    indices = rng.integers(0, args.range, size=args.updates)
    config = MachineConfig.table1()
    expected = scatter_add_reference(np.zeros(args.range), indices, 1.0)

    if args.method == "hardware":
        run = Simulation(
            config,
            sample_every=args.sample_every,
            trace=bool(args.trace_out),
            trace_requests=args.trace_requests,
        ).run("scatter_add", indices, 1.0, num_targets=args.range)
    elif args.method == "sortscan":
        run = SortScanScatterAdd(config).run(indices, 1.0,
                                             num_targets=args.range)
    elif args.method == "privatization":
        run = PrivatizationScatterAdd(config).run(indices, 1.0,
                                                  num_targets=args.range)
    else:
        run = ColoringScatterAdd(config).run(indices, 1.0,
                                             num_targets=args.range)
    exact = np.array_equal(np.asarray(run.result), expected)
    print("%s scatter-add: %d updates over %d targets" % (
        args.method, args.updates, args.range))
    print("  cycles: %d  (%.3f us at %.1f GHz)" % (
        run.cycles, config.cycles_to_us(run.cycles), config.frequency_ghz))
    print("  result matches numpy reference: %s" % exact)
    if args.method == "hardware" and args.bottlenecks:
        from repro.harness.report import render_bottlenecks

        print(render_bottlenecks(run.bottlenecks(top=args.bottlenecks)))
    if args.method == "hardware" and args.trace_requests:
        from repro.harness.report import render_latency_breakdown

        print(render_latency_breakdown(run.latency_breakdown()))
    if args.method == "hardware":
        _export_observation(args, run.observation)
    return 0 if exact else 1


def _bench_workloads(smoke, network=None):
    """Benchmark cases: (name, zero-arg runner factory) pairs.

    Each runner executes one full simulation and returns the cycle count
    it simulated, so cycles-per-second compares schedulers on identical
    work.  `network` (a :class:`~repro.config.NetworkConfig`) overrides
    the interconnect of the multi-node case; the default is the radix-4
    reduction tree with combining at both sites, i.e. the configuration
    the network ablation champions.
    """
    from repro.api import Simulation
    from repro.config import NetworkConfig
    from repro.workloads.fem import build_tet_mesh
    from repro.workloads.spmv import SpMVWorkload

    rng = np.random.default_rng(0)
    updates = 512 if smoke else 4096
    hist_indices = rng.integers(0, 2048, size=updates)
    table1 = MachineConfig.table1()

    mesh_dims = (3, 3, 2) if smoke else (6, 6, 4)
    spmv = SpMVWorkload(build_tet_mesh(*mesh_dims, seed=0), seed=0)

    fig11_indices = rng.integers(0, 65536, size=512)
    fig11 = MachineConfig.uniform(latency=256, interval=2)

    if network is None:
        network = NetworkConfig(nodes=8, topology="tree", tree_radix=4,
                                combine_site="both", link_bw_words=2)
    multinode = table1.with_changes(network=network)
    # Skewed trace (80% of references to 8 hot indices): the regime where
    # in-network combining matters, so the bench exercises the merge path.
    targets = max(64, network.nodes * 16)
    refs = network.nodes * (16 if smoke else 64)
    hot = rng.integers(0, targets, size=8)
    pick = rng.random(refs) < 0.8
    net_indices = np.where(pick, hot[rng.integers(0, 8, size=refs)],
                           rng.integers(0, targets, size=refs))

    return [
        ("histogram", lambda: Simulation(table1).run(
            "scatter_add", hist_indices, 1.0, num_targets=2048).cycles),
        ("spmv_ebe_hw", lambda: spmv.run_ebe_hardware(table1).cycles),
        ("fig11_latency256", lambda: Simulation(fig11).run(
            "scatter_add", fig11_indices, 1.0, num_targets=65536).cycles),
        ("network_ablation", lambda: Simulation(multinode).run(
            "scatter_add", net_indices, 1.0, num_targets=targets).cycles),
    ]


#: Bench regression thresholds for ``bench --check``: cycle counts are
#: deterministic so small drift already signals a modelling change; wall
#: time is noisy on shared CI runners, so only a gross slowdown fails,
#: and an absolute slack floor keeps millisecond-scale smoke cases from
#: tripping on scheduler jitter alone.
BENCH_CYCLE_TOLERANCE = 0.25
BENCH_WALL_FACTOR = 2.0
BENCH_WALL_SLACK = 0.05  # seconds

#: Version of the bench report layout.  Bumped whenever the schema or the
#: timing protocol changes incompatibly (2: median-of-N timing with a
#: warm-up pass, recorded engine list, per-workload speedup floors; 3: the
#: floor compares event against its stepping loop), so a stale committed
#: baseline fails ``--check`` loudly instead of silently comparing
#: incomparable numbers.
BENCH_SCHEMA = "repro.bench/3"


def check_bench_regression(results, baseline,
                           cycle_tolerance=BENCH_CYCLE_TOLERANCE,
                           wall_factor=BENCH_WALL_FACTOR,
                           wall_slack=BENCH_WALL_SLACK,
                           baseline_label="baseline"):
    """Compare a bench report against a committed baseline.

    Returns a list of human-readable failure strings (empty = pass).
    Every failure names the offending baseline entry as
    ``workload[engine]`` plus `baseline_label` (the baseline file the
    numbers came from), so a CI log line is actionable on its own.  A
    workload fails when its cycle count moved more than
    `cycle_tolerance` (fractional, either direction) or its median wall
    time exceeds `wall_factor` times the baseline plus `wall_slack`
    seconds.  A baseline entry carrying ``min_collapse_speedup``
    additionally enforces that floor on the run's measured
    ``collapse_speedup``, event over its stepping loop (the fig11
    window-collapse gate).  Workloads
    present on only one side are reported but do not fail the check, so
    adding a bench case does not require regenerating the baseline in
    the same change -- but a stale baseline *file* (missing or mismatched
    schema version, or missing an engine this run timed) fails loudly.
    """
    failures = []
    base_schema = baseline.get("schema")
    if base_schema != BENCH_SCHEMA:
        failures.append(
            "%s: baseline schema %r != %r -- stale baseline file, "
            "regenerate with `repro bench --out %s`"
            % (baseline_label, base_schema, BENCH_SCHEMA, baseline_label))
        return failures
    base_engines = baseline.get("engines")
    run_engines = results.get("engines", [])
    if base_engines is None:
        failures.append("%s: baseline records no engine list -- stale "
                        "baseline file, regenerate" % baseline_label)
        return failures
    missing = [engine for engine in run_engines
               if engine not in base_engines]
    if missing:
        failures.append(
            "%s: baseline lacks engines %s (has %s) -- stale baseline "
            "file, regenerate"
            % (baseline_label, ", ".join(missing), ", ".join(base_engines)))
        return failures
    base_workloads = baseline.get("workloads", {})
    for name, entry in results.get("workloads", {}).items():
        base = base_workloads.get(name)
        if base is None:
            print("bench --check: %s not in baseline (skipped)" % name)
            continue
        # Compare every scheduler benched on both sides (per-scheduler
        # sub-dicts; scalar keys like "speedup" are derived, not checked).
        shared = [key for key in entry
                  if isinstance(entry[key], dict)
                  and isinstance(base.get(key), dict)]
        for scheduler in shared:
            current = entry.get(scheduler, {})
            reference = base.get(scheduler, {})
            base_cycles = reference.get("cycles")
            cycles = current.get("cycles")
            if base_cycles and cycles is not None:
                drift = abs(cycles - base_cycles) / base_cycles
                if drift > cycle_tolerance:
                    failures.append(
                        "%s[%s]: cycle count %d vs baseline %d "
                        "(%.0f%% drift > %.0f%% tolerance, from %s)"
                        % (name, scheduler, cycles, base_cycles,
                           100.0 * drift, 100.0 * cycle_tolerance,
                           baseline_label))
            base_wall = reference.get("wall_seconds")
            wall = current.get("wall_seconds")
            if (base_wall and wall is not None
                    and wall > wall_factor * base_wall + wall_slack):
                failures.append(
                    "%s[%s]: wall time %.3fs vs baseline %.3fs "
                    "(> %.1fx slower, from %s)"
                    % (name, scheduler, wall, base_wall, wall_factor,
                       baseline_label))
        floor = base.get("min_collapse_speedup")
        speedup = entry.get("collapse_speedup")
        if floor is not None and speedup is not None and speedup < floor:
            failures.append(
                "%s[event vs stepping]: window-collapse speedup %.2fx "
                "below the %.1fx floor (from %s)"
                % (name, speedup, floor, baseline_label))
    for name in base_workloads:
        if name not in results.get("workloads", {}):
            print("bench --check: baseline workload %s missing from run"
                  % name)
    return failures


def _cmd_bench(args):
    import json
    import statistics
    import time

    from repro.sim.engine import _stepping, use_scheduler

    if args.repeats < 1:
        raise SystemExit("bench: --repeats must be at least 1 "
                         "(got %d)" % args.repeats)
    engines = {
        "event": ("event",),
        "columnar": ("columnar",),
        "both": ("event", "columnar"),
        # "stepping" is event with window collapse switched off.
        "all": ("event", "legacy", "columnar", "stepping"),
    }[args.engine]
    # Flags the user leaves unset fall back to the bench's default
    # multi-node case (radix-4 tree, 8 nodes, combining everywhere).
    network = _validate_network_args(
        args, nodes=8, topology="tree", tree_radix=4,
        combine_site="both", link_bw_words=2)
    results = {"schema": BENCH_SCHEMA, "smoke": bool(args.smoke),
               "engines": list(engines), "workloads": {}}
    for name, runner in _bench_workloads(args.smoke, network=network):
        entry = {}
        for scheduler in engines:
            with (_stepping() if scheduler == "stepping"
                  else use_scheduler(scheduler)):
                # One untimed warm-up run absorbs import, allocator and
                # cache-warming costs; the median of the timed reps then
                # gates --check instead of a single noisy extreme.
                cycles = runner()
                samples = []
                for _ in range(args.repeats):
                    start = time.perf_counter()
                    cycles = runner()
                    samples.append(time.perf_counter() - start)
            wall = statistics.median(samples)
            entry[scheduler] = {
                "cycles": int(cycles),
                "wall_seconds": wall,
                "wall_seconds_min": min(samples),
                "cycles_per_second": cycles / wall if wall else 0.0,
            }
        counts = {entry[s]["cycles"] for s in engines}
        if len(counts) > 1:
            raise SystemExit(
                "bench %s: schedulers disagree on cycle count (%s)"
                % (name, ", ".join("%s=%d" % (s, entry[s]["cycles"])
                                   for s in engines)))
        if "legacy" in entry and "event" in entry:
            entry["speedup"] = (entry["event"]["cycles_per_second"]
                                / entry["legacy"]["cycles_per_second"])
        if "event" in entry and "columnar" in entry:
            entry["columnar_speedup"] = (
                entry["columnar"]["cycles_per_second"]
                / entry["event"]["cycles_per_second"])
        if "event" in entry and "stepping" in entry:
            entry["collapse_speedup"] = (
                entry["event"]["cycles_per_second"]
                / entry["stepping"]["cycles_per_second"])
        results["workloads"][name] = entry
        cells = ["%-18s %8d cycles" % (name, entry[engines[0]]["cycles"])]
        cells.extend("%s %8.0f cyc/s" % (s, entry[s]["cycles_per_second"])
                     for s in engines)
        if "speedup" in entry:
            cells.append("event/legacy %.2fx" % entry["speedup"])
        if "columnar_speedup" in entry:
            cells.append("columnar/event %.2fx" % entry["columnar_speedup"])
        if "collapse_speedup" in entry:
            cells.append("event/stepping %.2fx" % entry["collapse_speedup"])
        print("  ".join(cells))
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print("wrote " + str(out))
    if args.trace_out or args.metrics_out:
        # One extra, instrumented pass (outside the timing loops, so the
        # numbers above stay clean) to produce the requested artifacts.
        from repro.obs import observe

        sample_every = args.sample_every or 64
        with observe(sample_every=sample_every,
                     trace=bool(args.trace_out),
                     trace_requests=args.trace_requests) as observation:
            for name, runner in _bench_workloads(args.smoke,
                                                 network=network):
                runner()
        _export_observation(args, observation)
    if args.check:
        baseline_path = pathlib.Path(args.check)
        baseline = json.loads(baseline_path.read_text())
        failures = check_bench_regression(
            results, baseline, baseline_label=str(baseline_path))
        if failures:
            for failure in failures:
                print("bench --check FAIL: " + failure)
            return 1
        print("bench --check: no regression vs " + str(baseline_path))
    return 0


def _cmd_area(args):
    model = AreaModel(units=args.units,
                      combining_store_entries=args.entries)
    print(model.summary())
    return 0


def _cmd_compare(args):
    from repro.harness.paper_data import FIGURE9, FIGURE10, compare_rows
    from repro.harness.report import ExperimentResult

    published = {"figure9": FIGURE9, "figure10": FIGURE10}
    if args.experiment not in published:
        raise SystemExit("compare supports: %s (figures with published "
                         "numbers)" % ", ".join(sorted(published)))
    measured = _experiment(args.experiment)()
    rows = compare_rows(measured, published[args.experiment])
    table = ExperimentResult(
        args.experiment + "_vs_paper",
        "%s: measured vs paper" % args.experiment,
        ["method", "metric", "paper", "measured", "measured/paper"],
        rows,
    )
    print(table.render())
    return 0


def _add_network_arguments(parser):
    """Multi-node flags, shared by ``run`` and ``bench``.

    Defaults are ``None`` (flag absent) so commands can distinguish "not
    requested" from an explicit value; the combination is validated by
    constructing a :class:`~repro.config.NetworkConfig`.
    """
    parser.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="simulate N scatter-add nodes joined by the interconnect")
    parser.add_argument(
        "--topology", default=None, choices=("crossbar", "tree"),
        help="interconnect topology (tree is the radix-4 reduction tree)")
    parser.add_argument(
        "--combine-site", default=None,
        choices=("memory", "network", "both"),
        help="where same-index scatter requests merge: the home node's "
             "combining store, the switches' combining tables, or both")


def _add_obs_arguments(parser):
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a chrome://tracing trace of the run to FILE")
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write machine-readable metrics.json to FILE")
    parser.add_argument(
        "--sample-every", type=int, default=0, metavar="N",
        help="sample per-component timelines every N cycles")
    parser.add_argument(
        "--trace-requests", type=int, default=0, metavar="N",
        help="trace the lifecycle of one in every N memory requests "
             "(spans + flow events in the trace, latency attribution "
             "in metrics.json)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scatter-Add in Data Parallel Architectures -- "
                    "reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="regenerate a paper experiment")
    run.add_argument("experiment",
                     help="experiment name (see 'list') or 'all'")
    run.add_argument("--out-dir", default=None,
                     help="also write rendered tables to this directory")
    _add_network_arguments(run)
    _add_obs_arguments(run)

    simulate = commands.add_parser(
        "simulate", help="time one scatter-add with a chosen method")
    simulate.add_argument("--updates", type=int, default=4096)
    simulate.add_argument("--range", type=int, default=2048)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--method", default="hardware",
        choices=("hardware", "sortscan", "privatization", "coloring"))
    simulate.add_argument(
        "--bottlenecks", type=int, default=0, metavar="N",
        help="also print the N most-utilised components (hardware only)")
    _add_obs_arguments(simulate)

    bench = commands.add_parser(
        "bench", help="time the simulation scheduler engines")
    bench.add_argument("--smoke", action="store_true",
                       help="small inputs for CI (seconds, not minutes)")
    bench.add_argument(
        "--engine", default="all",
        choices=("event", "columnar", "both", "all"),
        help="which engines to time: a single engine, 'both' "
             "(event+columnar), or 'all' (every scheduler, legacy "
             "reference included, plus 'stepping': event without window "
             "collapse)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed repetitions per case after one warm-up "
                            "run (the median is kept)")
    bench.add_argument("--out", default="results/engine_bench.json",
                       help="where to write the JSON benchmark report")
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="fail (exit 1) when cycle counts drift >25%% or wall time "
             "exceeds 2x the committed baseline JSON")
    _add_network_arguments(bench)
    _add_obs_arguments(bench)

    area = commands.add_parser("area", help="die-area estimate")
    area.add_argument("--units", type=int, default=8)
    area.add_argument("--entries", type=int, default=8)

    compare = commands.add_parser(
        "compare", help="measured vs the paper's published numbers")
    compare.add_argument("experiment",
                         help="figure9 or figure10 (published bar values)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "simulate": _cmd_simulate,
        "bench": _cmd_bench,
        "area": _cmd_area,
        "compare": _cmd_compare,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
