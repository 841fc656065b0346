"""Command-line interface: run experiments and quick simulations.

Usage::

    python -m repro list
    python -m repro run figure6 [--out results/figure6.txt]
    python -m repro run all --out-dir results/
    python -m repro simulate --updates 4096 --range 2048 --method hardware
    python -m repro simulate --trace-requests 8
    python -m repro area --units 8 --entries 8

``run`` regenerates a paper experiment and prints its table; ``simulate``
times a single scatter-add with the chosen implementation
(``--trace-requests N`` samples 1-in-N requests and prints a per-stage
latency breakdown); ``area`` prints the die-area estimate; ``compare``
sets figure 9/10 against the paper's published numbers.
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
    trace_requests = getattr(args, "trace_requests", 0) or 0
    if not (sample_every or trace_requests
            or getattr(args, "trace_out", None)
            or getattr(args, "metrics_out", None)):
        return contextlib.nullcontext(None)
    return observe(sample_every=sample_every, trace_requests=trace_requests)


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


def _validate_network_args(args):
    """Check the multi-node flags against :class:`NetworkConfig`.

    Construction is the validation: the same rules gate programmatic use,
    so the CLI can never accept a topology/site/node-count combination
    the config layer would reject.
    """
    from repro.config import NetworkConfig

    kwargs = {name: getattr(args, name)
              for name in ("nodes", "topology", "combine_site")
              if getattr(args, name) is not None}
    try:
        NetworkConfig(**kwargs)
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

    observation = None
    if args.method == "hardware":
        with _observe_if_requested(args) as observation:
            run = Simulation(config).run("scatter_add", indices, 1.0,
                                         num_targets=args.range)
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

        tracer = observation.scopes[0].request_tracer
        print(render_latency_breakdown(tracer.breakdown()))
    _export_observation(args, observation)
    return 0 if exact else 1


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
    """Multi-node flags of ``run``.

    Defaults are ``None`` (flag absent) so ``run`` can distinguish "not
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
        "area": _cmd_area,
        "compare": _cmd_compare,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
