"""High-level public API.

Two layers:

- **Functional reference**: :func:`scatter_add_reference` implements the
  paper's ``scatterAdd(a, b, c)`` semantics (HPF's array combining scatter)
  directly with numpy -- the ground truth every simulated and software
  implementation is checked against.  :func:`scatter_op_reference` extends
  it to the Section 3.3 operations (min, max, multiply).
- **Simulation front door**: :class:`Simulation` configures the
  cycle-approximate hardware model once, then :meth:`Simulation.run`
  executes any supported scatter operation and returns a
  :class:`ScatterRun` -- result array, timing, statistics, and (when
  requested) an observation with timelines and request spans ready for
  the :mod:`repro.obs` exporters.  A multi-node configuration returns
  the :class:`~repro.multinode.system.MultiNodeRun` subclass.

Quickstart::

    from repro.api import Simulation

    sim = Simulation()                       # Table 1 machine
    run = sim.run("scatter_add", [1, 2, 2, 3], 1.0, num_targets=5)
    print(run.result, run.cycles, run.bottlenecks()[0])

:class:`ScatterRun` serializes losslessly (:meth:`ScatterRun.to_dict`,
:meth:`ScatterRun.save` / :meth:`ScatterRun.load`), so a saved run
reloads with byte-identical metrics, and :class:`Simulation` accepts a
plain config dict.
"""

import contextlib
import json

import numpy as np

from repro.config import MachineConfig
from repro.node.processor import StreamProcessor
from repro.node.program import Phase, ScatterAdd, StreamProgram
from repro.obs.session import observe
from repro.sim.engine import check_scheduler
from repro.sim.stats import Stats

#: Version tag of the serialized :class:`ScatterRun` format.
RUN_SCHEMA = "repro.run/2"


def _validate_indices(b, size):
    """Shared bounds check: every index must land inside the target array."""
    if b.size and (b.min() < 0 or b.max() >= size):
        raise IndexError(
            "index array out of range: [%d, %d] vs target length %d"
            % (b.min(), b.max(), size)
        )


def scatter_add_reference(a, b, c):
    """The paper's scatterAdd pseudo-code, as numpy ground truth.

    ``forall i: ATOMIC { a[b[i]] = a[b[i]] + c[i] }`` -- with `c` either an
    array of ``len(b)`` or a scalar broadcast to every update.  Returns a
    new array; `a` is not modified.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    b = np.asarray(b, dtype=np.int64)
    _validate_indices(b, a.size)
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), b.shape)
    np.add.at(a, b, c)
    return a


_UFUNC_AT = {
    "scatter_add": np.add,
    "fetch_add": np.add,
    "scatter_min": np.minimum,
    "scatter_max": np.maximum,
    "scatter_mul": np.multiply,
}


def scatter_op_reference(op, a, b, c):
    """Reference semantics for the extended operations of Section 3.3."""
    a = np.array(a, dtype=np.float64, copy=True)
    b = np.asarray(b, dtype=np.int64)
    _validate_indices(b, a.size)
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), b.shape)
    try:
        ufunc = _UFUNC_AT[op]
    except KeyError:
        raise ValueError("unknown atomic operation %r" % (op,))
    ufunc.at(a, b, c)
    return a


class ScatterRun:
    """Result of one simulated scatter operation.

    Carries the produced array, the timing measurement, the metric store
    (:class:`~repro.sim.stats.Stats`), and -- when the :class:`Simulation`
    was created with ``sample_every`` or ``trace_requests`` -- the
    :class:`~repro.obs.session.Observation` holding per-component timelines
    and the sampled request spans.
    """

    #: Schema tag of the serialized form (:meth:`to_dict`).
    SCHEMA = RUN_SCHEMA

    def __init__(self, result, config, cycles, stats, mem_refs,
                 observation=None):
        self.result = result
        self.config = config
        self.cycles = cycles
        self.stats = stats
        self.mem_refs = mem_refs
        self.observation = observation
        # Populated on deserialized runs (see from_dict); live runs read
        # these from the observation instead.
        self._breakdown = None
        self._timelines = None
        self._observed = None

    @property
    def microseconds(self):
        return self.config.cycles_to_us(self.cycles)

    def bottlenecks(self, top=None):
        """Components ranked by busy fraction (see ``repro.harness.report``)."""
        from repro.harness.report import bottlenecks

        return bottlenecks(self.stats, self.cycles, config=self.config,
                           top=top)

    def latency_breakdown(self):
        """Per-stage latency attribution of the sampled requests.

        Requires ``Simulation(..., trace_requests=N)``.  Returns the
        queueing-vs-service table of
        :meth:`repro.obs.tracing.RequestTracer.breakdown`: one row per
        pipeline stage with count, total cycles, mean, p50/p90/p99 and
        share of end-to-end latency; per-stage cycle sums reconcile
        exactly with measured end-to-end latency.  On a deserialized run
        (:meth:`load` / :meth:`from_dict`) the table captured at
        serialization time is returned.
        """
        from repro.harness.report import latency_breakdown

        if self._breakdown is not None:
            return self._breakdown
        if self.observation is None:
            raise ValueError(
                "run was not request-traced; use "
                "Simulation(..., trace_requests=N)")
        for scope in self.observation.scopes:
            if scope.request_tracer is not None:
                return latency_breakdown(scope.request_tracer)
        raise ValueError(
            "run was not request-traced; use "
            "Simulation(..., trace_requests=N)")

    def write_trace(self, path):
        """Write a chrome://tracing JSON file for this run.

        Requires an observed run (``Simulation(..., sample_every=N)`` or
        ``trace_requests=N``): the trace holds its phase spans, counter
        tracks and request spans.
        """
        from repro.obs.export import write_chrome_trace

        if self.observation is None:
            raise ValueError(
                "run was not observed; use Simulation(..., sample_every=N) "
                "or Simulation(..., trace_requests=N)")
        return write_chrome_trace(path, self.observation)

    def write_metrics(self, path):
        """Write the machine-readable metrics.json for this run.

        The payload is derived from :meth:`to_dict`, the same serialized
        form :meth:`save` writes — so a reloaded run and the live run it
        mirrors emit byte-identical metrics.json, observed or not.
        """
        from repro.obs.export import run_metrics_payload, write_json

        return write_json(path, run_metrics_payload(self.to_dict()))

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self):
        """Lossless, JSON-serializable form of this run.

        Captures the result array, timing, every metric of the run's
        ``Stats`` (counters, gauges, histograms), the machine
        configuration, and — when the run was observed — sampled
        timelines, the request-latency attribution table and the
        observation settings (scope label, ``sample_every``,
        ``trace_requests``) its metrics.json records.
        :meth:`from_dict` restores an equivalent run:
        ``ScatterRun.from_dict(run.to_dict())`` round-trips exactly
        (float64 values survive via JSON's repr round-trip).
        """
        timelines = self._timelines
        breakdown = self._breakdown
        observed = self._observed
        if self.observation is not None:
            observed = {"label": self.observation.scopes[0].label,
                        "sample_every": self.observation.sample_every,
                        "trace_requests": self.observation.trace_requests}
            for scope in self.observation.scopes:
                if timelines is None and scope.sampler is not None:
                    timelines = {timeline.name: timeline.as_dict()
                                 for timeline in scope.timelines}
                if breakdown is None and scope.request_tracer is not None:
                    breakdown = scope.request_tracer.breakdown()
        snapshot = self.stats.snapshot()
        return {
            "schema": self.SCHEMA,
            "result": [float(value) for value in np.asarray(self.result).ravel()],
            "cycles": int(self.cycles),
            "microseconds": float(self.microseconds),
            "mem_refs": int(self.mem_refs),
            "stats": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "config": self.config.to_dict(),
            "timelines": timelines,
            "latency_breakdown": breakdown,
            "observed": observed,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a run from :meth:`to_dict` output."""
        if not isinstance(data, dict) or data.get("schema") != cls.SCHEMA:
            raise ValueError("not a serialized %s (schema %r != %r)"
                             % (cls.__name__,
                                data.get("schema") if isinstance(data, dict)
                                else type(data).__name__, cls.SCHEMA))
        stats = Stats.from_snapshot(data["stats"], data["gauges"],
                                    data["histograms"])
        run = cls(np.asarray(data["result"], dtype=np.float64),
                  MachineConfig.from_dict(data["config"]),
                  int(data["cycles"]), stats, int(data["mem_refs"]))
        run._breakdown = data.get("latency_breakdown")
        run._timelines = data.get("timelines")
        run._observed = data.get("observed")
        return run

    def save(self, path):
        """Write the serialized run (:meth:`to_dict`) as JSON to `path`."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        """Read a run written by :meth:`save`; exact round-trip."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self):
        return "ScatterRun(%d cycles, %.3f us)" % (
            self.cycles, self.microseconds,
        )


class Simulation:
    """Configured front door to the cycle-approximate hardware model.

    Parameters
    ----------
    config:
        :class:`~repro.config.MachineConfig` or a plain dict of its
        fields (see :meth:`MachineConfig.from_dict`); defaults to Table 1.
    chaining:
        Combining-store chaining (ablation handle; the hardware has it on).
    sample_every:
        When > 0, sample per-component occupancy/utilisation timelines
        every N cycles into ``run.observation``.
    trace_requests:
        When > 0, stamp one in every N application requests with a
        lifecycle trace (see :mod:`repro.obs.tracing`); the attribution
        table is available via :meth:`ScatterRun.latency_breakdown`, and
        the spans export with :meth:`ScatterRun.write_trace`.
    engine:
        Scheduler backend: ``"event"`` (default: wake/sleep event-driven,
        plus analytic collapse of uniform windows) or ``"legacy"``
        (tick-every-component reference); ``"columnar"`` and
        ``"fastforward"`` are aliases of ``"event"``.  ``None`` selects
        the default; an unknown name raises :class:`ValueError`.

    Every :meth:`run` builds a fresh processor (runs are independent and
    deterministic); the configuration and tuning knobs are shared.
    """

    _OPS = ("scatter_add", "scatter_min", "scatter_max", "scatter_mul",
            "fetch_add")

    def __init__(self, config=None, *, chaining=True, sample_every=0,
                 trace_requests=0, engine=None):
        if config is None:
            config = MachineConfig.table1()
        elif isinstance(config, dict):
            config = MachineConfig.from_dict(config)
        self.config = config
        self.chaining = chaining
        self.sample_every = sample_every
        self.trace_requests = trace_requests
        if engine is not None:
            check_scheduler(engine)
        self.engine = engine

    def _observe(self):
        """Context for one machine build: a private observation when this
        simulation observes (it shadows any ambient one), otherwise a
        no-op that leaves an ambient session in charge."""
        if not (self.sample_every or self.trace_requests):
            return contextlib.nullcontext()
        return observe(sample_every=self.sample_every,
                       trace_requests=self.trace_requests)

    def run(self, op, indices, values=1.0, *, num_targets=None, initial=None,
            base=0):
        """Simulate one scatter operation; returns a :class:`ScatterRun`.

        Parameters
        ----------
        op:
            ``"scatter_add"``, ``"scatter_min"``, ``"scatter_max"``,
            ``"scatter_mul"`` or ``"fetch_add"``.
        indices:
            Index array `b` (word offsets from `base`).
        values:
            Value array `c`, or a scalar for the constant-operand form.
        num_targets:
            Length of the target array `a` (default: ``max(indices) + 1``).
        initial:
            Initial contents of `a` (default zeros).  For min/max/mul the
            target should be initialised -- untouched memory reads as 0.0,
            which is not the operation identity.
        base:
            Word address of ``a[0]`` in simulated memory.

        ``run.result`` equals the matching reference function exactly.

        Multi-node configurations (``config.network.nodes > 1``) dispatch
        to :class:`~repro.multinode.system.MultiNodeSystem` and return a
        :class:`~repro.multinode.system.MultiNodeRun` — a
        :class:`ScatterRun` subclass, so callers treat both alike.
        Only ``"scatter_add"`` is supported across nodes.
        """
        from repro.node.agu import StreamMemOp

        if op not in self._OPS:
            raise ValueError("unsupported scatter operation %r" % (op,))
        indices = np.asarray(indices, dtype=np.int64)
        if num_targets is None:
            num_targets = int(indices.max()) + 1 if indices.size else 0
        _validate_indices(indices, num_targets)
        if self.config.nodes > 1:
            return self._run_multinode(op, indices, values,
                                       num_targets=num_targets,
                                       initial=initial, base=base)
        with self._observe() as observation:
            processor = StreamProcessor(self.config, chaining=self.chaining,
                                        engine=self.engine)
        if initial is not None:
            processor.load_array(base, np.asarray(initial, dtype=np.float64))
        if np.isscalar(values):
            op_values = float(values)
        else:
            op_values = np.asarray(values, dtype=np.float64)
        addrs = [base + int(i) for i in indices]
        if op == "scatter_add":
            stream_op = ScatterAdd(addrs, op_values)
        else:
            stream_op = StreamMemOp(op, addrs, op_values)
        program_result = processor.run(StreamProgram([Phase([stream_op])]))
        result = processor.read_result(base, num_targets)
        return ScatterRun(result, self.config, program_result.cycles,
                          program_result.stats, program_result.mem_refs,
                          observation=observation)

    def _run_multinode(self, op, indices, values, *, num_targets, initial,
                       base):
        """Run a scatter across a multi-node system (see :meth:`run`)."""
        from repro.multinode.system import MultiNodeSystem

        if op != "scatter_add":
            raise ValueError(
                "multi-node simulation supports op 'scatter_add', not %r"
                % (op,))
        with self._observe():
            system = MultiNodeSystem(self.config,
                                     address_space=base + num_targets,
                                     engine=self.engine,
                                     chaining=self.chaining)
        if initial is not None:
            system.load_array(base, np.asarray(initial, dtype=np.float64))
        return system.scatter_add(indices, values, num_targets=num_targets,
                                  base=base)

    def __repr__(self):
        return "Simulation(%r, chaining=%r)" % (self.config, self.chaining)
