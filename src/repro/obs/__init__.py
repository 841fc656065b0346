"""``repro.obs`` -- the observability subsystem.

Structured measurement for the simulator, layered on the event engine:

- :mod:`~repro.obs.metrics` -- the metric types (counters, gauges,
  fixed-bucket histograms) that :class:`~repro.sim.stats.Stats` owns;
- :mod:`~repro.obs.sampling` -- cycle-window :class:`TimelineSampler`
  producing per-component occupancy/utilization timelines;
- :mod:`~repro.obs.tracing` -- sampled per-request lifecycle spans
  (:class:`RequestTracer`, ``--trace-requests N``) and the
  queueing-vs-service latency attribution table;
- :mod:`~repro.obs.session` -- :func:`observe` context manager and
  :class:`Observation` scopes that attach all of the above to running
  simulators;
- :mod:`~repro.obs.export` -- Chrome-trace and ``metrics.json`` exporters
  plus their validators (the CI artifact gate,
  ``python -m repro.obs.validate``).

See the "Observability" section of ``docs/ARCHITECTURE.md``.
"""

from repro.obs.export import (
    METRICS_SCHEMA,
    chrome_trace_events,
    metrics_payload,
    validate_chrome_trace,
    validate_metrics,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.sampling import Timeline, TimelineSampler, gather_probes
from repro.obs.session import Observation, ObservationScope, active, observe
from repro.obs.tracing import RequestTrace, RequestTracer, Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "Observation",
    "ObservationScope",
    "RequestTrace",
    "RequestTracer",
    "Span",
    "Timeline",
    "TimelineSampler",
    "active",
    "chrome_trace_events",
    "gather_probes",
    "metrics_payload",
    "observe",
    "validate_chrome_trace",
    "validate_metrics",
    "write_chrome_trace",
    "write_metrics",
]
