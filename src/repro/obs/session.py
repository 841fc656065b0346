"""Observation sessions: attach metrics, sampling and tracing to a run.

An :class:`Observation` describes *what to observe* (sampling window,
request tracing); each simulator that runs while it is active attaches an
:class:`ObservationScope` carrying that simulator's request tracer,
timeline sampler and final statistics.  Scopes map 1:1 onto Chrome-trace
*processes* (the ``pid`` field), so a sweep that builds many processors
exports as a multi-process trace.

``with repro.obs.observe(...) as obs:`` installs a process-wide
session; every :class:`~repro.node.processor.StreamProcessor` and
:class:`~repro.multinode.system.MultiNodeSystem` constructed inside the
block attaches automatically.  This is how ``repro run figure8
--trace-out`` instruments experiment code without threading arguments
through every layer, and how ``Simulation(config, sample_every=64)``
observes the machine it builds (its private session shadows any ambient
one for that build).

When no session is active, nothing attaches and the simulation hot path
is untouched.
"""

from contextlib import contextmanager

from repro.obs.sampling import TimelineSampler, gather_probes
from repro.obs.tracing import RequestTracer

#: The ambient observation installed by :func:`observe`, or ``None``.
_ACTIVE = None


def active():
    """The ambient :class:`Observation`, or ``None`` when not observing."""
    return _ACTIVE


@contextmanager
def observe(sample_every=0, trace_requests=0):
    """Install an ambient observation for the duration of the block."""
    global _ACTIVE
    observation = Observation(sample_every=sample_every,
                              trace_requests=trace_requests)
    previous = _ACTIVE
    _ACTIVE = observation
    try:
        yield observation
    finally:
        _ACTIVE = previous


class PhaseSpan:
    """One completed span of work (a stream-program phase, a flush wave)."""

    __slots__ = ("name", "start", "duration")

    def __init__(self, name, start, duration):
        self.name = name
        self.start = start
        self.duration = duration

    def __repr__(self):
        return "PhaseSpan(%r, %d..%d)" % (
            self.name, self.start, self.start + self.duration)


class ObservationScope:
    """One simulator's slice of an observation (one trace ``pid``)."""

    def __init__(self, observation, pid, sim, stats, label, config=None):
        self.observation = observation
        self.pid = pid
        self.sim = sim
        self.stats = stats
        self.label = label or ("sim%d" % pid)
        self.config = config
        self.spans = []
        self.sampler = None
        self._cycles = None  # override for scopes detached from a simulator
        # Per-request lifecycle tracer (repro.obs.tracing): sampled 1-in-N
        # span tracing; None keeps every hot-path `trace is None` check a
        # single attribute load with no tracer object alive.
        self.request_tracer = None
        if observation.trace_requests:
            self.request_tracer = RequestTracer(observation.trace_requests,
                                                stats)

    def install_sampler(self):
        """Register the timeline sampler; call once components exist."""
        every = self.observation.sample_every
        if not every or self.sampler is not None:
            return
        probes = gather_probes(self.sim._components)
        if not probes:
            return
        self.sampler = TimelineSampler(every, probes,
                                       name=self.label + ".sampler")
        self.sim.register(self.sampler)
        # Live probes read intermediate state at every sampling boundary,
        # which an analytically collapsed window would skip over; window
        # collapse declines while a sampler is attached.
        self.sim.live_probes = True

    def flush_sampler(self, now):
        """Capture the final partial sampling window at quiescence."""
        if self.sampler is not None:
            self.sampler.flush(now)

    def span(self, name, start, duration):
        """Record a completed span for the trace exporter."""
        self.spans.append(PhaseSpan(name, start, duration))

    @property
    def timelines(self):
        return self.sampler.timelines if self.sampler is not None else []

    @property
    def cycles(self):
        if self._cycles is not None:
            return self._cycles
        return self.sim.cycle if self.sim is not None else 0

    def __repr__(self):
        return "ObservationScope(pid=%d, %r)" % (self.pid, self.label)


class Observation:
    """What to observe, plus every scope collected while observing."""

    def __init__(self, sample_every=0, trace_requests=0):
        self.sample_every = int(sample_every or 0)
        #: Sample one request in every N for lifecycle span tracing
        #: (0 = off; see repro.obs.tracing).
        self.trace_requests = int(trace_requests or 0)
        self.scopes = []

    def attach(self, sim, stats, label="", config=None):
        """Create a scope for one simulator; returns it."""
        scope = ObservationScope(self, len(self.scopes), sim, stats, label,
                                 config=config)
        self.scopes.append(scope)
        return scope

    def __repr__(self):
        return ("Observation(sample_every=%d, trace_requests=%d, %d scopes)"
                % (self.sample_every, self.trace_requests, len(self.scopes)))
