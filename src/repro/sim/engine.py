"""The event-aware cycle-driven simulation engine.

A :class:`Simulator` owns a set of :class:`Component` instances and the
:class:`~repro.sim.queues.FIFO`/:class:`~repro.sim.queues.LatencyPipe`
channels connecting them.  Semantically each simulated cycle:

1. advances every registered pipe (releasing entries whose latency elapsed),
2. calls ``tick(cycle)`` on every component in registration order,
3. syncs every FIFO (committing staged pushes for next-cycle visibility).

The run terminates when every component reports idle and every channel is
empty, or when an explicit cycle bound is reached.

Two schedulers implement those semantics:

``"legacy"``
    The literal loop above (:meth:`Simulator.step_all`): every component
    ticks every cycle and quiescence is a full O(n) rescan.

``"event"`` (the default)
    Cycle-identical, but idle components are skipped.  Components declare
    when they next need to run (:meth:`Component.next_wake`), channels wake
    their readers on pushes and their writers when a full queue frees, and
    the clock jumps over globally-idle gaps.  Quiescence is O(1) via
    incrementally maintained busy/occupancy counters.  Because the legacy
    scheduler ticks *everything every cycle*, an extra wake is always
    harmless; only a skipped tick could diverge, and a component is only
    skipped when its tick is provably a no-op (no state change, no stats,
    no pushes).  It also *collapses uniform windows*: when a caller proves
    a span of cycles uniform (see :mod:`repro.sim.fastforward`), it
    executes the span with max-plus recurrences and jumps the clock with
    :meth:`Simulator.collapse_window`; declined spans step as above.  The
    golden equivalence suite (``tests/sim/test_scheduler_equivalence.py``)
    pins cycles, stats and results to legacy with and without collapse.

``"columnar"`` and ``"fastforward"`` are aliases of ``"event"``: the names
of retired engines, kept because the benchmark still times them.

Select a scheduler per :class:`Simulator` (``Simulator(scheduler=...)``),
process-wide via the ``REPRO_SCHEDULER`` environment variable, or
temporarily with :func:`use_scheduler`.
"""

import os
from contextlib import contextmanager
from heapq import heappop, heappush

SCHEDULERS = ("event", "legacy", "columnar", "fastforward")

#: Retired engine names that now run ``"event"``.  ``bench/run.py`` times
#: every name in :data:`SCHEDULERS` and ``BENCHMARK.json`` lists metrics
#: under both, so the names stay until the benchmark stops using them.
_ALIASES = ("columnar", "fastforward")

#: Scheduler used by Simulators constructed without an explicit choice.
DEFAULT_SCHEDULER = os.environ.get("REPRO_SCHEDULER", "event")

#: Window collapse under ``"event"``.  Only :func:`_stepping` clears it,
#: so tests and ``repro bench`` can pin and time the stepping loop alone.
_COLLAPSE = True


def check_scheduler(name):
    """Validate a scheduler name; returns the scheduler it runs."""
    if name not in SCHEDULERS:
        raise ValueError(
            "unknown scheduler %r; expected one of %s" % (name, SCHEDULERS)
        )
    return "event" if name in _ALIASES else name


@contextmanager
def use_scheduler(name):
    """Temporarily change the default scheduler (tests, benchmarks)."""
    global DEFAULT_SCHEDULER
    check_scheduler(name)
    previous = DEFAULT_SCHEDULER
    DEFAULT_SCHEDULER = name
    try:
        yield
    finally:
        DEFAULT_SCHEDULER = previous


@contextmanager
def _stepping():
    """Default to ``"event"`` without window collapse (tests, bench)."""
    global _COLLAPSE
    previous = _COLLAPSE
    _COLLAPSE = False
    try:
        with use_scheduler("event"):
            yield
    finally:
        _COLLAPSE = previous


def _name_list(names, cap=8):
    """`names` joined for an error message: at most `cap`, then a count."""
    if not names:
        return "none"
    shown = ", ".join(names[:cap])
    if len(names) > cap:
        shown += " and %d more" % (len(names) - cap)
    return shown


class SimulationError(RuntimeError):
    """Raised when a simulation reaches an inconsistent or unbounded state."""


class Component:
    """Base class for all simulated hardware blocks.

    Subclasses override :meth:`tick` (do one cycle of work) and
    :attr:`busy` (report whether internal work is pending).  Queue state is
    tracked separately by the simulator, so ``busy`` only needs to cover
    state held *inside* the component (e.g. an occupied combining store).

    ``busy`` must only change inside the component's own :meth:`tick` (or
    between runs); the event scheduler maintains its quiescence count by
    diffing ``busy`` across ticks.

    The wake/sleep protocol is opt-in: the default :meth:`next_wake`
    requests a tick every cycle, which reproduces legacy behaviour exactly.
    A component that can prove its tick is a no-op while asleep may return
    the next cycle it needs (or ``None`` for "only wake me on channel
    activity"), and should declare its input channels with :meth:`watch`
    (wake on data arrival) and its blocked-on-full output channels with
    :meth:`feeds` (wake when space frees).
    """

    def __init__(self, name=""):
        self.name = name or type(self).__name__
        self._sim = None
        self._order = 0
        self._wake_sched = None  # earliest heap entry cycle still valid
        self._deferred_wake = None  # wake request masked by a pending tick
        self._last_busy = False

    def tick(self, now):
        """Perform one cycle of work at cycle `now`."""
        raise NotImplementedError

    @property
    def busy(self):
        """True while the component holds in-flight internal state."""
        return False

    def next_wake(self, now):
        """Next cycle this component must tick, or ``None`` to sleep.

        Called by the event scheduler right after :meth:`tick`.  Returning
        a cycle ``<= now`` schedules the next cycle.  While asleep the
        component is still woken by activity on watched/fed channels.
        """
        return now + 1

    def wake_at(self, cycle):
        """Request a tick at `cycle` (idempotent; earliest request wins)."""
        if self._sim is not None:
            self._sim._wake(self, cycle)

    def watch(self, *channels):
        """Wake this component when data arrives on any of `channels`."""
        for channel in channels:
            channel._readers.append(self)

    def feeds(self, *channels):
        """Wake this component when space frees in any full `channels`."""
        for channel in channels:
            channel._writers.append(self)

    def obs_probes(self):
        """Sampling probes for the observability timeline sampler.

        Returns an iterable of ``(suffix, fn)`` pairs where ``fn(now)``
        reads one instantaneous occupancy/utilization value.  Probes are
        only called at sampling-window boundaries while an observation
        with ``sample_every`` is attached, so they may be arbitrarily
        informative without taxing the hot path.
        """
        return ()

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)


class Simulator:
    """Owns components and channels; advances simulated time.

    Parameters
    ----------
    max_cycles:
        Safety bound; a run exceeding it raises :class:`SimulationError`
        rather than looping forever (the usual symptom of a deadlocked
        back-pressure cycle in a model under development).
    scheduler:
        ``"event"`` (idle-skip plus analytic collapse of uniform windows,
        the default) or ``"legacy"`` (tick every component every cycle);
        ``"columnar"`` and ``"fastforward"`` are aliases of ``"event"``.
        ``None`` resolves against :data:`DEFAULT_SCHEDULER`; any other
        name raises :class:`ValueError`.
    """

    def __init__(self, max_cycles=200_000_000, scheduler=None):
        self.max_cycles = max_cycles
        self.scheduler = check_scheduler(
            scheduler if scheduler is not None else DEFAULT_SCHEDULER
        )
        self.cycle = 0
        self._components = []
        self._fifos = []
        self._pipes = []
        self._wake_heap = []  # (cycle, registration order, component)
        self._dirty_fifos = []  # fifos with staged pushes this cycle
        self._busy_count = 0  # components currently reporting busy
        self._active_channels = 0  # non-idle fifos + pipes
        self._processing_order = -1  # order of the component mid-tick
        #: :mod:`repro.sim.fastforward` only attempts analytic window
        #: collapse when this is set; declined windows step as usual.
        self._collapse = _COLLAPSE and self.scheduler == "event"
        #: Set by the observability layer when live sampling probes are
        #: installed; window collapse then declines, so the probes read
        #: intermediate state at every sampling boundary.
        self.live_probes = False
        # Observability counters (surfaced as "engine.*" stats).
        self.ticks_executed = 0
        self.ticks_skipped = 0
        self.cycles_executed = 0
        self.cycles_fast_forwarded = 0
        self.windows_collapsed = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def register(self, component):
        """Add a component; returns it for chaining."""
        component._sim = self
        component._order = len(self._components)
        self._components.append(component)
        return component

    def fifo(self, capacity=None, name=""):
        """Create and register a FIFO owned by this simulator."""
        from repro.sim.queues import FIFO

        queue = FIFO(capacity=capacity, name=name)
        queue._engine = self
        self._fifos.append(queue)
        return queue

    def pipe(self, latency, bandwidth=None, name=""):
        """Create and register a latency pipe owned by this simulator."""
        from repro.sim.queues import LatencyPipe

        pipe = LatencyPipe(latency, bandwidth=bandwidth, name=name)
        pipe._engine = self
        self._pipes.append(pipe)
        return pipe

    def adopt_fifo(self, queue):
        """Register an externally-constructed FIFO for syncing."""
        queue._engine = self
        self._fifos.append(queue)
        return queue

    def adopt_pipe(self, pipe):
        """Register an externally-constructed pipe for advancing."""
        pipe._engine = self
        self._pipes.append(pipe)
        return pipe

    # ------------------------------------------------------------------ #
    # quiescence
    # ------------------------------------------------------------------ #
    @property
    def quiescent(self):
        """True when no component or channel holds pending work."""
        if any(component.busy for component in self._components):
            return False
        if any(not queue.idle for queue in self._fifos):
            return False
        return all(pipe.idle for pipe in self._pipes)

    # ------------------------------------------------------------------ #
    # wake/sleep bookkeeping (event scheduler)
    # ------------------------------------------------------------------ #
    def _wake(self, component, cycle):
        """Schedule `component` to tick at `cycle` (earliest request wins)."""
        sched = component._wake_sched
        if sched is not None and sched <= cycle:
            if sched == self.cycle and cycle > sched:
                # The component still has a pending tick *this* cycle whose
                # post-tick ``next_wake`` result would supersede (and lose)
                # this future request -- e.g. an earlier-ordered producer
                # staging a push the reader's tick cannot see yet.  Park it;
                # the stepper merges it in after the pending tick runs.
                deferred = component._deferred_wake
                if deferred is None or cycle < deferred:
                    component._deferred_wake = cycle
            return
        if sched is not None and cycle == self.cycle:
            # The inverse hazard: a tick-this-cycle request (a same-cycle
            # freed-slot wake) supersedes an already-scheduled future wake.
            # That future request may encode a staged push the post-tick
            # ``next_wake`` cannot see yet, so park it too.
            deferred = component._deferred_wake
            if deferred is None or sched < deferred:
                component._deferred_wake = sched
        component._wake_sched = cycle
        heappush(self._wake_heap, (cycle, component._order, component))

    def _fifo_pushed(self, fifo, was_idle):
        if not fifo._dirty:
            fifo._dirty = True
            self._dirty_fifos.append(fifo)
        if was_idle:
            self._active_channels += 1
        wake_cycle = self.cycle + 1  # staged pushes are visible next cycle
        for reader in fifo._readers:
            self._wake(reader, wake_cycle)

    def _fifo_popped(self, fifo, was_full, idle_now):
        if idle_now:
            self._active_channels -= 1
        if was_full and fifo._writers:
            # A writer later in this cycle's registration order observes
            # the freed slot this very cycle (as under the legacy
            # stepper); earlier writers only see it next cycle.
            now = self.cycle
            order = self._processing_order
            for writer in fifo._writers:
                self._wake(writer, now if writer._order > order else now + 1)

    def _pipe_pushed(self, pipe, was_idle, ready_cycle):
        if was_idle:
            self._active_channels += 1
        wake_cycle = self.cycle + 1
        if ready_cycle > wake_cycle:
            wake_cycle = ready_cycle
        for reader in pipe._readers:
            self._wake(reader, wake_cycle)

    def _pipe_popped(self, pipe, idle_now):
        if idle_now:
            self._active_channels -= 1

    def _arm(self):
        """Reset the scheduler state to match the world as it is now.

        Called at every ``run()`` entry: external code (tests, AGU
        ``start()``, flush requests) may have mutated component state or
        pushed into channels since the last run, so the quiescence
        counters are recomputed from scratch and every component gets one
        wake at the current cycle (always safe -- the legacy stepper ticks
        everything every cycle; sleepers re-sleep via ``next_wake``).
        """
        busy = 0
        for component in self._components:
            is_busy = bool(component.busy)
            component._last_busy = is_busy
            if is_busy:
                busy += 1
        self._busy_count = busy
        self._active_channels = sum(
            1 for queue in self._fifos if not queue.idle
        ) + sum(1 for pipe in self._pipes if not pipe.idle)
        now = self.cycle
        for component in self._components:
            component._wake_sched = None
            component._deferred_wake = None
            self._wake(component, now)

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step_all(self):
        """Advance exactly one cycle, ticking every component (legacy)."""
        now = self.cycle
        for pipe in self._pipes:
            pipe.advance(now)
        for component in self._components:
            component.tick(now)
        for queue in self._fifos:
            queue.sync()
            queue._dirty = False
        del self._dirty_fifos[:]
        self.cycle = now + 1
        self.cycles_executed += 1
        self.ticks_executed += len(self._components)

    #: Historic name for the full step; kept as the public single-step API.
    step = step_all

    def _step_event(self):
        """Execute one cycle, ticking only components scheduled for it."""
        now = self.cycle
        for pipe in self._pipes:
            pipe.advance(now)
        heap = self._wake_heap
        ticked = 0
        while heap and heap[0][0] == now:
            __, order, component = heappop(heap)
            if component._wake_sched != now:
                continue  # lazy deletion: superseded by an earlier wake
            component._wake_sched = None
            self._processing_order = order
            component.tick(now)
            ticked += 1
            is_busy = bool(component.busy)
            if is_busy != component._last_busy:
                self._busy_count += 1 if is_busy else -1
                component._last_busy = is_busy
            wake = component.next_wake(now)
            deferred = component._deferred_wake
            if deferred is not None:
                component._deferred_wake = None
                if wake is None or deferred < wake:
                    wake = deferred
            if wake is not None:
                self._wake(component, wake if wake > now else now + 1)
        self._processing_order = -1
        dirty = self._dirty_fifos
        if dirty:
            for fifo in dirty:
                fifo.sync()
                fifo._dirty = False
            del dirty[:]
        self.cycle = now + 1
        self.cycles_executed += 1
        self.ticks_executed += ticked
        self.ticks_skipped += len(self._components) - ticked

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(self, until=None):
        """Run until quiescent (or until cycle `until`); return final cycle.

        The returned value is the cycle count at which the system was first
        observed quiescent, i.e. the execution time of the work fed into the
        model before the call.  Asking for a bound beyond the safety limit
        is a caller error and raises :class:`ValueError` up front.
        """
        if until is not None and until > self.max_cycles:
            raise ValueError(
                "run(until=%d) exceeds max_cycles=%d; raise max_cycles if "
                "a longer run is intended" % (until, self.max_cycles)
            )
        bound = self.max_cycles if until is None else until
        if self.scheduler == "legacy":
            return self._run_legacy(bound, until)
        return self._run_event(bound, until)

    def _run_legacy(self, bound, until):
        while self.cycle < bound:
            if self.quiescent:
                return self.cycle
            self.step_all()
        if until is not None and self.cycle >= until:
            return self.cycle
        raise self._deadlock()

    def _run_event(self, bound, until):
        self._arm()
        heap = self._wake_heap
        while True:
            if self._busy_count == 0 and self._active_channels == 0:
                return self.cycle  # quiescent
            if self.cycle >= bound:
                break
            target = None
            while heap:
                cycle, __, component = heap[0]
                if component._wake_sched != cycle:
                    heappop(heap)  # stale entry
                    continue
                target = cycle
                break
            if target is None or target >= bound:
                # Non-quiescent but nothing scheduled before the bound:
                # every remaining cycle is a provable no-op; jump to the
                # bound exactly as the legacy stepper would grind to it.
                self.cycles_fast_forwarded += bound - self.cycle
                self.cycle = bound
                break
            if target > self.cycle:
                self.cycles_fast_forwarded += target - self.cycle
                self.cycle = target
            self._step_event()
        if until is not None and self.cycle >= until:
            return self.cycle
        raise self._deadlock()

    def _deadlock(self):
        """The error for a run that hit ``max_cycles``, naming what is stuck."""
        busy = [component.name for component in self._components
                if component.busy]
        channels = ["%s (%d)" % (channel.name, channel.occupancy)
                    for channel in self._fifos + self._pipes
                    if not channel.idle]
        return SimulationError(
            "simulation exceeded max_cycles=%d without quiescing; "
            "likely a back-pressure deadlock or unbounded request source; "
            "busy components: %s; non-idle channels: %s"
            % (self.max_cycles, _name_list(busy), _name_list(channels))
        )

    def collapse_window(self, end_cycle):
        """Jump the clock over an analytically-executed uniform window.

        The caller (see :mod:`repro.sim.fastforward`) has already produced
        every observable effect of the window -- counters, memory state,
        component end states -- exactly as stepping would have, so the
        engine merely advances time and accounts the skip.
        """
        if end_cycle < self.cycle:
            raise ValueError(
                "collapse_window(%d) would move time backwards from %d"
                % (end_cycle, self.cycle))
        self.cycles_fast_forwarded += end_cycle - self.cycle
        self.windows_collapsed += 1
        self.cycle = end_cycle
        return end_cycle

    def run_cycles(self, count):
        """Advance exactly `count` cycles regardless of quiescence.

        Always full-steps (legacy semantics): callers use this to observe
        per-cycle behaviour, so every component ticks every cycle.
        """
        for _ in range(count):
            self.step_all()
        return self.cycle

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def engine_counters(self):
        """Scheduler work counters as a plain dict (see ``Stats.record_engine``)."""
        return {
            "scheduler_event": 1 if self.scheduler == "event" else 0,
            "cycles_executed": self.cycles_executed,
            "cycles_fast_forwarded": self.cycles_fast_forwarded,
            "windows_collapsed": self.windows_collapsed,
            "ticks_executed": self.ticks_executed,
            "ticks_skipped": self.ticks_skipped,
        }
