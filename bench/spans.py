"""Host-time self time per simulator layer, measured from outside.

:class:`LayerTracer` wraps the public entry points of each layer while it
is installed: the ``tick`` of every :class:`~repro.sim.engine.Component`
subclass (layer = the module that defines it, e.g. ``core.unit``),
``Simulator.run``, ``PipelineFastForward.attempt`` and the
``StreamProcessor``/``MultiNodeSystem`` constructors.  A span stack turns
the nested calls into self time: a span's duration minus the part its
child spans cover.  Time inside the traced call that no layer span covers
is "untracked", so the layer self times plus the untracked time add up to
the traced wall time.

Spans are kept as per-layer sums in memory.  For the host-time Chrome
trace, the coarse layers (engine runs, fast-forward attempts, machine
construction) are kept as individual spans, and component ticks, which
are far too many to keep, are folded into one counter event per
:data:`SAMPLE_S` window that shows each layer's self time in that window.
"""

import time

from repro.multinode.system import MultiNodeSystem
from repro.node.processor import StreamProcessor
from repro.sim.engine import Component, Simulator
from repro.sim.fastforward import PipelineFastForward

#: Host seconds per counter window of the Chrome trace.
SAMPLE_S = 0.01

#: Coarse entry points: (class, method, layer).  Their spans are kept.
ENTRY_POINTS = (
    (Simulator, "run", "sim.engine"),
    (PipelineFastForward, "attempt", "sim.fastforward"),
    (StreamProcessor, "__init__", "machine.init"),
    (MultiNodeSystem, "__init__", "machine.init"),
)


def component_classes():
    """Every loaded Component subclass that defines its own ``tick``."""
    found, pending = [], list(Component.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "tick" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def layer_of(cls):
    """Layer name of a component class: its module without ``repro.``."""
    module = cls.__module__
    return module[len("repro."):] if module.startswith("repro.") else module


class LayerTracer:
    """Install with ``with tracer:``; measure a call with :meth:`call`."""

    def __init__(self):
        self.layers = []  # slot -> layer name
        self._slot = {}
        self._tick_slots = []
        self.self_s = []
        self.calls = []
        self.wall_s = 0.0
        self.untracked_s = 0.0
        self.spans = []  # (layer, start, duration) of coarse layers
        self.samples = []  # (time, {layer: self seconds in window})
        self._stack = [0.0]
        self._next_sample = [float("inf")]
        self._window = None
        self._origin = 0.0
        self._patched = []

    # ------------------------------------------------------------------ #
    def _slot_of(self, layer):
        if layer not in self._slot:
            self._slot[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._slot[layer]

    def _patch(self, cls, method, wrapper):
        self._patched.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    def __enter__(self):
        if self._patched:
            raise RuntimeError("LayerTracer is already installed")
        for cls, method, layer in ENTRY_POINTS:
            self._patch(cls, method,
                        self._wrap(cls.__dict__[method], layer, keep=True))
        for cls in component_classes():
            self._patch(cls, "tick",
                        self._wrap(cls.__dict__["tick"], layer_of(cls),
                                   keep=False))
        return self

    def __exit__(self, *exc):
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)
        return False

    def _wrap(self, fn, layer, keep):
        slot = self._slot_of(layer)
        if not keep and slot not in self._tick_slots:
            self._tick_slots.append(slot)
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        next_sample = self._next_sample
        sample = self._sample

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                own = elapsed - stack.pop()
                self_s[slot] += own
                calls[slot] += 1
                stack[-1] += elapsed
                if keep:
                    spans.append((layer, start, elapsed))
                if end >= next_sample[0]:
                    sample(end)

        return traced

    # ------------------------------------------------------------------ #
    def call(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as the root span; returns its result."""
        if not self._patched:
            raise RuntimeError("install the tracer (with tracer:) first")
        clock = time.perf_counter
        self._stack[:] = [0.0]
        self._origin = clock()
        self._window = (self._origin, list(self.self_s))
        self._next_sample[0] = self._origin + SAMPLE_S
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._next_sample[0] = float("inf")
            self._sample(end)
            self.wall_s += end - start
            self.untracked_s += (end - start) - self._stack[0]

    def _sample(self, now):
        """Close the current counter window at `now`."""
        since, before = self._window
        delta = {self.layers[slot]: self.self_s[slot] - before[slot]
                 for slot in self._tick_slots}
        # Engine loop, fast-forward, construction and untracked time: the
        # coarse spans split it, and they only close at their end.
        delta["outside ticks"] = max(0.0, (now - since) - sum(delta.values()))
        self.samples.append((since, delta))
        self._window = (now, list(self.self_s))
        self._next_sample[0] = now + SAMPLE_S

    # ------------------------------------------------------------------ #
    def summary(self):
        """``{layer: {"self_s": s, "calls": n}}`` for every layer entered."""
        return {layer: {"self_s": self.self_s[slot],
                        "calls": self.calls[slot]}
                for slot, layer in enumerate(self.layers)
                if self.calls[slot]}

    def chrome_trace(self, label):
        """The traced calls as a Chrome trace (``chrome://tracing``)."""
        origin = self._origin

        def us(seconds):
            return round((seconds - origin) * 1e6, 3)

        events = [{"name": "process_name", "ph": "M", "ts": 0, "pid": 1,
                   "args": {"name": label}}]
        events.extend({"name": layer, "cat": "layer", "ph": "X",
                       "ts": us(start), "dur": round(elapsed * 1e6, 3),
                       "pid": 1, "tid": 1}
                      for layer, start, elapsed in self.spans)
        for since, delta in self.samples:
            events.append({
                "name": "self ms per layer", "ph": "C", "ts": us(since),
                "pid": 1,
                "args": {layer: round(seconds * 1e3, 6)
                         for layer, seconds in delta.items() if seconds},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
