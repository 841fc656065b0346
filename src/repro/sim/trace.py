"""Event tracing for simulation debugging.

A :class:`TraceLog` collects timestamped, named events from components
that choose to emit them.  Tracing is off by default and costs one
attribute check per emit when disabled, so models can leave trace hooks
in place permanently.

Usage::

    trace = TraceLog(enabled=True)
    trace.emit(cycle, "sau0", "combine", addr=17, value=1.0)
    for event in trace.filter(component="sau0", kind="combine"):
        ...
    print(trace.render(limit=20))
"""


class TraceEvent:
    """One timestamped simulation event."""

    __slots__ = ("cycle", "component", "kind", "fields")

    def __init__(self, cycle, component, kind, fields):
        self.cycle = cycle
        self.component = component
        self.kind = kind
        self.fields = fields

    def __repr__(self):
        details = " ".join("%s=%r" % item for item in self.fields.items())
        return "[%6d] %-16s %-12s %s" % (
            self.cycle, self.component, self.kind, details)


class TraceLog:
    """A bounded in-memory log of simulation events.

    Events past `capacity` are dropped (never silently: the drop count is
    kept on :attr:`dropped`, mirrored to the ``trace.dropped`` counter of
    the `stats` bag when one is attached, and shown in the
    :meth:`render` footer).
    """

    def __init__(self, enabled=False, capacity=100_000, stats=None):
        self.enabled = enabled
        self.capacity = capacity
        self.stats = stats
        self.events = []
        self.dropped = 0

    def emit(self, cycle, component, kind, **fields):
        """Record one event (no-op unless enabled)."""
        if not self.enabled:
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            if self.stats is not None:
                self.stats.add("trace.dropped")
            return
        self.events.append(TraceEvent(cycle, component, kind, fields))

    def filter(self, component=None, kind=None, since=None, until=None):
        """Events matching every given criterion, in emission order."""
        for event in self.events:
            if component is not None and event.component != component:
                continue
            if kind is not None and event.kind != kind:
                continue
            if since is not None and event.cycle < since:
                continue
            if until is not None and event.cycle > until:
                continue
            yield event

    def render(self, limit=None, **criteria):
        """Human-readable listing (optionally filtered and truncated)."""
        lines = []
        for index, event in enumerate(self.filter(**criteria)):
            if limit is not None and index >= limit:
                lines.append("... (truncated)")
                break
            lines.append(repr(event))
        if self.dropped:
            lines.append("(%d events dropped at capacity %d)"
                         % (self.dropped, self.capacity))
        return "\n".join(lines)

    def __len__(self):
        return len(self.events)
