"""Typed metrics: counters, gauges and fixed-bucket histograms.

The metric types :class:`~repro.sim.stats.Stats` hands out.  Components
create their handles once (at construction, via ``stats.counter(name)``,
``stats.gauge(name)`` and ``stats.histogram(name, edges)``) and update them
on the hot path:

- :class:`Counter` -- monotonically increasing event count.  A counter's
  value lives in the owning ``Stats``' counter dict under its name, so
  ``Stats.as_dict()`` lists it beside counters bumped with ``stats.add``.
- :class:`Gauge` -- a point-in-time value (peak occupancy, capacity).
  Gauges are exported via ``metrics.json`` but are not counters.
- :class:`Histogram` -- a distribution over *fixed* bucket edges chosen at
  creation time (e.g. combining-store occupancy at each atomic accept).
  Buckets use less-or-equal semantics: ``counts[i]`` counts observations
  ``<= edges[i]``; the final bucket is the ``+inf`` overflow.
"""

from bisect import bisect_left


class Counter:
    """Monotonic event counter; its value lives in the ``Stats`` dict."""

    __slots__ = ("name", "_counters")

    def __init__(self, name, counters):
        self.name = name
        self._counters = counters

    def inc(self, amount=1):
        """Increment by `amount` (1 if omitted)."""
        self._counters[self.name] += amount

    @property
    def value(self):
        return self._counters.get(self.name, 0)

    def __repr__(self):
        return "Counter(%r, %s)" % (self.name, self.value)


class Gauge:
    """A point-in-time value (not a counter)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def maximum(self, value):
        """Keep the running maximum of all `value`s seen."""
        if value > self.value:
            self.value = value

    def __repr__(self):
        return "Gauge(%r, %s)" % (self.name, self.value)


class Histogram:
    """Fixed-bucket histogram with less-or-equal bucket semantics."""

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(self, name, edges):
        edges = tuple(edges)
        if not edges:
            raise ValueError("histogram %r needs at least one bucket edge"
                             % (name,))
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram %r edges must strictly increase: %r"
                             % (name, edges))
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # last bucket = overflow
        self.total = 0
        self.sum = 0.0

    def observe(self, value, n=1):
        """Record `value` occurring `n` times."""
        self.counts[bisect_left(self.edges, value)] += n
        self.total += n
        self.sum += value * n

    @property
    def mean(self):
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q):
        """The `q`-th percentile (0..100), interpolated from bucket edges.

        Observations are only known up to their bucket, so the value is
        linearly interpolated between the bucket's lower and upper edge.
        The first bucket interpolates from 0 (or its edge, if negative);
        the overflow bucket has no upper edge and clamps to the last one.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % (q,))
        if not self.total:
            return 0.0
        target = self.total * (q / 100.0)
        cumulative = 0
        for index, count in enumerate(self.counts):
            previous = cumulative
            cumulative += count
            if count and cumulative >= target:
                if index >= len(self.edges):  # overflow: upper edge unknown
                    return float(self.edges[-1])
                upper = float(self.edges[index])
                lower = (float(self.edges[index - 1]) if index
                         else min(0.0, upper))
                return lower + (upper - lower) * (target - previous) / count
        return float(self.edges[-1])

    def merge(self, other):
        """Accumulate another histogram with identical edges."""
        if other.edges != self.edges:
            raise ValueError(
                "cannot merge histogram %r: edges %r != %r"
                % (self.name, other.edges, self.edges)
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum

    def as_dict(self):
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self):
        return "Histogram(%r, %d observations)" % (self.name, self.total)
