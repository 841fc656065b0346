"""The one metric store shared by all simulated components.

A single :class:`Stats` object is threaded through a model and owns every
metric of the run, by dotted name: counters, gauges and fixed-bucket
histograms (the types live in :mod:`repro.obs.metrics`).  Components
obtain handles once at construction (``stats.counter("dram.reads")``,
``stats.gauge(...)``, ``stats.histogram(...)``) and bump them on the hot
path; a counter handle's ``inc`` is one add into the counter dict, which
:meth:`add` also writes.  Counters are plain integers/floats; the
experiment harness reads them to report the paper's "FP Operations" and
"Mem References" bars (Figures 9 and 10).  :meth:`snapshot` exports all
three kinds for ``metrics.json`` and saved runs; :meth:`from_snapshot`
restores them.
"""

from collections import defaultdict

from repro.obs.metrics import Counter, Gauge, Histogram


class Stats:
    """Counters, gauges and histograms of one run, by dotted name."""

    def __init__(self):
        self._counters = defaultdict(float)
        self._counter_handles = {}
        self._gauges = {}
        self._histograms = {}

    # --- typed handles ----------------------------------------------------
    def counter(self, name):
        """Get (or create) the counter handle called `name`."""
        handle = self._counter_handles.get(name)
        if handle is None:
            handle = Counter(name, self._counters)
            self._counter_handles[name] = handle
        return handle

    def gauge(self, name):
        """Get (or create) the gauge called `name`."""
        handle = self._gauges.get(name)
        if handle is None:
            handle = Gauge(name)
            self._gauges[name] = handle
        return handle

    def histogram(self, name, edges=None):
        """Get (or create) the histogram called `name` with fixed `edges`.

        Edges are required on first use; re-requesting with different
        edges is a programming error.
        """
        handle = self._histograms.get(name)
        if handle is None:
            if edges is None:
                raise ValueError("histogram %r does not exist yet; edges "
                                 "are required to create it" % (name,))
            handle = Histogram(name, edges)
            self._histograms[name] = handle
        elif edges is not None and tuple(edges) != handle.edges:
            raise ValueError(
                "histogram %r already exists with edges %r (requested %r)"
                % (name, handle.edges, tuple(edges))
            )
        return handle

    # --- counters -----------------------------------------------------------

    def add(self, name, amount=1):
        """Increment counter `name` by `amount`."""
        self._counters[name] += amount

    def set(self, name, value):
        """Set counter `name` to `value` exactly."""
        self._counters[name] = value

    def get(self, name, default=0):
        """Read counter `name` (0 if never touched)."""
        return self._counters.get(name, default)

    def __getitem__(self, name):
        return self._counters.get(name, 0)

    def __contains__(self, name):
        return name in self._counters

    def record_engine(self, sim):
        """Snapshot a simulator's scheduler counters under ``engine.*``.

        Uses :meth:`set` (not :meth:`add`): the simulator's counters are
        cumulative, so re-recording after a later run phase overwrites the
        snapshot with the new totals.
        """
        for key, value in sim.engine_counters().items():
            self.set("engine." + key, value)
        return self

    def merge(self, other):
        """Fold every metric of `other` into this object.

        Counters add, gauges keep the maximum and histograms (which must
        share edges) accumulate.
        """
        for name, value in other._counters.items():
            self._counters[name] += value
        for name, gauge in other._gauges.items():
            self.gauge(name).maximum(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram.edges).merge(histogram)
        return self

    def as_dict(self):
        """The counters as a plain dict."""
        return dict(self._counters)

    def snapshot(self):
        """Plain-dict export of every metric, for ``metrics.json``."""
        return {
            "counters": self.as_dict(),
            "gauges": {name: gauge.value
                       for name, gauge in self._gauges.items()},
            "histograms": {name: histogram.as_dict()
                           for name, histogram in self._histograms.items()},
        }

    @classmethod
    def from_snapshot(cls, counters, gauges, histograms):
        """Rebuild the store :meth:`snapshot` exported (exact round trip)."""
        stats = cls()
        stats._counters.update(counters)
        for name, value in gauges.items():
            stats.gauge(name).set(value)
        for name, data in histograms.items():
            histogram = stats.histogram(name, data["edges"])
            histogram.counts = list(data["counts"])
            histogram.total = data["total"]
            histogram.sum = data["sum"]
        return stats

    def __repr__(self):
        return "Stats(%d counters, %d gauges, %d histograms)" % (
            len(self._counters), len(self._gauges), len(self._histograms),
        )
