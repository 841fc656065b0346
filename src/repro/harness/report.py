"""Result containers and text-table rendering for the experiments."""


class ExperimentResult:
    """Rows regenerating one of the paper's tables or figures.

    Attributes
    ----------
    exp_id:
        Paper reference, e.g. ``"figure6"``.
    title:
        Human-readable description.
    columns:
        Ordered column names.
    rows:
        List of dicts keyed by column name.
    notes:
        Free-form commentary (scaling applied, expected shape).
    """

    def __init__(self, exp_id, title, columns, rows, notes=""):
        self.exp_id = exp_id
        self.title = title
        self.columns = list(columns)
        self.rows = list(rows)
        self.notes = notes

    def column(self, name):
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def render(self):
        """Aligned text table with title and notes."""
        header = "%s — %s" % (self.exp_id, self.title)
        table = format_table(self.columns, self.rows)
        parts = [header, table]
        if self.notes:
            parts.append("note: " + self.notes)
        return "\n".join(parts)

    def __repr__(self):
        return "ExperimentResult(%s, %d rows)" % (self.exp_id, len(self.rows))


def _format_cell(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        if abs(value) >= 10:
            return "%.1f" % value
        return "%.3f" % value
    return str(value)


def format_table(columns, rows):
    """Render rows as an aligned monospace table."""
    cells = [[_format_cell(row.get(col, "")) for col in columns]
             for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    def fmt(parts):
        return "  ".join(part.rjust(width)
                         for part, width in zip(parts, widths))
    lines = [fmt(columns), fmt(["-" * w for w in widths])]
    lines.extend(fmt(line) for line in cells)
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Bottleneck analysis: rank components by busy fraction.
# --------------------------------------------------------------------- #

def _component_events(values, config):
    """Per-component (events, per-cycle capacity) derived from counters.

    Every modeled component type exposes a counter family whose total,
    divided by its per-cycle service capacity, approximates the busy
    fraction.  Works from the flat stats bag alone, so it applies to any
    finished run -- no sampling required.
    """
    per_component = {}

    def add(component, amount, capacity):
        events, cap = per_component.get(component, (0.0, capacity))
        per_component[component] = (events + amount, capacity)

    for key, value in values.items():
        component, __, suffix = key.rpartition(".")
        if not component:
            continue
        if suffix == "sums" and component != "fu":
            # Scatter-add units complete at most one sum per cycle.
            add(component, value, 1.0)
        elif suffix in ("hits", "misses", "mshr_hits"):
            # Cache banks service a bounded number of words per cycle.
            cap = float(config.bank_words_per_cycle) if config else 1.0
            add(component, value, cap)
        elif suffix == "busy_cycles":
            # DRAM / uniform memory: busy channel-cycles.
            if config is not None and key.endswith(".dram.busy_cycles"):
                cap = float(config.dram_channels)
            else:
                cap = 1.0
            add(component, value, cap)
        elif suffix == "refs" and component != "memsys":
            # Address generators issue up to their width per cycle.
            cap = float(config.agu_words_per_cycle) if config else 1.0
            add(component, value, cap)
        elif suffix == "words" and config is not None and "xbar" in component:
            cap = float(config.nodes * config.network.link_bw_words)
            add(component, value, cap)
        elif key == "sim.network.hops":
            # The fabric forwards up to bw words per link per cycle;
            # aggregate hop throughput is bounded by the injection ports.
            cap = (float(config.nodes * config.network.link_bw_words)
                   if config else 1.0)
            add("network", value, cap)
        elif suffix in ("local_refs", "combined_refs", "remote_refs"):
            cap = float(config.cache_words_per_cycle) if config else 1.0
            add(component, value, cap)
    return per_component


def bottlenecks(stats, cycles, config=None, top=None):
    """Components ranked by busy fraction, most-utilised first.

    Parameters
    ----------
    stats:
        :class:`~repro.sim.stats.Stats` or a plain counter mapping.
    cycles:
        Wall-clock cycles of the run being analysed.
    config:
        Optional :class:`~repro.config.MachineConfig` for per-cycle
        capacities; without it every component is assumed single-issue.
    top:
        Truncate to the N most-utilised components.

    Returns a list of dicts with ``component``, ``events``, ``capacity``
    and ``busy_fraction`` (clamped to [0, 1]).
    """
    values = stats if isinstance(stats, dict) else stats.as_dict()
    if not cycles:
        return []
    ranked = []
    for component, (events, capacity) in sorted(
            _component_events(values, config).items()):
        fraction = events / (cycles * capacity)
        ranked.append({
            "component": component,
            "events": events,
            "capacity": capacity,
            "busy_fraction": min(1.0, fraction),
        })
    ranked.sort(key=lambda row: (-row["busy_fraction"], row["component"]))
    if top is not None:
        ranked = ranked[:top]
    return ranked


def render_bottlenecks(ranked):
    """Aligned text table for a :func:`bottlenecks` result."""
    if not ranked:
        return "(no component activity recorded)"
    rows = [
        {
            "component": row["component"],
            "busy%": 100.0 * row["busy_fraction"],
            "events": row["events"],
            "per-cycle cap": row["capacity"],
        }
        for row in ranked
    ]
    return format_table(["component", "busy%", "events", "per-cycle cap"],
                        rows)


# --------------------------------------------------------------------- #
# Request-latency attribution (sampled span tracing).
# --------------------------------------------------------------------- #

def latency_breakdown(tracer):
    """The queueing-vs-service latency attribution table of a run.

    `tracer` is the :class:`~repro.obs.tracing.RequestTracer` of an
    observed run (``--trace-requests N``).  Returns its
    :meth:`~repro.obs.tracing.RequestTracer.breakdown` dict: one row per
    pipeline stage, end-to-end summary, queue/service rollups, and the
    combining-fanout distribution.  Per-stage cycle sums reconcile
    exactly with end-to-end latency (legs partition each lifetime).
    """
    return tracer.breakdown()


def render_latency_breakdown(breakdown):
    """Aligned text table for a :func:`latency_breakdown` result."""
    if not breakdown or not breakdown.get("requests"):
        return "(no completed traced requests)"
    rows = [
        {
            "stage": row["stage"],
            "kind": row["kind"],
            "count": row["count"],
            "cycles": row["cycles"],
            "mean": row["mean"],
            "p50": row["p50"],
            "p90": row["p90"],
            "p99": row["p99"],
            "share%": 100.0 * row["share"],
        }
        for row in breakdown["stages"]
    ]
    table = format_table(
        ["stage", "kind", "count", "cycles", "mean", "p50", "p90", "p99",
         "share%"], rows)
    e2e = breakdown["end_to_end"]
    summary = (
        "%d requests traced (1 in %d): end-to-end mean %.1f cycles "
        "(p50 %.0f, p90 %.0f, p99 %.0f); queueing %.0f cycles, service "
        "%.0f cycles, unattributed %.0f" % (
            breakdown["requests"], breakdown["sample_every"], e2e["mean"],
            e2e["p50"], e2e["p90"], e2e["p99"], breakdown["queue_cycles"],
            breakdown["service_cycles"], breakdown["unattributed_cycles"],
        )
    )
    dropped = breakdown.get("traces_dropped")
    if dropped:
        summary += ("; %d traces dropped from the Chrome trace "
                    "(histograms keep them)" % dropped)
    return table + "\n" + summary
