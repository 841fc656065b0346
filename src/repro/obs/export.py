"""Exporters: Chrome ``chrome://tracing`` traces and ``metrics.json``.

Two machine-readable artifacts per observed run:

- **Chrome trace** (``*.trace.json``): a ``{"traceEvents": [...]}`` object
  in the Trace Event Format that loads directly into ``chrome://tracing``
  or Perfetto.  Each observation scope becomes one *process* (``pid``),
  each simulated component one *thread* (``tid``, named via ``M`` metadata
  events).  Stream-program phases export as complete spans (``ph: "X"``),
  :class:`~repro.sim.trace.TraceLog` events as instants (``ph: "i"``) and
  sampled timelines as counter tracks (``ph: "C"``).  Timestamps are
  simulated cycles (one trace microsecond per cycle).
- **metrics.json**: the ``Stats`` snapshot (counters, gauges, histograms),
  sampled timelines, the bottleneck ranking and (when request tracing is
  on) the per-stage latency attribution table, per scope.

Sampled request lifecycles (``--trace-requests N``) export as per-stage
complete spans on each component's thread plus Chrome *flow events*
(``ph: "s"/"t"/"f"`` sharing an ``id``) that draw arrows linking one
request's spans across component tracks in Perfetto.

Both formats ship a validator used by tests and the CI artifact gate.
"""

import json

#: Schema tag written into (and required from) every metrics.json.
METRICS_SCHEMA = "repro.metrics/1"

#: Chrome trace event phases this exporter emits (s/t/f are the flow
#: start/step/finish events linking a traced request across threads).
_PHASES = ("X", "i", "C", "M", "s", "t", "f")

#: Flow-event phases (subset of ``_PHASES``): start, step, finish.
_FLOW_PHASES = ("s", "t", "f")


# --------------------------------------------------------------------- #
# Chrome trace
# --------------------------------------------------------------------- #
def chrome_trace_events(observation):
    """Flatten an observation into a list of Chrome trace events."""
    events = []
    for scope in observation.scopes:
        pid = scope.pid
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": scope.label},
        })
        tids = {}

        def tid_of(component, _tids=tids, _events=events, _pid=pid):
            tid = _tids.get(component)
            if tid is None:
                tid = len(_tids) + 1  # tid 0 is the phase/counter track
                _tids[component] = tid
                _events.append({
                    "ph": "M", "name": "thread_name", "pid": _pid,
                    "tid": tid, "ts": 0, "args": {"name": component},
                })
            return tid

        for span in scope.spans:
            events.append({
                "ph": "X", "name": span.name, "cat": "phase",
                "ts": span.start, "dur": max(span.duration, 1),
                "pid": pid, "tid": 0,
            })
        for event in scope.tracelog.events:
            events.append({
                "ph": "i", "name": event.kind, "cat": "event", "s": "t",
                "ts": event.cycle, "pid": pid,
                "tid": tid_of(event.component),
                "args": dict(event.fields),
            })
        for timeline in scope.timelines:
            for cycle, value in zip(timeline.cycles, timeline.values):
                events.append({
                    "ph": "C", "name": timeline.name, "cat": "sample",
                    "ts": cycle, "pid": pid, "tid": 0,
                    "args": {"value": value},
                })
        tracer = getattr(scope, "request_tracer", None)
        if tracer is not None:
            events.extend(_request_events(tracer, pid, tid_of))
    return events


def _request_events(tracer, pid, tid_of):
    """Span + flow events for every completed sampled request.

    Each leg becomes a complete span on its component's thread; a flow
    chain (start / step / finish sharing ``id = rid``) links the spans
    across threads so Perfetto draws the request's path as arrows.
    """
    events = []
    for trace in tracer.traces:
        spans = trace.spans
        last = len(spans) - 1
        for position, span in enumerate(spans):
            tid = tid_of(span.component)
            events.append({
                "ph": "X", "name": span.stage, "cat": "request",
                "ts": span.start, "dur": span.duration,
                "pid": pid, "tid": tid,
                "args": {"rid": trace.rid, "op": trace.op,
                         "addr": trace.addr},
            })
            if last == 0:
                continue  # a single span needs no flow arrows
            flow = {
                "ph": _FLOW_PHASES[0 if position == 0
                                   else (2 if position == last else 1)],
                "name": "request", "cat": "request", "id": trace.rid,
                "ts": span.start, "pid": pid, "tid": tid,
            }
            if position == last:
                flow["bp"] = "e"  # bind to the enclosing slice
            events.append(flow)
    return events


def write_chrome_trace(path, observation):
    """Write the observation as a Chrome trace file; returns the payload."""
    payload = {"traceEvents": chrome_trace_events(observation)}
    with open(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return payload


def validate_chrome_trace(payload):
    """Raise ``ValueError`` unless `payload` is a loadable Chrome trace.

    Accepts both the object form (``{"traceEvents": [...]}``) and the bare
    event array, the two shapes ``chrome://tracing`` loads.  Beyond the
    per-event field checks, the flow-event schema is validated: every
    flow event needs an ``id``, every finish (``f``) and step (``t``)
    needs a matching start (``s``), and the request spans of one traced
    request (``cat: "request"``, same ``args.rid``) must appear with
    monotonically non-decreasing timestamps.
    """
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("trace object lacks a 'traceEvents' array")
    elif isinstance(payload, list):
        events = payload
    else:
        raise ValueError("trace must be an object or an event array, got %s"
                         % type(payload).__name__)
    flow_ids = {phase: set() for phase in _FLOW_PHASES}
    request_cursor = {}  # (pid, rid) -> last span ts
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError("trace event %d is not an object" % index)
        for field in ("ph", "ts", "pid"):
            if field not in event:
                raise ValueError("trace event %d lacks required field %r"
                                 % (index, field))
        if event["ph"] not in _PHASES:
            raise ValueError("trace event %d has unknown phase %r"
                             % (index, event["ph"]))
        if not isinstance(event["ts"], (int, float)):
            raise ValueError("trace event %d has non-numeric ts" % index)
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError("complete event %d lacks 'dur'" % index)
        if event["ph"] in _FLOW_PHASES:
            if "id" not in event:
                raise ValueError("flow event %d (ph=%r) lacks an 'id'"
                                 % (index, event["ph"]))
            flow_ids[event["ph"]].add((event["pid"], event["id"]))
        if event["ph"] == "X" and event.get("cat") == "request":
            rid = event.get("args", {}).get("rid")
            if rid is not None:
                key = (event["pid"], rid)
                last = request_cursor.get(key)
                if last is not None and event["ts"] < last:
                    raise ValueError(
                        "request %r span at event %d goes back in time "
                        "(ts %r after %r)" % (rid, index, event["ts"], last))
                request_cursor[key] = event["ts"]
    for phase in ("t", "f"):
        orphans = flow_ids[phase] - flow_ids["s"]
        if orphans:
            raise ValueError(
                "flow %s events without a matching start (ph='s'): ids %s"
                % ("step" if phase == "t" else "finish",
                   sorted(rid for __, rid in orphans)[:5]))
    unfinished = flow_ids["s"] - flow_ids["f"]
    if unfinished:
        raise ValueError(
            "flow start events without a matching finish (ph='f'): ids %s"
            % sorted(rid for __, rid in unfinished)[:5])
    return events


# --------------------------------------------------------------------- #
# metrics.json
# --------------------------------------------------------------------- #
def metrics_payload(observation):
    """Build the ``metrics.json`` payload for an observation."""
    from repro.harness.report import bottlenecks

    scopes = []
    for scope in observation.scopes:
        entry = {
            "label": scope.label,
            "cycles": scope.cycles,
            **scope.stats.snapshot(),
            "timelines": {timeline.name: timeline.as_dict()
                          for timeline in scope.timelines},
            "bottlenecks": bottlenecks(scope.stats, scope.cycles,
                                       config=scope.config),
        }
        tracer = getattr(scope, "request_tracer", None)
        if tracer is not None:
            entry["latency_breakdown"] = tracer.breakdown()
        scopes.append(entry)
    return {
        "schema": METRICS_SCHEMA,
        "sample_every": observation.sample_every,
        "trace_requests": getattr(observation, "trace_requests", 0),
        "scopes": scopes,
    }


def write_metrics(path, observation):
    """Write ``metrics.json`` for the observation; returns the payload."""
    payload = metrics_payload(observation)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def run_metrics_payload(run_dict):
    """Build the ``metrics.json`` payload from a serialized ScatterRun.

    `run_dict` is :meth:`repro.api.ScatterRun.to_dict` output — the form
    :meth:`~repro.api.ScatterRun.save` writes.  Producing metrics from
    that form (rather than from live simulator objects) is what makes a
    reloaded run's metrics.json byte-identical to the live run it saved.
    The payload matches :func:`metrics_payload` for a single detached
    scope labelled ``"run"``.
    """
    from repro.config import MachineConfig
    from repro.harness.report import bottlenecks

    counters = run_dict["stats"]
    cycles = run_dict["cycles"]
    config = MachineConfig.from_dict(run_dict["config"])
    entry = {
        "label": "run",
        "cycles": cycles,
        "counters": dict(counters),
        "gauges": run_dict.get("gauges") or {},
        "histograms": run_dict.get("histograms") or {},
        "timelines": run_dict.get("timelines") or {},
        "bottlenecks": bottlenecks(counters, cycles, config=config),
    }
    if run_dict.get("latency_breakdown") is not None:
        entry["latency_breakdown"] = run_dict["latency_breakdown"]
    return {
        "schema": METRICS_SCHEMA,
        "sample_every": 0,
        "trace_requests": 0,
        "scopes": [entry],
    }


def write_run_metrics(path, run_dict):
    """Write ``metrics.json`` for a serialized run; returns the payload."""
    payload = run_metrics_payload(run_dict)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


#: Cross-counter conservation laws checked on every metrics payload:
#: (name, lhs counter, rhs counters).  The lhs must equal the sum of the
#: rhs whenever the lhs counter is present in a scope.  Currently the
#: network flow-conservation invariant: every request injected into the
#: fabric is either delivered to a home node or absorbed by an in-flight
#: combine at a switch.
METRICS_INVARIANTS = (
    ("network flow conservation", "sim.network.injected",
     ("sim.network.delivered", "sim.network.combined_in_flight")),
)


def _check_counter_invariants(counters, index):
    for label, lhs, rhs in METRICS_INVARIANTS:
        if lhs not in counters:
            continue
        total = sum(counters.get(name, 0) for name in rhs)
        if counters[lhs] != total:
            raise ValueError(
                "scope %d violates %s: %s=%r != %s = %r"
                % (index, label, lhs, counters[lhs],
                   " + ".join(rhs), total))


def validate_metrics(payload):
    """Raise ``ValueError`` unless `payload` is a well-formed metrics dump.

    Beyond shape checks, cross-counter invariants
    (:data:`METRICS_INVARIANTS`) are enforced per scope, so a payload
    whose counters drifted out of conservation fails the CI artifact
    gate even when every individual value is well-typed.
    """
    if not isinstance(payload, dict):
        raise ValueError("metrics payload must be an object")
    if payload.get("schema") != METRICS_SCHEMA:
        raise ValueError("metrics schema %r != expected %r"
                         % (payload.get("schema"), METRICS_SCHEMA))
    scopes = payload.get("scopes")
    if not isinstance(scopes, list):
        raise ValueError("metrics payload lacks a 'scopes' array")
    for index, scope in enumerate(scopes):
        counters = scope.get("counters")
        if not isinstance(counters, dict):
            raise ValueError("scope %d lacks a counters object" % index)
        for name, value in counters.items():
            if not isinstance(value, (int, float)):
                raise ValueError("scope %d counter %r is not numeric"
                                 % (index, name))
        _check_counter_invariants(counters, index)
        for name, histogram in scope.get("histograms", {}).items():
            edges = histogram.get("edges", [])
            counts = histogram.get("counts", [])
            if len(counts) != len(edges) + 1:
                raise ValueError(
                    "scope %d histogram %r: %d counts for %d edges "
                    "(want edges + 1 overflow bucket)"
                    % (index, name, len(counts), len(edges))
                )
        for name, timeline in scope.get("timelines", {}).items():
            if len(timeline.get("cycles", [])) != len(
                    timeline.get("values", ())):
                raise ValueError("scope %d timeline %r: cycle/value arrays "
                                 "differ in length" % (index, name))
        breakdown = scope.get("latency_breakdown")
        if breakdown is not None:
            stages = breakdown.get("stages")
            if not isinstance(stages, list):
                raise ValueError("scope %d latency_breakdown lacks a "
                                 "'stages' array" % index)
            for row in stages:
                for field in ("stage", "kind", "count", "cycles"):
                    if field not in row:
                        raise ValueError(
                            "scope %d latency_breakdown stage row lacks %r"
                            % (index, field))
    return payload


def validate_file(path):
    """Validate a ``*.trace.json`` or ``metrics.json`` file by content."""
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and payload.get("schema") == METRICS_SCHEMA:
        validate_metrics(payload)
        return "metrics"
    validate_chrome_trace(payload)
    return "trace"
