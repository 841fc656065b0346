#!/usr/bin/env python
"""A guided tour of the scatter-add unit, request by request.

Pushes a tiny, hand-picked update stream through the cache-less machine
(one scatter-add unit in front of uniform memory) with every request
traced, then prints each request's spans -- the stages it waited in or
was served by, cycle by cycle -- so the Figure 5 flow can be read off a
real run:

- an update that *activates* its address (CAM miss) reads memory: its
  trace carries ``dram.queue`` / ``dram.burst`` legs;
- an update that *combines* (CAM hit) never touches memory: it leaves
  ``sau.queue`` straight into ``store.wait`` until the running sum
  reaches it;
- every update ends in one ``fu`` leg, the addition that retires it.

Finishes with the combining statistics that explain the memory-traffic
reduction.

Run:  python examples/microarchitecture_tour.py
"""

import numpy as np

from repro.api import Simulation
from repro.config import MachineConfig


def main():
    config = MachineConfig.uniform(latency=12, interval=2)
    initial = np.zeros(10)
    initial[7] = 100.0  # pre-existing value at address 7

    # Three updates to address 7 (they will combine + chain) interleaved
    # with two independent addresses (they pipeline).
    updates = [(7, 1.0), (3, 5.0), (7, 2.0), (9, 4.0), (7, 3.0)]
    indices = [addr for addr, __ in updates]
    values = [value for __, value in updates]

    print("Machine: single scatter-add unit, %d-entry combining store, "
          "%d-cycle adder,\nuniform memory (latency %d, 1 word / %d "
          "cycles).  Address 7 starts at 100.\n"
          % (config.combining_store_entries, config.fu_latency,
             config.uniform_latency, config.uniform_interval))
    print("update stream: %s\n" % (updates,))

    run = Simulation(config, trace_requests=1).run(
        "scatter_add", indices, values, num_targets=10, initial=initial)
    tracer = run.observation.scopes[0].request_tracer

    print("request spans (stage@component, start..end cycle):")
    for trace in sorted(tracer.traces, key=lambda trace: trace.rid):
        memory = any(span.stage.startswith("dram.") for span in trace.spans)
        print("  request %d: a[%d] += %g  (%s)" % (
            trace.rid, trace.addr, values[trace.rid],
            "activates: reads memory" if memory
            else "combines: no memory access"))
        for span in trace.spans:
            print("    %-12s %-16s %3d..%3d" % (
                span.stage, span.component, span.start, span.end))

    result = run.result
    print("\nfinal memory: a[7]=%g a[3]=%g a[9]=%g   (%d cycles total)"
          % (result[7], result[3], result[9], run.cycles))
    assert result[7] == 106.0
    assert result[3] == 5.0
    assert result[9] == 4.0

    stats = run.stats
    print("\nwhy it was fast:")
    print("  memory reads issued : %d  (one per *address*, not per "
          "update)" % stats.get("memsys.mem.reads"))
    print("  memory writes issued: %d" % stats.get("memsys.mem.writes"))
    print("  sums combined/chained in the store: %d"
          % stats.get("memsys.sau0.chained"))
    print("\nFive atomic updates cost three read-modify-writes' worth of "
          "memory traffic;\nthe combining store absorbed the rest -- the "
          "mechanism behind Figure 12's\nnarrow-range results.")


if __name__ == "__main__":
    main()
