"""Cycle-driven simulation kernel.

This package provides the generic machinery every hardware model in the
reproduction is built on:

- :class:`~repro.sim.engine.Simulator` and
  :class:`~repro.sim.engine.Component` -- a deterministic, cycle-driven,
  two-phase component model.
- :class:`~repro.sim.queues.FIFO` -- a bounded queue whose pushes become
  visible one cycle later, giving one-cycle-per-hop pipelining and natural
  back-pressure.
- :class:`~repro.sim.queues.LatencyPipe` -- a delay line for fixed-latency
  network links, owned by the switch that pushes and pops it.
- :class:`~repro.sim.stats.Stats` -- the run's metric store (counters,
  gauges, histograms).

The engine is intentionally simple: all state changes happen inside
``tick()``; communication between components only happens through FIFOs
owned by the simulator, which synchronises them between cycles.  This
makes every run deterministic and independent of component registration
order for correctness (ordering only shifts results by bounded, constant
pipeline skew).
"""

from repro.sim.engine import (
    Component,
    SimulationError,
    Simulator,
    use_scheduler,
)
from repro.sim.queues import FIFO, LatencyPipe
from repro.sim.stats import Stats

__all__ = [
    "Component",
    "FIFO",
    "LatencyPipe",
    "SimulationError",
    "Simulator",
    "Stats",
    "use_scheduler",
]
