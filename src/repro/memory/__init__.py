"""Memory-system substrate: requests, backing store, DRAM models.

The scatter-add unit sits in front of this subsystem (Figure 3 of the
paper).  Two memory models are provided, matching the paper's two
experimental setups:

- :class:`~repro.memory.dram.DRAMSystem` -- channel-interleaved banked DRAM
  with fixed access latency and per-channel word throughput, used behind the
  stream cache in the base (Table 1) configuration.
- :class:`~repro.memory.dram.UniformMemory` -- the cache-less uniform
  bandwidth/latency structure of the Section 4.4 sensitivity studies
  ("throughput is modeled by a fixed cycle interval between successive
  memory word accesses, and latency by a fixed value").
"""

from repro.memory.backing import MainMemory
from repro.memory.request import (
    OP_FETCH_ADD,
    OP_READ,
    OP_SCATTER_ADD,
    OP_SCATTER_MAX,
    OP_SCATTER_MIN,
    OP_SCATTER_MUL,
    OP_WRITE,
    ATOMIC_OPS,
    MemoryRequest,
    MemoryResponse,
    combine,
    identity_value,
)
from repro.memory.address import channel_of
from repro.memory.dram import DRAMSystem, UniformMemory

__all__ = [
    "ATOMIC_OPS",
    "DRAMSystem",
    "MainMemory",
    "MemoryRequest",
    "MemoryResponse",
    "OP_FETCH_ADD",
    "OP_READ",
    "OP_SCATTER_ADD",
    "OP_SCATTER_MAX",
    "OP_SCATTER_MIN",
    "OP_SCATTER_MUL",
    "OP_WRITE",
    "UniformMemory",
    "channel_of",
    "combine",
    "identity_value",
]
