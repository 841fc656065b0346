"""Reproduction of "Scatter-Add in Data Parallel Architectures" (HPCA 2005).

This library implements the paper's hardware scatter-add mechanism on a
cycle-approximate model of a Merrimac-like stream processor, the software
baselines it compares against (sort + segmented scan, privatization), the
three evaluation applications (histogram, sparse matrix-vector multiply,
a GROMACS-style molecular-dynamics kernel), and a multi-node system with
the cache-combining optimisation -- everything needed to regenerate each
figure of the paper's evaluation section.

Quickstart::

    import numpy as np
    from repro import Simulation, scatter_add_reference

    indices = np.random.default_rng(0).integers(0, 2048, size=4096)
    run = Simulation().run("scatter_add", indices, 1.0, num_targets=2048)
    assert np.array_equal(run.result,
                          scatter_add_reference(np.zeros(2048), indices, 1.0))
    print(run.cycles, "cycles =", run.microseconds, "us")
    print(run.bottlenecks(top=3))
"""

from repro.api import (
    ScatterRun,
    Simulation,
    scatter_add_reference,
    scatter_op_reference,
)
from repro.config import MachineConfig, NetworkConfig
from repro.core.area import AreaModel
from repro.core.queue import ParallelQueueAllocator, QueueAllocation
from repro.core.scan import blocked_prefix_sum, fetch_add_prefix_sum
from repro.node.processor import ProgramResult, StreamProcessor
from repro.node.program import (
    Bulk,
    FetchAdd,
    Gather,
    Kernel,
    Phase,
    Scatter,
    ScatterAdd,
    StreamProgram,
)

__version__ = "1.0.0"

__all__ = [
    "AreaModel",
    "Bulk",
    "FetchAdd",
    "Gather",
    "Kernel",
    "MachineConfig",
    "NetworkConfig",
    "Phase",
    "ProgramResult",
    "Scatter",
    "ScatterAdd",
    "ScatterRun",
    "Simulation",
    "StreamProcessor",
    "StreamProgram",
    "scatter_add_reference",
    "scatter_op_reference",
    "ParallelQueueAllocator",
    "QueueAllocation",
    "blocked_prefix_sum",
    "fetch_add_prefix_sum",
    "__version__",
]
