"""Coarse-grained multi-processor software scatter-add (Section 2.1).

"One such obvious technique is to equally partition the data across
multiple processors, and perform a global reduction once the local
computations are complete."  [Bae, Alsabti & Ranka]

Each node computes a private full-length sum array for its slice of the
updates (using any local method; we charge the sort&scan cost), then the
P private arrays are combined with a tree reduction over the network.
The reduction moves the *entire* target array per tree level -- the reason
this technique loses badly when the target range is large relative to the
per-node update count.
"""

import math

import numpy as np

from repro.software.sortscan import SoftwareRun, SortScanScatterAdd, _as_value_array


class PartitionReduceScatterAdd:
    """Partition the updates across nodes, then tree-reduce the arrays."""

    def __init__(self, config, nodes=None):
        self.config = config
        self.nodes = nodes if nodes is not None else config.nodes

    def run(self, indices, values=1.0, num_targets=None, initial=None,
            base=0):
        indices = np.asarray(indices, dtype=np.int64)
        count = len(indices)
        if num_targets is None:
            num_targets = int(indices.max()) + 1 if count else 0
        value_array = _as_value_array(values, count)

        # Local phase: every node runs sort&scan on its slice of the
        # updates into a private array.  Nodes run concurrently, so the
        # phase costs the slowest node.
        local = SortScanScatterAdd(self.config)
        local_cycles = 0
        partials = np.zeros((self.nodes, num_targets))
        stats = None
        slice_size = int(math.ceil(count / self.nodes)) if count else 0
        for node in range(self.nodes):
            lo, hi = node * slice_size, min(count, (node + 1) * slice_size)
            if lo >= hi:
                continue
            run = local.run(indices[lo:hi], value_array[lo:hi],
                            num_targets=num_targets)
            partials[node] = run.result
            local_cycles = max(local_cycles, run.cycles)
            stats = run.stats if stats is None else stats.merge(run.stats)

        # Global phase: tree reduction; each level moves the whole target
        # array across the network and adds it (num_targets words per node
        # pair, at the per-node network bandwidth).
        levels = int(math.ceil(math.log2(self.nodes))) if self.nodes > 1 else 0
        transfer = num_targets / self.config.network.link_bw_words
        add = num_targets / self.config.peak_flops_per_cycle
        reduce_cycles = int(levels * (transfer + add
                                      + self.config.stream_op_overhead))

        result = partials.sum(axis=0)
        if initial is not None:
            result = result + np.asarray(initial, dtype=np.float64)

        from repro.sim.stats import Stats

        stats = stats if stats is not None else Stats()
        detail = {
            "nodes": self.nodes,
            "local_cycles": local_cycles,
            "reduce_cycles": reduce_cycles,
        }
        return SoftwareRun(self.config, result, local_cycles + reduce_cycles,
                           stats, detail)
