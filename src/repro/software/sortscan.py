"""Sort + segmented-scan software scatter-add (the paper's SW baseline).

The stream of (index, value) pairs is processed in constant-sized batches
(default 256, the paper's best size).  Each batch is sorted by target
index with the bitonic/merge network, reduced per index with a segmented
scan, and the per-index sums are folded into memory with a collision-free
gather -> add -> scatter sequence.  Batches are software-pipelined: batch
*i*'s memory update overlaps batch *i+1*'s sort/scan kernels, so each
batch costs the maximum of its kernel time and its memory time.

Functional behaviour is exact (verified against
:func:`repro.api.scatter_add_reference`); cycle costs come from the
operation counts of the executed algorithms and the Table 1 machine
parameters (constants in :mod:`repro.software.costmodel`).
"""

import numpy as np

from repro.node.processor import StreamProcessor
from repro.node.program import Bulk, Gather, Kernel, Phase, Scatter, StreamProgram
from repro.software import costmodel
from repro.software.scan import segmented_scan_sums
from repro.software.sort import dpa_sort_pairs


class SoftwareRun:
    """Result of a software scatter-add: timing plus the produced array."""

    def __init__(self, config, result, cycles, stats, detail=None):
        self.config = config
        self.result = result
        self.cycles = cycles
        self.stats = stats
        self.detail = detail or {}

    @property
    def microseconds(self):
        return self.config.cycles_to_us(self.cycles)

    def __repr__(self):
        return "SoftwareRun(%d cycles, %.3f us)" % (
            self.cycles, self.microseconds,
        )


def _as_value_array(values, count):
    if np.isscalar(values):
        return np.full(count, float(values))
    values = np.asarray(values, dtype=np.float64)
    if len(values) != count:
        raise ValueError("values length %d != indices length %d"
                         % (len(values), count))
    return values


class SortScanScatterAdd:
    """Software scatter-add via batched sort + segmented scan."""

    def __init__(self, config, batch=costmodel.BITONIC_BLOCK):
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        self.config = config
        self.batch = batch

    def run(self, indices, values=1.0, num_targets=None, initial=None,
            base=0):
        """Compute the scatter-add in software; returns a SoftwareRun."""
        indices = np.asarray(indices, dtype=np.int64)
        count = len(indices)
        if num_targets is None:
            num_targets = int(indices.max()) + 1 if count else 0
        value_array = _as_value_array(values, count)

        processor = StreamProcessor(self.config)
        if initial is not None:
            processor.load_array(base, np.asarray(initial, dtype=np.float64))
        clusters = processor.clusters

        total_cycles = 0
        batches = 0
        for start in range(0, count, self.batch):
            chunk_idx = indices[start:start + self.batch]
            chunk_val = value_array[start:start + self.batch]
            batch_n = len(chunk_idx)

            sorted_keys, sorted_vals, sort_ops = dpa_sort_pairs(
                chunk_idx, chunk_val
            )
            unique_keys, sums, scan_ops = segmented_scan_sums(
                sorted_keys, sorted_vals
            )

            # Kernel stage: sort network + segmented scan.
            kernel_cycles = clusters.kernel_cycles(Kernel(
                "sort", sort_ops,
                efficiency=costmodel.SORT_EFFICIENCY,
                launches=costmodel.SORT_LAUNCHES,
                integer=True,
            ))
            kernel_cycles += clusters.kernel_cycles(Kernel(
                "seg_scan", scan_ops,
                efficiency=costmodel.SCAN_EFFICIENCY,
                launches=costmodel.SCAN_LAUNCHES,
            ))
            merge_words = costmodel.merge_memory_words(batch_n)
            if merge_words:
                kernel_cycles += clusters.bulk_cycles(
                    Bulk("merge_spill", merge_words)
                )

            # Memory stage: collision-free read-add-write of the sums,
            # simulated through the node's memory system.  The gather must
            # complete before the new values exist, hence two runs.
            addrs = [base + int(key) for key in unique_keys]
            update_ops = len(addrs) * costmodel.UPDATE_OPS_PER_ELEM
            gather_op = Gather(addrs, name="sw_gather")
            gather_result = processor.run(StreamProgram([Phase([gather_op])]))
            current = np.asarray(gather_op.result, dtype=np.float64)
            updated = current + sums
            update_result = processor.run(StreamProgram([
                Phase([Kernel("sw_update", update_ops)]),
                Phase([Scatter(addrs, list(updated), name="sw_scatter")]),
            ]))
            mem_cycles = gather_result.cycles + update_result.cycles

            # Software pipelining: the two stages of consecutive batches
            # overlap; each batch costs its slower stage.
            total_cycles += max(kernel_cycles, mem_cycles)
            batches += 1

        # Pipeline fill: the first batch's kernel stage is not hidden.
        if batches:
            total_cycles += self.config.stream_op_overhead

        result = processor.read_result(base, num_targets)
        detail = {"batches": batches, "batch_size": self.batch}
        return SoftwareRun(self.config, result, total_cycles,
                           processor.stats, detail)
