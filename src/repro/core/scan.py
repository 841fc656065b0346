"""Prefix sums (scans) on the scatter-add hardware (Section 5 future work).

"In future work we plan enhancements that will allow efficient
computation of scans (parallel prefix operations) in hardware."

The fetch-add path already computes a scan *semantically*: all updates
to one address chain through the combining store in arrival order, and
each acknowledgement returns the pre-update value -- i.e. the exclusive
prefix sum of everything before it.  :func:`fetch_add_prefix_sum` uses
exactly that.  It is correct but slow: a single chain advances one
element per FU latency, which is precisely why the paper lists
*efficient* hardware scans as future work.

:func:`blocked_prefix_sum` is the efficient hybrid the hardware enables
today: block-local scans run as data-parallel kernels in the SRF, and a
single fetch-add *per block* (not per element) fetches each block's
global offset -- turning the serial chain into O(n/block) atomic
operations while keeping the single-pass, no-sort structure.
"""

import numpy as np

#: Machine ops per element for a block-local scan (matches the software
#: cost model's SCAN_OPS_PER_ELEM; duplicated here because repro.core is
#: a lower layer than repro.software and must not import it).
SCAN_OPS_PER_ELEM = 4

#: Achieved fraction of peak for scan kernels.
SCAN_EFFICIENCY = 0.5


class ScanResult:
    """Outcome of a hardware-assisted prefix sum."""

    def __init__(self, config, values, exclusive, total, cycles, stats):
        self.config = config
        self._values = np.asarray(values, dtype=np.float64)
        #: Exclusive prefix sums (result[i] = sum of values[:i]).
        self.exclusive = exclusive
        #: Grand total (the counter's final value).
        self.total = total
        self.cycles = cycles
        self.stats = stats

    @property
    def inclusive(self):
        return self.exclusive + self._values

    def __repr__(self):
        return "ScanResult(%d elements, %d cycles)" % (
            len(self.exclusive), self.cycles,
        )


def fetch_add_prefix_sum(values, config, counter_addr=0):
    """Exclusive prefix sum via one fetch-add chain (the naive mapping).

    Every element fetch-adds the same counter; the per-address FIFO order
    of the combining store makes each returned pre-update value the
    exclusive prefix of the issue order.  Throughput is bounded by one
    element per FU latency -- measure it and you see why the paper wants
    a dedicated scan path.
    """
    from repro.node.processor import StreamProcessor
    from repro.node.program import FetchAdd, Phase, StreamProgram

    values = np.asarray(values, dtype=np.float64)
    processor = StreamProcessor(config)
    op = FetchAdd([counter_addr] * len(values), list(values),
                  name="scan_chain")
    result = processor.run(StreamProgram([Phase([op])]))
    exclusive = np.asarray(op.result, dtype=np.float64)
    total = processor.read_result(counter_addr, 1)[0]
    return ScanResult(config, values, exclusive, total, result.cycles,
                      processor.stats)


def blocked_prefix_sum(values, config, block=256, counter_addr=0):
    """Exclusive prefix sum via block-local kernels + per-block fetch-add.

    Each block's local scan is deterministic SIMD work (costed as a
    kernel); a single fetch-add per block atomically claims the running
    global offset.  Blocks must claim offsets in order, so the fetch-adds
    form a chain of length n/block instead of n.
    """
    from repro.node.processor import StreamProcessor
    from repro.node.program import FetchAdd, Kernel, Phase, StreamProgram

    if block < 1:
        raise ValueError("block must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    count = len(values)
    processor = StreamProcessor(config)
    block_sums = [
        float(values[start:start + block].sum())
        for start in range(0, count, block)
    ]
    # Phase 1: local scans of every block in parallel (one fused kernel)
    # producing block-local exclusive prefixes and block totals.
    local_ops = count * SCAN_OPS_PER_ELEM
    # Phase 2: one fetch-add per block claims the global offset, in order.
    offset_op = FetchAdd([counter_addr] * len(block_sums), block_sums,
                         name="block_offsets")
    # Phase 3: add the offsets back into the local prefixes.
    fixup_ops = count
    result = processor.run(StreamProgram([
        Phase([Kernel("local_scan", local_ops,
                      efficiency=SCAN_EFFICIENCY)]),
        Phase([offset_op]),
        Phase([Kernel("offset_fixup", fixup_ops,
                      efficiency=SCAN_EFFICIENCY)]),
    ]))
    offsets = np.asarray(offset_op.result, dtype=np.float64)
    exclusive = np.empty(count)
    for index, start in enumerate(range(0, count, block)):
        chunk = values[start:start + block]
        local = np.cumsum(chunk) - chunk
        exclusive[start:start + block] = offsets[index] + local
    total = processor.read_result(counter_addr, 1)[0]
    return ScanResult(config, values, exclusive, total, result.cycles,
                      processor.stats)
