"""Generated-input differential sweep of the uniform-memory pipeline.

On a uniform (cache-less) memory the default ``event`` scheduler
collapses each memory phase analytically (:mod:`repro.sim.fastforward`),
so its exactness on Figure 11 configurations rests on the collapse, not
on the stepping loop the golden suite pins.  Hypothesis draws machines
(latency, interval, combining-store size, address generators), an
operation per phase (add, min, max, mul, fetch-add), an index pattern
(unit stride, one hot index, uniform random) and one- or two-phase
programs.  Every draw must give the same cycles, stats, memory image and
fetched values under ``event`` as under ``legacy``, and the numpy
reference's memory image.  Every draw here passes the uniformity
predicate, so each must really collapse (``engine.windows_collapsed``),
or the sweep would only be testing the stepping fallback.

A failure hypothesis shrinks is committed as an explicit test case below
the sweep.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api import scatter_op_reference
from repro.config import MachineConfig
from repro.node.agu import StreamMemOp
from repro.node.processor import StreamProcessor
from repro.node.program import Phase, StreamProgram

OPS = ("scatter_add", "scatter_min", "scatter_max", "scatter_mul",
       "fetch_add")

#: Operands per operation, chosen so every engine and numpy agree
#: bit-for-bit whatever order updates combine in: integers for the sums,
#: signed powers of two for products.
OPERANDS = {
    "scatter_add": st.integers(-8, 8).map(float),
    "fetch_add": st.integers(1, 8).map(float),
    "scatter_min": st.integers(-50, 50).map(float),
    "scatter_max": st.integers(-50, 50).map(float),
    "scatter_mul": st.sampled_from((-2.0, -1.0, 0.5, 1.0, 2.0)),
}


@st.composite
def indices(draw, targets):
    refs = draw(st.integers(1, 80))
    pattern = draw(st.sampled_from(("unit", "hot", "random")))
    if pattern == "unit":
        start = draw(st.integers(0, targets - 1))
        return [(start + k) % targets for k in range(refs)]
    if pattern == "hot":
        return [draw(st.integers(0, targets - 1))] * refs
    return draw(st.lists(st.integers(0, targets - 1), min_size=refs,
                         max_size=refs))


@st.composite
def phases(draw, targets, agus):
    """One phase: a single operation, its references split over AGUs."""
    op = draw(st.sampled_from(OPS))
    addrs = draw(indices(targets))
    values = draw(st.lists(OPERANDS[op], min_size=len(addrs),
                           max_size=len(addrs)))
    streams = draw(st.integers(1, min(agus, len(addrs))))
    return op, [(addrs[k::streams], values[k::streams])
                for k in range(streams)]


@st.composite
def draws(draw):
    config = MachineConfig.uniform(
        latency=draw(st.integers(1, 300)),
        interval=draw(st.integers(1, 4)),
        combining_store_entries=draw(st.integers(1, 12)),
    ).with_changes(address_generators=draw(st.integers(1, 4)))
    targets = draw(st.integers(1, 48))
    initial = draw(st.lists(st.integers(-4, 4).map(float),
                            min_size=targets, max_size=targets))
    program = [draw(phases(targets, config.address_generators))
               for _ in range(draw(st.integers(1, 2)))]
    return config, initial, program


def simulate(engine, config, initial, program):
    processor = StreamProcessor(config, engine=engine)
    processor.load_array(0, np.asarray(initial))
    ops = [[StreamMemOp(op, list(addrs), list(values))
            for addrs, values in streams] for op, streams in program]
    result = processor.run(StreamProgram([Phase(phase) for phase in ops]))
    memory = processor.read_result(0, len(initial))
    fetched = [[op.result for op in phase] for phase in ops]
    return result.cycles, result.stats.as_dict(), memory, fetched


def _model(stats):
    return {key: value for key, value in stats.items()
            if not key.startswith("engine.")}


def _assert_serial(before, after, streams, fetched):
    """Fetch-add old values must come from some serial order.

    Per address, serial updates ``x[k+1] = x[k] + v`` return ``x[0..n-1]``
    as the old values, so the old values plus the final word equal the
    initial word plus every ``old + v`` as multisets.
    """
    olds, news = Counter(), Counter()
    for (addrs, values), returned in zip(streams, fetched):
        for addr, value, old in zip(addrs, values, returned):
            olds[addr, old] += 1
            news[addr, old + value] += 1
    for addr in {addr for addrs, __ in streams for addr in addrs}:
        olds[addr, after[addr]] += 1
        news[addr, before[addr]] += 1
    assert olds == news


def check(config, initial, program):
    cycles, stats, memory, fetched = simulate("event", config, initial,
                                              program)
    ref_cycles, ref_stats, ref_memory, ref_fetched = simulate(
        "legacy", config, initial, program)
    assert cycles == ref_cycles
    assert _model(stats) == _model(ref_stats)
    np.testing.assert_array_equal(memory, ref_memory)
    assert fetched == ref_fetched
    assert stats["engine.windows_collapsed"] == len(program)

    expected = np.asarray(initial, dtype=np.float64)
    for (op, streams), returned in zip(program, fetched):
        before = expected
        for addrs, values in streams:
            expected = scatter_op_reference(op, expected, addrs, values)
        if op == "fetch_add":
            _assert_serial(before, expected, streams, returned)
    np.testing.assert_array_equal(memory, expected)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(draws())
def test_event_matches_legacy_and_numpy(draw):
    check(*draw)
