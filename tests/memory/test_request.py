"""Tests for memory request types and the atomic-operation algebra."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.memory.request import (
    ATOMIC_OPS,
    OP_FETCH_ADD,
    OP_READ,
    OP_SCATTER_ADD,
    OP_SCATTER_MAX,
    OP_SCATTER_MIN,
    OP_SCATTER_MUL,
    OP_WRITE,
    MemoryRequest,
    MemoryResponse,
    combine,
    identity_value,
)
from repro.node.agu import StreamMemOp

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


class TestCombine:
    def test_add(self):
        assert combine(OP_SCATTER_ADD, 2.0, 3.5) == 5.5

    def test_fetch_add_same_as_add(self):
        assert combine(OP_FETCH_ADD, 1.0, 1.0) == 2.0

    def test_min_max_mul(self):
        assert combine(OP_SCATTER_MIN, 2.0, -1.0) == -1.0
        assert combine(OP_SCATTER_MAX, 2.0, -1.0) == 2.0
        assert combine(OP_SCATTER_MUL, 2.0, 3.0) == 6.0

    def test_non_atomic_rejected(self):
        with pytest.raises(ValueError):
            combine(OP_READ, 1.0, 2.0)
        with pytest.raises(ValueError):
            combine(OP_WRITE, 1.0, 2.0)

    @given(finite)
    def test_identity_is_neutral(self, value):
        for op in ATOMIC_OPS:
            assert combine(op, identity_value(op), value) == value

    @given(finite, finite, finite)
    def test_associativity_add(self, a, b, c):
        left = combine(OP_SCATTER_ADD, combine(OP_SCATTER_ADD, a, b), c)
        right = combine(OP_SCATTER_ADD, a, combine(OP_SCATTER_ADD, b, c))
        assert math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-6)

    @given(finite, finite)
    def test_commutativity(self, a, b):
        for op in (OP_SCATTER_ADD, OP_SCATTER_MIN, OP_SCATTER_MAX):
            assert combine(op, a, b) == combine(op, b, a)

    def test_identity_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            identity_value("bogus")


class TestRequest:
    def test_atomic_flag(self):
        assert MemoryRequest(OP_SCATTER_ADD, 0).is_atomic
        assert MemoryRequest(OP_FETCH_ADD, 0).is_atomic
        assert not MemoryRequest(OP_READ, 0).is_atomic
        assert not MemoryRequest(OP_WRITE, 0).is_atomic

    def test_wants_data(self):
        # Only data-carrying ops get a result buffer on the stream op
        # that issues them.
        for op, wants in ((OP_READ, True), (OP_FETCH_ADD, True),
                          (OP_SCATTER_ADD, False), (OP_WRITE, False)):
            assert (StreamMemOp(op, [0], 1.0).result is not None) == wants

    def test_defaults(self):
        request = MemoryRequest(OP_WRITE, 10, value=1.5)
        assert request.words == 1
        assert request.reply_to is None
        assert request.combining is False

    def test_response_round_trip(self):
        response = MemoryResponse(OP_READ, 7, 3.25, tag="t")
        assert (response.op, response.addr, response.value, response.tag) == (
            OP_READ, 7, 3.25, "t")

    def test_memory_request_has_no_dict(self):
        request = MemoryRequest(OP_SCATTER_ADD, addr=7, value=1.0)
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.arbitrary_attribute = 1
