"""Process-pool semantics of ``sweep(..., workers=N)``.

Measure functions live at module level: they cross the fork/pickle
boundary into the worker processes.
"""

import os
import sys

import pytest

from repro.config import MachineConfig
from repro.harness.sweep import sweep

#: Directory the attempt-counting measure writes into; set by the test
#: before the pool forks, so workers inherit it.
ATTEMPTS_DIR = None


def square_latency(config):
    return {"square": config.fu_latency * config.fu_latency}


def count_then_fail(config):
    """Record every attempt; fail deterministically on fu_latency 1."""
    path = os.path.join(ATTEMPTS_DIR, str(config.fu_latency))
    with open(path, "a") as handle:
        handle.write("x")
    if config.fu_latency == 1:
        raise ValueError("bad point %d" % config.fu_latency)
    return {"ok": 1}


class TestBasics:
    def test_map_preserves_submission_order(self):
        values = list(range(1, 21))
        result = sweep(MachineConfig.table1(), "fu_latency", values,
                       square_latency, workers=3)
        assert result.column("fu_latency") == values
        assert result.column("square") == [v * v for v in values]


class TestFailure:
    def test_task_exception_propagates_without_retry(self, tmp_path,
                                                     monkeypatch):
        """Deterministic measure errors fail at once: no re-execution."""
        monkeypatch.setattr(sys.modules[__name__], "ATTEMPTS_DIR",
                            str(tmp_path))
        with pytest.raises(ValueError, match="bad point 1"):
            sweep(MachineConfig.table1(), "fu_latency", (1, 2, 3),
                  count_then_fail, workers=2)
        assert (tmp_path / "1").read_text() == "x"
