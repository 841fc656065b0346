"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures.  The
rendered rows are printed (visible with ``pytest -s``) and also written to
``results/<exp_id>.txt`` so EXPERIMENTS.md can reference the artefacts.

Environment knobs:

- ``REPRO_BENCH_SCALE`` -- trace scale factor for the multi-node benchmark
  (default 0.25; 1.0 reproduces the paper's full trace sizes).
- ``REPRO_BENCH_FULL=1`` -- run every benchmark at full paper scale.
- ``REPRO_SCHEDULER`` -- the process-wide scheduler (read by
  :mod:`repro.sim.engine` at import); every scheduler writes
  bit-identical tables.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_scale():
    if os.environ.get("REPRO_BENCH_FULL"):
        return 1.0
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def full_scale():
    return bool(os.environ.get("REPRO_BENCH_FULL"))


@pytest.fixture
def record():
    """Persist and print an ExperimentResult."""

    def _record(result):
        RESULTS_DIR.mkdir(exist_ok=True)
        text = result.render()
        (RESULTS_DIR / (result.exp_id + ".txt")).write_text(text + "\n")
        print("\n" + text)
        return result

    return _record
