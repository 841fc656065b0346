"""Saved runs (``ScatterRun.save``/``load``): exact round trip and
loud rejection of damaged files."""

import json
import os

import pytest

from repro.api import RUN_SCHEMA, ScatterRun, Simulation
from repro.config import MachineConfig


@pytest.fixture
def run():
    return Simulation(MachineConfig.uniform()).run(
        "scatter_add", [1, 2, 2, 3], 1.0, num_targets=5)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "run.json"


class TestRoundTrip:
    def test_miss_then_hit(self, run, path):
        with pytest.raises(FileNotFoundError):
            ScatterRun.load(path)
        run.save(path)
        assert ScatterRun.load(path).to_dict() == run.to_dict()

    def test_entry_records_schema_key_and_job(self, run, path):
        with open(run.save(path)) as handle:
            entry = json.load(handle)
        assert entry["schema"] == RUN_SCHEMA
        assert entry == run.to_dict()
        config = MachineConfig.from_dict(entry["config"])
        assert config.canonical_hash() == run.config.canonical_hash()

    def test_put_is_idempotent_and_leaves_no_temp_files(self, run, path):
        run.save(path)
        first = path.read_bytes()
        run.save(path)
        assert path.read_bytes() == first
        assert os.listdir(path.parent) == [path.name]


class TestCorruption:
    """Damaged files raise ValueError instead of loading a wrong run."""

    def test_truncated_entry(self, run, path):
        blob = run.save(path).read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            ScatterRun.load(path)

    def test_garbage_bytes(self, path):
        path.write_bytes(b"\x00\xff not json")
        with pytest.raises(ValueError):
            ScatterRun.load(path)

    def test_wrong_schema_tag(self, run, path):
        entry = run.to_dict()
        entry["schema"] = "repro.run/999"
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match="schema"):
            ScatterRun.load(path)

    def test_non_dict_payload(self, path):
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ValueError, match="schema"):
            ScatterRun.load(path)
