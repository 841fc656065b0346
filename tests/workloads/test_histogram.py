"""Tests for the histogram workload."""

import numpy as np
import pytest

from repro.workloads.histogram import HistogramWorkload, generate_dataset


class TestDataset:
    def test_range_respected(self):
        data = generate_dataset(1000, 64, seed=1)
        assert data.min() >= 0
        assert data.max() < 64

    def test_deterministic(self):
        assert np.array_equal(generate_dataset(100, 16, seed=3),
                              generate_dataset(100, 16, seed=3))

    def test_roughly_uniform(self):
        data = generate_dataset(64_000, 64, seed=0)
        counts = np.bincount(data, minlength=64)
        assert counts.min() > 700  # expectation 1000 each

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            generate_dataset(10, 0)


class TestHistogramWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return HistogramWorkload(512, 64, seed=0)

    def test_reference_counts_sum_to_n(self, workload):
        assert workload.reference().sum() == 512

    def test_hardware_matches_reference(self, workload, table1):
        result = workload.run_hardware(table1)
        assert np.array_equal(result.result, workload.reference())

    def test_sortscan_matches_reference(self, workload, table1):
        result = workload.run_sortscan(table1)
        assert np.array_equal(result.result, workload.reference())

    def test_privatization_matches_reference(self, workload, table1):
        result = workload.run_privatization(table1)
        assert np.array_equal(result.result, workload.reference())

    def test_hardware_faster_than_software(self, table1):
        workload = HistogramWorkload(4096, 2048, seed=0)
        hardware = workload.run_hardware(table1)
        software = workload.run_sortscan(table1)
        private = workload.run_privatization(table1)
        assert hardware.cycles < software.cycles
        assert hardware.cycles < private.cycles

    def test_chaining_ablation_still_correct(self, workload, table1):
        result = workload.run_hardware(table1, chaining=False)
        assert np.array_equal(result.result, workload.reference())

    def test_microseconds_property(self, workload, table1):
        result = workload.run_hardware(table1)
        assert result.microseconds == pytest.approx(result.cycles * 1e-3)
