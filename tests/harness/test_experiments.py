"""Shape tests for the experiment harness (reduced-size versions).

Each test runs a scaled-down instance of one of the paper's experiments
and asserts the *qualitative* finding the paper reports for it.
"""

import numpy as np
import pytest

from repro.harness import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    format_table,
    network_ablation,
    table1,
)


class TestTable1:
    def test_lists_all_parameters(self):
        result = table1()
        names = result.column("parameter")
        for expected in ("cache_banks", "fu_latency",
                         "combining_store_entries", "dram_channels"):
            assert expected in names

    def test_render(self):
        text = table1().render()
        assert "table1" in text
        assert "cache_banks" in text

    def test_network_prints_one_row_per_field(self):
        rows = dict(zip(table1().column("parameter"),
                        table1().column("value")))
        assert "network" not in rows
        assert rows["network.nodes"] == 1
        assert rows["network.link_bw_words"] == 8
        assert rows["network.topology"] == "crossbar"
        assert not any("NetworkConfig" in str(value)
                       for value in rows.values())


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return figure6(sizes=(256, 1024, 4096), index_range=512)

    def test_hardware_always_wins(self, result):
        assert min(result.column("speedup")) > 1.0

    def test_speedup_grows_with_n(self, result):
        speedups = result.column("speedup")
        assert speedups == sorted(speedups)

    def test_both_methods_linear(self, result):
        hw = result.column("scatter_add_us")
        sw = result.column("sort_scan_us")
        # 16x the input -> time grows but far less than 32x (O(n) + fixed)
        assert hw[-1] / hw[0] < 16
        assert 4 < sw[-1] / sw[0] < 20


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure7(length=8192, ranges=(1, 16, 256, 4096, 262144))

    def test_hot_bank_penalty_at_range_one(self, result):
        times = result.column("scatter_add_us")
        assert times[0] > 3 * times[2]  # range 1 much slower than 256

    def test_cache_cliff_at_large_range(self, result):
        times = result.column("scatter_add_us")
        assert times[-1] > 1.5 * times[2]  # 256K bins slower than 256

    def test_software_roughly_flat(self, result):
        times = result.column("sort_scan_us")
        assert max(times) < 2 * min(times)


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return figure8(lengths=(1024,), ranges=(128, 1024, 8192))

    def test_speedup_grows_with_range(self, result):
        speedups = result.column("speedup")
        assert speedups == sorted(speedups)

    def test_order_of_magnitude_at_large_range(self, result):
        assert result.column("speedup")[-1] > 10


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return figure9(mesh_dims=(3, 3, 2))

    def test_winner_ordering(self, result):
        cycles = dict(zip(result.column("method"),
                          result.column("exec_cycles_M")))
        assert cycles["EBE HW scatter-add"] < cycles["CSR"]
        assert cycles["CSR"] < cycles["EBE SW scatter-add"]

    def test_ebe_has_more_flops_fewer_refs(self, result):
        rows = {row["method"]: row for row in result.rows}
        assert (rows["EBE HW scatter-add"]["fp_ops_M"]
                > rows["CSR"]["fp_ops_M"])
        assert (rows["EBE HW scatter-add"]["mem_refs_M"]
                < rows["CSR"]["mem_refs_M"])


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return figure10(molecules=80)

    def test_winner_ordering(self, result):
        cycles = dict(zip(result.column("method"),
                          result.column("exec_cycles_M")))
        assert (cycles["HW scatter-add"] < cycles["no scatter-add"]
                < cycles["SW scatter-add"])

    def test_duplication_doubles_flops(self, result):
        ops = dict(zip(result.column("method"), result.column("fp_ops_M")))
        assert ops["no scatter-add"] > 1.4 * ops["HW scatter-add"]


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return figure11(entries=(2, 16, 64), memory_latencies=(8, 256),
                        fu_latencies=(2, 16), length=256)

    def test_more_entries_never_slower(self, result):
        for column in result.columns[1:]:
            times = result.column(column)
            assert times[0] >= times[-1]

    def test_large_store_hides_memory_latency(self, result):
        last = result.rows[-1]  # 64 entries
        assert last["mem256_us"] < 2.0 * last["mem8_us"]

    def test_small_store_exposed_to_latency(self, result):
        first = result.rows[0]  # 2 entries
        assert first["mem256_us"] > 5.0 * first["mem8_us"]

    def test_sixteen_entries_hide_fu_latency(self, result):
        mid = result.rows[1]  # 16 entries
        assert mid["fu16_us"] < 1.1 * mid["fu2_us"]


class TestFigure12:
    @pytest.fixture(scope="class")
    def result(self):
        return figure12(entries=(2, 64), intervals=(1, 16),
                        ranges=(16, 65536), length=256)

    def test_wide_range_bandwidth_bound(self, result):
        # Even 64 entries cannot overcome low bandwidth on a wide range.
        last = result.rows[-1]
        assert last["r65536_i16_us"] > 4 * last["r65536_i1_us"]

    def test_combining_rescues_narrow_range(self, result):
        small, large = result.rows[0], result.rows[-1]
        assert large["r16_i16_us"] < 0.5 * small["r16_i16_us"]


class TestFigure13:
    @pytest.fixture(scope="class")
    def result(self):
        return figure13(node_counts=(1, 4),
                        series=(("narrow", 8, False), ("narrow", 1, False),
                                ("narrow", 1, True)),
                        scale=0.05)

    def test_high_bandwidth_scales(self, result):
        series = result.column("narrow-high")
        assert series[-1] > 2.5 * series[0]

    def test_low_bandwidth_stalls(self, result):
        series = result.column("narrow-low")
        assert series[-1] < 2 * series[0]

    def test_combining_beats_plain_on_low_bandwidth(self, result):
        last = result.rows[-1]
        assert last["narrow-low-comb"] > last["narrow-low"]


class TestNetworkAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return network_ablation(node_counts=(4, 16), refs_per_node=16)

    def test_shape(self, result):
        assert result.columns == ["nodes", "workload", "memory", "network",
                                  "both", "combined", "home_drop_pct"]
        assert len(result.rows) == 4  # 2 node counts x 2 workloads

    def test_in_network_combining_merges_on_skew(self, result):
        skewed = [row for row in result.rows if row["workload"] == "skewed"]
        for row in skewed:
            assert row["combined"] > 0
            assert row["home_drop_pct"] > 0

    def test_combining_helps_more_at_scale(self, result):
        skewed = [row for row in result.rows if row["workload"] == "skewed"]
        speedups = [row["memory"] / row["both"] for row in skewed]
        assert speedups[-1] >= speedups[0]

    def test_render_includes_figure(self, result):
        text = result.render()
        assert "network_ablation" in text
        assert "log x, log y" in text


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [{"a": 1, "bb": 2.5},
                                          {"a": 10, "bb": 0.125}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_missing_cell_rendered_empty(self):
        text = format_table(["a", "b"], [{"a": 1}])
        assert text
