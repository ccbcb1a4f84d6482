"""Tests for the table/figure experiment drivers (small-scale runs).

Each driver is exercised at a reduced scale so the suite stays fast; the
full-size sweeps live in the benchmark harness.
"""

import pytest

from repro.experiments import capacity, common, decode_rate, figure1, figure3, scaling, table1, table2
from repro.trace.packed import pack_trace
from repro.workloads import registry


class TestCommonHelpers:
    def test_scales_cover_all_benchmarks(self):
        assert set(common.EXPERIMENT_SCALES) == set(registry.table1_names())

    def test_experiment_trace_truncation(self):
        trace = common.experiment_trace("MatMul", scale_factor=0.5, max_tasks=50)
        assert len(trace) == 50

    @pytest.mark.parametrize("name", registry.all_workload_names())
    def test_max_tasks_builds_the_full_trace_prefix(self, name):
        # The generator stops at max_tasks; what it built must be exactly
        # the prefix of the full trace, down to the packed bytes.
        for scale_factor in (1.0, 0.5):
            full = common.experiment_trace(name, scale_factor=scale_factor)
            size = len(full)
            for cut in (1, size // 2, size - 1, size, size + 5):
                prefix = common.experiment_trace(name, scale_factor=scale_factor,
                                                 max_tasks=cut)
                expected = full.subset(cut)
                assert prefix.name == expected.name
                assert prefix.tasks == expected.tasks
                assert prefix.metadata == expected.metadata
                assert (pack_trace(prefix).to_bytes()
                        == pack_trace(expected).to_bytes())

    def test_experiment_trace_synthetic_defaults(self):
        # Workloads without an EXPERIMENT_SCALES entry scale from their own
        # default, and constructor kwargs pass through.
        trace = common.experiment_trace("random_dag", scale_factor=2.0,
                                        width=4, depth=4)
        assert len(trace) == 32  # width * depth * (default_scale 1 * 2.0)

    def test_fast_generator_is_cheap(self):
        config = common.fast_generator_config()
        assert config.generation_cycles(4) < 50


class TestTable1:
    def test_rows_align_with_registry(self):
        rows = table1.run()
        assert [row["name"] for row in rows] == registry.table1_names()

    def test_format_contains_all_benchmarks(self):
        text = table1.format_table(table1.run())
        for name in registry.table1_names():
            assert name in text


class TestTable2:
    def test_rows_match_paper_structure(self):
        rows = table2.run()
        assert set(rows) == set(table2.PAPER_TABLE2)

    def test_key_values_present(self):
        rows = table2.run()
        assert "3.2GHz" in rows["Cores"]
        assert "22 cycles" in rows["L2"]
        assert "16 bytes/cycle" in rows["Interconnect"]
        assert "8 TRS / 2 ORT" in rows["Task pipeline"]
        assert "64KB" in table2.format_table(rows)


class TestFigure1:
    def test_graph_matches_paper(self):
        result = figure1.run()
        assert result.num_tasks == 35
        assert result.distant_parallel_pair_independent
        assert set(result.kernels) == {"spotrf", "strsm", "ssyrk", "sgemm"}
        assert result.max_width >= 4

    def test_dot_output_lists_every_task(self):
        result = figure1.run()
        dot = figure1.to_dot(result)
        assert dot.count("->") == len(result.true_edges)
        assert "t35" in dot
        assert "digraph" in dot

    def test_report_text(self):
        text = figure1.format_report(figure1.run())
        assert "35 tasks" in text


class TestFigure3:
    def test_points_follow_the_law(self):
        points = figure3.run()
        assert [p.num_processors for p in points] == [32, 64, 128, 256]
        assert points[-1].decode_limit_ns == pytest.approx(58.6, abs=0.1)
        assert points[0].software_utilization > points[-1].software_utilization

    def test_format(self):
        text = figure3.format_table(figure3.run())
        assert "T/P" in text and "21 processors" in text


class TestDecodeRateExperiment:
    @pytest.fixture(scope="class")
    def sweep(self):
        return decode_rate.sweep_workload("Cholesky", trs_counts=(1, 4), ort_counts=(1, 2),
                                          scale_factor=0.5, max_tasks=120)

    def test_sweep_covers_grid(self, sweep):
        assert len(sweep) == 4
        assert {(p.num_trs, p.num_ort) for p in sweep} == {(1, 1), (4, 1), (1, 2), (4, 2)}

    def test_more_parallelism_is_not_slower(self, sweep):
        by_key = {(p.num_trs, p.num_ort): p.decode_rate_cycles for p in sweep}
        assert by_key[(4, 2)] <= by_key[(1, 1)]

    def test_format_series(self, sweep):
        text = decode_rate.format_series(sweep)
        assert "Cholesky" in text and "1 ORT" in text

    def test_figure13_averages(self):
        points = decode_rate.figure13(trs_counts=(1, 4), ort_counts=(1,),
                                      workloads=("Cholesky", "MatMul"),
                                      scale_factor=0.4, max_tasks=80)
        assert len(points) == 2
        assert all(p.workload == "Average" for p in points)
        by_trs = {p.num_trs: p.decode_rate_cycles for p in points}
        assert by_trs[4] <= by_trs[1]


class TestCapacityExperiment:
    def test_ort_capacity_sweep_shape(self):
        points = capacity.sweep_ort_capacity("Cholesky", capacities=(16 * 1024, 512 * 1024),
                                             num_cores=64, scale_factor=0.5)
        assert len(points) == 2
        small, large = points
        assert small.capacity_bytes < large.capacity_bytes
        assert large.speedup >= small.speedup * 0.9

    def test_trs_capacity_sweep_shape(self):
        points = capacity.sweep_trs_capacity("Cholesky",
                                             capacities=(128 * 1024, 6 * 1024 * 1024),
                                             num_cores=64, scale_factor=0.5)
        assert points[-1].speedup >= points[0].speedup * 0.9
        assert points[-1].window_peak_tasks >= points[0].window_peak_tasks

    def test_format_series(self):
        series = {"Cholesky": capacity.sweep_ort_capacity(
            "Cholesky", capacities=(16 * 1024,), num_cores=32, scale_factor=0.4)}
        text = capacity.format_series(series, "ORT capacity")
        assert "16 KB" in text and "Cholesky" in text


class TestScalingExperiment:
    def test_point_reports_both_systems(self):
        trace = common.experiment_trace("MatMul", scale_factor=0.5)
        point = scaling.measure_point(trace, num_cores=32)
        assert point.hardware_speedup > 1.0
        assert point.software_speedup > 1.0

    def test_figure16_small(self):
        series = scaling.figure16(workloads=("MatMul",), processor_counts=(16, 64),
                                  scale_factor=0.5, include_average=True)
        assert set(series) == {"MatMul", "Average"}
        matmul = series["MatMul"]
        assert matmul[1].hardware_speedup >= matmul[0].hardware_speedup * 0.9
        # The hardware pipeline outpaces the 700 ns software decoder at 64 cores.
        assert matmul[1].hardware_speedup > matmul[1].software_speedup
        text = scaling.format_series(series)
        assert "MatMul" in text and "Average" in text
