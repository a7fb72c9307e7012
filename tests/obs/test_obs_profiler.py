"""repro.obs.profiler: per-op aggregation, phase merging, reports, tables."""

from __future__ import annotations

from repro.obs.profiler import EngineProfiler, OpStat


class TestEngineProfiler:
    def test_record_op_aggregates_calls_seconds_and_phases(self):
        profiler = EngineProfiler()
        profiler.record_op("conv1", "conv", "sparse-gemm", 0.010,
                           phases={"gather": 0.004, "gemm": 0.006})
        profiler.record_op("conv1", "conv", "sparse-gemm", 0.020,
                           phases={"gather": 0.008, "gemm": 0.012})
        profiler.record_op("add", "ewise", "", 0.001)
        profiler.record_run(0.031)
        report = profiler.report()
        assert report["runs"] == 1
        assert report["total_ms"] == 31.0
        rows = {row["op"]: row for row in report["ops"]}
        assert rows["conv1"]["calls"] == 2
        assert rows["conv1"]["total_ms"] == 30.0
        assert rows["conv1"]["mean_ms"] == 15.0
        assert rows["conv1"]["phases_ms"] == {"gather": 12.0, "gemm": 18.0}
        assert "phases_ms" not in rows["add"]  # elementwise ops have no phases

    def test_record_ops_is_record_op_per_row(self):
        rows = [("conv1", "conv", "m", 0.010, {"gather": 0.004, "gemm": 0.006}),
                ("add", "ewise", "", 0.001, None),
                ("conv1", "conv", "m", 0.020, {"gather": 0.008, "gemm": 0.012})]
        batched, single = EngineProfiler(), EngineProfiler()
        batched.record_ops(rows)
        for row in rows:
            single.record_op(*row)
        assert batched.report(digits=9) == single.report(digits=9)

    def test_report_sorts_by_total_time_and_shares_sum_to_one(self):
        profiler = EngineProfiler()
        profiler.record_op("slow", "conv", "m", 0.09)
        profiler.record_op("fast", "conv", "m", 0.01)
        report = profiler.report()
        assert [row["op"] for row in report["ops"]] == ["slow", "fast"]
        assert sum(row["share"] for row in report["ops"]) == 1.0

    def test_top_ops_is_a_bounded_name_to_ms_dict(self):
        profiler = EngineProfiler()
        for i in range(10):
            profiler.record_op(f"op{i}", "conv", "m", (10 - i) / 1e3)
        top = profiler.top_ops(limit=3)
        assert list(top) == ["op0", "op1", "op2"]
        assert top["op0"] == 10.0

    def test_table_renders_every_row_and_the_footer(self):
        profiler = EngineProfiler()
        profiler.record_op("conv1", "conv", "sparse-gemm", 0.010,
                           phases={"gemm": 0.010})
        profiler.record_run(0.010)
        text = profiler.table()
        assert "conv1" in text and "gemm=10.00" in text
        assert "1 profiled forward(s)" in text

    def test_reset_clears_everything(self):
        profiler = EngineProfiler()
        profiler.record_op("conv1", "conv", "m", 0.01)
        profiler.record_run(0.01)
        profiler.reset()
        report = profiler.report()
        assert report["ops"] == [] and report["runs"] == 0

    def test_opstat_as_dict_handles_zero_totals(self):
        stat = OpStat("op", "conv", "m")
        row = stat.as_dict(total_seconds=0.0)
        assert row["share"] == 0.0 and row["mean_ms"] == 0.0
