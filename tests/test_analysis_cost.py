"""Tests for latency accounting, table rendering, and the cost model."""

import pytest

from repro.analysis.metrics import measure_backend_latency
from repro.analysis.tables import format_table
from repro.cost.model import CloudCostModel
from repro.errors import ConfigurationError
from repro.registers.abd import AbdProtocol
from repro.registers.base import RegisterSystem
from repro.workloads.generator import WorkloadGenerator


class TestMetrics:
    def test_abd_latency_report(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        plans = WorkloadGenerator(seed=1, spacing=60).plan(10)
        report = measure_backend_latency(system, plans, scenario="fault-free")
        assert report.worst_write == 1
        assert report.worst_read == 2
        assert report.incomplete == 0
        assert set(report.read_rounds) == {2}

    def test_wire_cross_check_active(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        plans = WorkloadGenerator(seed=2, spacing=60).plan(6)
        report = measure_backend_latency(system, plans)
        assert report.worst_read == 2  # would have raised on mismatch

    def test_empty_report_defaults(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        report = measure_backend_latency(system, [])
        assert report.worst_read == 0
        assert report.write_rounds == []


class TestTables:
    def test_format_alignment(self):
        text = format_table("T", ["a", "bb"], [{"a": "1", "bb": "2"}, {"a": "333"}])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_missing_cells_render_empty(self):
        text = format_table("T", ["a", "b"], [{"a": "1"}])
        assert text.splitlines()[-1].startswith("1")


class TestCostModel:
    def test_requests_scale_with_rounds_and_objects(self):
        model = CloudCostModel(S=4)
        assert model.operation(2).requests == 8
        assert model.operation(4).requests == 16

    def test_protocol_cost_ratio_is_rounds_ratio(self):
        """The paper's motivation: extra rounds are proportional dollars."""
        model = CloudCostModel(S=4)
        atomic_read = model.operation(4)
        token_read = model.operation(3)
        assert atomic_read.dollars / token_read.dollars == pytest.approx(4 / 3)

    def test_latency_scales_with_rtt(self):
        model = CloudCostModel(S=4, rtt_ms=50.0)
        assert model.operation(2).latency_ms == 100.0

    def test_workload_total(self):
        model = CloudCostModel(S=4, price_per_request=1e-6)
        total = model.workload(reads=10, read_rounds=4, writes=5, write_rounds=2)
        assert total == pytest.approx((10 * 16 + 5 * 8) * 1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CloudCostModel(S=0)
        with pytest.raises(ConfigurationError):
            CloudCostModel(S=1, rtt_ms=-1)
        with pytest.raises(ConfigurationError):
            CloudCostModel(S=1).operation(-1)
