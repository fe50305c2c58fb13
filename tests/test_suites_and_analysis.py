"""Tests for workload suites, competitive estimates, statistics and reporting."""

import pytest

from repro.analysis.competitive import CompetitiveEstimate, flow_time_competitive_estimate
from repro.analysis.reporting import ExperimentTable, render_report
from repro.analysis.statistics import describe
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.engine import FlowTimeEngine
from repro.workloads.suites import WorkloadSuite, standard_suites


class TestWorkloadSuites:
    def test_standard_suites_exist(self):
        suites = standard_suites("small")
        assert set(suites) == {"flow", "weighted", "deadline", "scenarios"}
        assert "poisson-pareto" in suites["flow"].labels()
        assert "flash-crowd" in suites["scenarios"].labels()

    def test_build_is_lazy_and_rebuildable(self):
        suite = standard_suites("small")["flow"]
        first = suite.build("poisson-pareto")
        second = suite.build("poisson-pareto")
        assert first.to_dict() == second.to_dict()

    def test_scales_change_size(self):
        small = standard_suites("small")["flow"].build("poisson-pareto")
        medium = standard_suites("medium")["flow"].build("poisson-pareto")
        assert medium.num_jobs > small.num_jobs

    def test_unknown_scale(self):
        with pytest.raises(InvalidParameterError):
            standard_suites("giant")

    def test_unknown_label(self):
        suite = standard_suites("small")["flow"]
        with pytest.raises(KeyError):
            suite.build("does-not-exist")

    def test_duplicate_label_rejected(self):
        suite = WorkloadSuite(name="custom")
        suite.add("x", lambda: None)
        with pytest.raises(InvalidParameterError):
            suite.add("x", lambda: None)

    def test_build_all(self):
        suite = standard_suites("small")["deadline"]
        instances = suite.build_all()
        assert set(instances) == set(suite.labels())


class TestCompetitiveEstimates:
    def test_flow_time_estimate_brackets(self, random_instance):
        result = FlowTimeEngine(random_instance).run(RejectionFlowTimeScheduler(epsilon=0.5))
        estimate = flow_time_competitive_estimate(result, theoretical_bound=18.0)
        assert estimate.ratio_vs_lower_bound >= estimate.ratio_vs_reference > 0
        assert estimate.within_theoretical_bound is not None

    def test_estimate_row_and_bound_flag(self):
        estimate = CompetitiveEstimate(
            algorithm="x", cost=10.0, lower_bound=2.0, reference_cost=5.0, theoretical_bound=4.0
        )
        assert estimate.ratio_vs_lower_bound == pytest.approx(5.0)
        assert estimate.ratio_vs_reference == pytest.approx(2.0)
        assert estimate.within_theoretical_bound is False
        assert estimate.as_row()["ratio_vs_lb"] == pytest.approx(5.0)


class TestStatistics:
    def test_describe(self):
        dist = describe([1.0, 2.0, 3.0, 4.0])
        assert dist.count == 4
        assert dist.mean == pytest.approx(2.5)
        assert dist.median == pytest.approx(2.5)
        assert dist.minimum == 1.0 and dist.maximum == 4.0

    def test_describe_empty(self):
        assert describe([]).count == 0


class TestReporting:
    def test_table_rendering(self):
        table = ExperimentTable(title="demo", columns=("a", "b"))
        table.add_row({"a": 1, "b": 2.0})
        table.add_note("footnote")
        text = table.render()
        assert "demo" in text and "footnote" in text

    def test_missing_columns_filled(self):
        table = ExperimentTable(title="demo", columns=("a", "b"))
        table.add_row({"a": 1})
        assert table.rows[0]["b"] == ""

    def test_unknown_column_rejected(self):
        table = ExperimentTable(title="demo", columns=("a",))
        with pytest.raises(InvalidParameterError):
            table.add_row({"a": 1, "zzz": 2})

    def test_column_accessor(self):
        table = ExperimentTable(title="demo", columns=("a",))
        table.add_row({"a": 1})
        table.add_row({"a": 2})
        assert table.column("a") == [1, 2]
        with pytest.raises(InvalidParameterError):
            table.column("zzz")

    def test_render_report_concatenates(self):
        table = ExperimentTable(title="demo", columns=("a",))
        table.add_row({"a": 1})
        report = render_report([table, table], header="HEADER")
        assert report.startswith("HEADER")
        assert report.count("demo") == 2
