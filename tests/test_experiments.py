"""Smoke tests for the experiment suite (E1-E10) at miniature scale."""

import pytest

from repro.analysis.reporting import ExperimentTable
from repro.exceptions import InvalidParameterError
from repro.experiments import EXPERIMENTS, available_experiments, run_experiment


class TestRegistry:
    def test_all_experiments_listed(self):
        assert set(available_experiments()) == {
            *(f"E{i}" for i in range(1, 11)),
            "E12",
            "E14",
            "E15",
            "E16",
            "E17",
        }

    def test_descriptions_non_empty(self):
        assert all(description for description in available_experiments().values())

    def test_unknown_experiment(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("E42")

    def test_case_insensitive(self):
        result = run_experiment("e5", alphas=(2.0,))
        assert result.experiment_id == "E5"


class TestExperimentRuns:
    """Each experiment runs end to end with a tiny configuration and produces rows."""

    def _check(self, result, expect_rows=True):
        assert result.tables
        assert all(isinstance(table, ExperimentTable) for table in result.tables)
        if expect_rows:
            assert all(table.rows for table in result.tables)
        rendered = result.render()
        assert result.experiment_id in rendered

    def test_e1_flow_time(self):
        result = run_experiment(
            "E1", epsilons=(0.5,), workloads=("poisson-pareto",), include_baselines=True
        )
        self._check(result)
        for row in result.raw["rows"]:
            if row["epsilon"] != "-":
                assert row["rejected_fraction"] <= row["budget_2eps"] + 1e-9
                assert row["ratio_vs_lb"] <= row["paper_bound"] + 1e-9

    def test_e2_immediate_rejection(self):
        result = run_experiment("E2", lengths=(4.0, 8.0), epsilon=0.25)
        self._check(result)
        rows = result.raw["rows"]
        ours = [r for r in rows if "rejection-flow-time" in r["algorithm"]]
        immediate = [r for r in rows if "immediate" in r["algorithm"]]
        # The immediate-rejection policies degrade as L grows; ours stays flat-ish.
        assert max(r["ratio_vs_lb"] for r in immediate) > max(r["ratio_vs_lb"] for r in ours)
        # Lemma 1: the worst immediate-rejection ratio more than doubles from
        # the smallest L to the largest, while Theorem 1 holds at every L.
        worst = {}
        for r in immediate:
            worst[r["L"]] = max(worst.get(r["L"], 0.0), r["ratio_vs_lb"])
        assert worst[max(worst)] > 2.0 * worst[min(worst)]
        assert all(r["ratio_vs_lb"] <= r["theorem1_bound"] + 1e-9 for r in ours)

    def test_e3_energy_flow(self):
        result = run_experiment("E3", alphas=(2.0,), epsilons=(0.5,), num_jobs=40)
        self._check(result)
        for row in result.raw["rows"]:
            if row["epsilon"] != "-":
                assert row["rejected_weight_fraction"] <= row["budget_eps"] + 1e-9

    def test_e4_energy_min(self):
        result = run_experiment(
            "E4", alphas=(2.0,), slacks=(3.0,), num_jobs=8, seed=3,
            include_brute_force=True, brute_force_jobs=2,
        )
        self._check(result)
        greedy_rows = [r for r in result.raw["rows"] if r["algorithm"] == "config-lp-greedy"]
        assert all(r["ratio_vs_lb"] >= 1.0 - 1e-9 for r in greedy_rows)
        # Theorem 3 against the exact optimum over the greedy's own strategy
        # space: never below it, never above alpha^alpha.
        (row,) = result.raw["brute_force"]
        assert 1.0 - 1e-9 <= row["ratio_vs_opt"] <= row["alpha"] ** row["alpha"] + 1e-6

    def test_e5_lemma2(self):
        result = run_experiment("E5", alphas=(2.0, 3.0))
        self._check(result)
        rows = result.raw["rows"]
        assert all(row["forced_ratio"] <= row["theorem3_bound"] + 1e-6 for row in rows)
        assert rows[-1]["forced_ratio"] > rows[0]["forced_ratio"]

    def test_e6_speed_vs_rejection(self):
        result = run_experiment("E6", epsilons=(0.5,), workloads=("poisson-pareto",))
        self._check(result)
        ratios = {row["model"]: row["ratio_vs_lb"] for row in result.raw["rows"]}
        assert set(ratios) == {"rejection-only (Thm 1)", "speed+rejection (ESA'16)"}
        # Rejection alone on unit-speed machines stays within a small factor
        # of the speed-augmented baseline on the same workload.
        assert ratios["rejection-only (Thm 1)"] <= 5.0 * ratios["speed+rejection (ESA'16)"]

    def test_e7_dual_fitting(self):
        result = run_experiment("E7", epsilons=(0.5,), num_jobs=25, samples_per_job=6)
        self._check(result)
        assert all(row["violations"] == 0 for row in result.raw["flow"])
        assert all(row["violations"] == 0 for row in result.raw["energy"])
        assert all(row["monotonicity_violations"] == 0 for row in result.raw["energy"])

    def test_e8_scalability(self):
        result = run_experiment("E8", job_counts=(100,), machine_counts=(2,))
        self._check(result)
        assert all(row["events_per_s"] > 0 for row in result.raw["rows"])

    def test_e9_ablation(self):
        result = run_experiment("E9", workloads=("lemma1-L16",), epsilon=0.25)
        self._check(result)
        rows = {row["rules"]: row for row in result.raw["rows"]}
        assert rows["no rejection"]["flow_time"] >= rows["both rules"]["flow_time"]

    def test_e14_robustness(self):
        result = run_experiment(
            "E14",
            scenarios=("flash-crowd", "heavy-tail-pareto"),
            algorithms=("rejection-flow", "greedy"),
            num_jobs=30,
        )
        self._check(result)
        rows = result.tables[0].rows
        assert len(rows) == 4
        assert {row["scenario"] for row in rows} == {"flash-crowd", "heavy-tail-pareto"}
        # Within each (scenario, objective) group the best solver has ratio 1.0
        # and every ratio is at least 1.
        assert all(row["ratio_vs_best"] >= 1.0 for row in rows)
        for scenario in ("flash-crowd", "heavy-tail-pareto"):
            assert min(
                row["ratio_vs_best"] for row in rows if row["scenario"] == scenario
            ) == 1.0
        # Throughput measurement is off by default: no wall-clock anywhere.
        assert all(row["events_per_s"] == "" for row in rows)
        assert all("elapsed_s" not in row for row in result.raw["rows"])

    def test_e10_solver_compare(self):
        result = run_experiment(
            "E10", algorithms=("rejection-flow", "greedy", "srpt-pooled"), num_jobs=30
        )
        self._check(result)
        rows = result.tables[0].rows
        assert [row["algorithm"] for row in rows] == ["rejection-flow", "greedy", "srpt-pooled"]
        assert all(row["objective_value"] > 0 for row in rows)
