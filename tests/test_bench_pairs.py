"""Tests for the paired perfbench time gate (``benchmarks.pairs``).

Tier-1 runs no perfbench: every test feeds the gate synthetic result rows.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import pairs

SPEC = json.loads(pairs.BENCHMARK_JSON.read_text(encoding="utf-8"))
METRICS = SPEC["end_to_end"]


def row(correct: bool = True, failed: int = 0, **values: float) -> dict:
    """A perfbench result line; every end-to-end metric reads 1.0 unless given."""
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 1.0), "unit": metric["unit"]}
        for metric in METRICS
    }
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def worse(metric: dict, fraction: float) -> float:
    """The value ``fraction`` worse than 1.0 in ``metric``'s direction."""
    return 1.0 + fraction if metric["better"] == "lower" else 1.0 - fraction


def regressions(parent: list[dict], change: list[dict]) -> list[str]:
    return pairs.compare(parent, change, SPEC)[1]


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric["name"])
class TestBounds:
    def test_just_over_the_bound_fails(self, metric):
        change = row(**{metric["name"]: worse(metric, metric["bound"] + 0.01)})
        (found,) = regressions([row()] * 3, [change] * 3)
        assert metric["name"] in found

    def test_just_under_the_bound_passes(self, metric):
        change = row(**{metric["name"]: worse(metric, metric["bound"] - 0.01)})
        assert regressions([row()] * 3, [change] * 3) == []

    def test_far_better_passes(self, metric):
        change = row(**{metric["name"]: worse(metric, -0.5)})
        assert regressions([row()] * 3, [change] * 3) == []


class TestVerdict:
    def test_one_spiked_run_of_three_passes(self):
        spiked = row(**{metric["name"]: worse(metric, 0.9) for metric in METRICS})
        assert regressions([row()] * 3, [row(), spiked, row()]) == []

    def test_larger_failed_share_fails(self):
        (found,) = regressions([row()] * 3, [row(), row(failed=1), row()])
        assert "failed share" in found
        assert regressions([row(failed=1), row(), row()], [row(), row(failed=1), row()]) == []

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_incorrect_run_fails(self, side):
        runs = {"parent": [row()] * 3, "change": [row()] * 3}
        runs[side] = [row(), row(correct=False), row()]
        (found,) = regressions(runs["parent"], runs["change"])
        assert "correct: false" in found

    @pytest.mark.parametrize("jobs_per_s, status", [(1.0, 0), (0.5, 1)])
    def test_main_alternates_sides(self, jobs_per_s, status, monkeypatch, capsys):
        calls = []

        def run_once(tree, workload, spec):
            calls.append((tree, workload))
            return row(jobs_per_s=jobs_per_s) if tree == "change" else row()

        monkeypatch.setattr(pairs, "run_once", run_once)
        assert pairs.main(["parent", "change"]) == status
        out = capsys.readouterr().out
        verdict = "REGRESSION" if status else "no regression"
        for workload in (entry["name"] for entry in SPEC["workloads"]):
            sides = [tree for tree, name in calls if name == workload]
            assert sides == ["parent", "change", "change", "parent", "parent", "change"]
            assert f"## {workload}: {verdict}" in out
