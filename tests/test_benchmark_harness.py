"""Tests for the unified benchmark harness (``repro.benchmarking``)."""

from __future__ import annotations

import json

import pytest

from repro.benchmarking import (
    ARTIFACT_PREFIX,
    SPECS,
    artifact_path,
    compare_to_baseline,
    main,
    run_benchmarks,
)
from repro.utils.serialization import canonical_json

#: Cheap, fast subset used throughout; scale shrinks workloads to test size.
_FAST = ["e1_flow_time", "event_queue", "solver_facade"]
_SCALE = 0.02

REQUIRED_SCHEMA_KEYS = {"bench", "n_jobs", "median_s", "events_per_sec", "fingerprint"}


@pytest.fixture(scope="module")
def fast_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    results = run_benchmarks(out, only=_FAST, repeats=1, scale=_SCALE)
    return out, results


class TestArtifacts:
    def test_one_artifact_per_bench_with_schema(self, fast_results):
        out, results = fast_results
        assert len(results) == len(_FAST)
        for result in results:
            path = artifact_path(out, result["bench"])
            assert path.name == f"{ARTIFACT_PREFIX}{result['bench']}.json"
            assert path.is_file()
            payload = json.loads(path.read_text())
            assert REQUIRED_SCHEMA_KEYS <= set(payload)
            assert payload["events_per_sec"] > 0
            assert payload["median_s"] > 0
            assert payload["n_jobs"] > 0

    def test_artifacts_are_canonical_json(self, fast_results):
        out, results = fast_results
        for result in results:
            text = artifact_path(out, result["bench"]).read_text()
            payload = json.loads(text)
            assert text == canonical_json(payload, indent=2) + "\n"

    def test_fingerprint_stable_across_runs(self, fast_results, tmp_path):
        _, results = fast_results
        rerun = run_benchmarks(tmp_path, only=["event_queue"], repeats=1, scale=_SCALE)
        (old,) = [r for r in results if r["bench"] == "event_queue"]
        assert rerun[0]["fingerprint"] == old["fingerprint"]

    def test_quick_subset_emits_at_least_three(self):
        quick = [spec for spec in SPECS.values() if spec.quick]
        assert len(quick) >= 3

    def test_unknown_slug_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            run_benchmarks(tmp_path, only=["nope"], repeats=1, scale=_SCALE)


class TestRegressionGate:
    def test_passes_against_own_results(self, fast_results):
        out, results = fast_results
        assert compare_to_baseline(results, out, max_regression=0.25) == ([], len(results))

    def test_detects_throughput_regression(self, fast_results, tmp_path):
        out, results = fast_results
        inflated = dict(results[0])
        inflated["events_per_sec"] = results[0]["events_per_sec"] * 10
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        artifact_path(baseline_dir, inflated["bench"]).write_text(
            canonical_json(inflated, indent=2)
        )
        failures, compared = compare_to_baseline(results, baseline_dir, max_regression=0.25)
        assert compared == 1 and len(failures) == 1
        assert inflated["bench"] in failures[0]

    def test_detects_fingerprint_change(self, fast_results, tmp_path):
        out, results = fast_results
        tampered = dict(results[0])
        tampered["fingerprint"] = "deadbeefdeadbeef"
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        artifact_path(baseline_dir, tampered["bench"]).write_text(
            canonical_json(tampered, indent=2)
        )
        failures, compared = compare_to_baseline(results, baseline_dir, max_regression=0.25)
        assert compared == 1 and len(failures) == 1
        assert "fingerprint" in failures[0]

    def test_missing_baseline_is_not_a_failure(self, fast_results, tmp_path):
        _, results = fast_results
        assert compare_to_baseline(results, tmp_path, max_regression=0.25) == ([], 0)


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for slug in SPECS:
            assert slug in out

    def test_run_and_gate_exit_codes(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(
            ["--only", "event_queue", "--repeats", "1", "--scale", str(_SCALE),
             "--out", str(out_dir), "--baseline", str(out_dir)]
        )
        # First run writes the artifact then compares against itself.
        assert code == 0
        assert "gate passed (1 of 1 benchmarks compared" in capsys.readouterr().out
        # Now tamper the baseline upwards to force a failure exit.
        payload = json.loads(artifact_path(out_dir, "event_queue").read_text())
        payload["events_per_sec"] *= 10
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        artifact_path(baseline_dir, "event_queue").write_text(canonical_json(payload, indent=2))
        code = main(
            ["--only", "event_queue", "--repeats", "1", "--scale", str(_SCALE),
             "--out", str(out_dir), "--baseline", str(baseline_dir)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_baseline_dir_exits_2_before_running(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["--only", "event_queue", "--repeats", "1", "--scale", str(_SCALE),
             "--out", str(out_dir), "--baseline", str(tmp_path / "no-such-dir")]
        )
        assert code == 2
        assert "no-such-dir" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_baseline_dir_without_matching_baselines_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        code = main(
            ["--only", "event_queue", "--repeats", "1", "--scale", str(_SCALE),
             "--out", str(out_dir), "--baseline", str(baseline_dir)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "none of the 1 benchmarks" in captured.err
        assert "passed" not in captured.out
        assert artifact_path(out_dir, "event_queue").is_file()

    def test_repro_bench_subcommand_delegates(self, tmp_path):
        from repro.cli import main as cli_main

        out_dir = tmp_path / "out"
        code = cli_main(
            ["bench", "--only", "event_queue", "--repeats", "1", "--scale", str(_SCALE),
             "--out", str(out_dir)]
        )
        assert code == 0
        assert artifact_path(out_dir, "event_queue").is_file()

    @pytest.mark.parametrize("slug", ["e1_flow_time", "e1_scan"])
    def test_checked_in_baseline_matches_current_fingerprint(self, slug):
        # The CI gate is only meaningful while a baseline's workload recipe
        # matches the harness; changing a bench requires re-recording its
        # benchmarks/baselines/BENCH_<slug>.json deliberately.
        from pathlib import Path

        baseline = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"
        payload = json.loads(artifact_path(baseline, slug).read_text())
        case = SPECS[slug].build(1.0)
        assert payload["fingerprint"] == case.fingerprint


class TestDispatchBenches:
    def test_registered_and_quick(self):
        # Both dispatch modes must run in the per-PR CI subset so the
        # trajectory records them side by side.
        for slug in ("e1_flow_time", "e1_scan"):
            assert SPECS[slug].quick, slug

    def test_distinct_fingerprints_per_mode(self):
        # Same workload, different recipes: each mode gates against its own
        # baseline, never against another mode's.
        cases = {
            slug: SPECS[slug].build(_SCALE)
            for slug in ("e1_flow_time", "e1_scan")
        }
        fingerprints = [case.fingerprint for case in cases.values()]
        assert len(set(fingerprints)) == len(fingerprints)
        assert cases["e1_scan"].meta["dispatch"] == "scan"
        assert "e1_vectorized" not in SPECS

    def test_scan_runs_at_tiny_scale(self, tmp_path):
        (result,) = run_benchmarks(tmp_path, only=["e1_scan"], repeats=1, scale=_SCALE)
        assert result["events"] > 0
        assert result["events_per_sec"] > 0


class TestFrontier1MPreset:
    def test_preset_pins_the_frontier_point(self):
        from repro.experiments.exp_scalability_frontier import (
            FRONTIER_1M_PEAK_RSS_BUDGET_MB,
            frontier_1m_config,
        )

        config = frontier_1m_config()
        assert config.job_counts == (1_000_000,)
        assert config.algorithms == ("rejection-flow",)
        assert config.dispatch is None  # the engine default, i.e. the fast path
        assert FRONTIER_1M_PEAK_RSS_BUDGET_MB >= 2048

    def test_preset_runs_at_reduced_scale_within_budget(self):
        # The full n=1M point is a nightly-scale run; here the same config
        # shape at n=2k proves the wiring and that peak RSS is tracked.
        from dataclasses import replace

        from repro.experiments.exp_scalability_frontier import (
            FRONTIER_1M_PEAK_RSS_BUDGET_MB,
            frontier_1m_config,
            run,
        )

        config = replace(frontier_1m_config(), job_counts=(2_000,))
        result = run(config)
        (row,) = result.raw["rows"]
        assert row["algorithm"] == "rejection-flow"
        assert row["events"] > 0
        assert 0 < row["peak_rss_mb"] < FRONTIER_1M_PEAK_RSS_BUDGET_MB
