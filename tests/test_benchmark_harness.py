"""Tests for the unified benchmark harness (``repro.benchmarking``)."""

from __future__ import annotations

import json

import pytest

from repro.benchmarking import (
    ARTIFACT_PREFIX,
    SPECS,
    artifact_path,
    main,
    run_benchmarks,
)
from repro.utils.serialization import canonical_json

#: Cheap, fast subset used throughout; scale shrinks workloads to test size.
_FAST = ["e1_flow_time", "event_queue", "solver_facade"]
_SCALE = 0.02

SCHEMA_KEYS = {
    "bench", "description", "n_jobs", "repeats", "wall_times_s", "median_s", "events",
    "events_per_sec", "fingerprint", "meta",
}

#: ``(fingerprint, n_jobs, events)`` of every recipe at ``_PIN_SCALE``.  The
#: events count follows from the schedule, so a moved pin means the recipe
#: now computes something else; the change that moves one says why in
#: CHANGES.md.
_PIN_SCALE = 0.05
PINS = {
    "e1_flow_time": ("cebe80cf1bbbc98e", 538, 902),
    "e1_scan": ("28a93a7074f47023", 538, 902),
    "e1_poisson": ("4458299250c1d8e4", 500, 836),
    "greedy_overload": ("ea249f5eb6d8dfa1", 500, 1000),
    "energy_flow": ("ff43b791ca7cab93", 200, 400),
    "generator_100k": ("c210bc5440e65098", 5000, 5000),
    "event_queue": ("36bd1a2129e20f8b", 10000, 20000),
    "solver_facade": ("d9e688399189654e", 100, 169),
    "e13_session": ("e458c92260c65476", 500, 836),
    "e14_robustness": ("d420e273a0978a8d", 400, 668),
    "e15_service": ("ff765dff5ae520a0", 400, 1077),
    "e17_adaptive": ("dc75db06a0aa7a43", 400, 710),
    "frontier_100k": ("7bce7538b38841f3", 5000, 10000),
}


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
            assert set(payload) == SCHEMA_KEYS
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


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for slug in SPECS:
            assert slug in out

    def test_repro_bench_subcommand_delegates(self, tmp_path):
        from repro.cli import main as cli_main

        out_dir = tmp_path / "out"
        code = cli_main(
            ["bench", "--only", "event_queue", "--repeats", "1", "--scale", str(_SCALE),
             "--out", str(out_dir)]
        )
        assert code == 0
        assert artifact_path(out_dir, "event_queue").is_file()

    @pytest.mark.parametrize("flag", ["--baseline", "--max-regression"])
    def test_gate_flags_are_refused(self, flag, tmp_path, capsys):
        # Time is gated by paired perfbench runs, not by stored baselines:
        # argparse refuses the old gate's flags before any bench runs.
        from repro.cli import main as cli_main

        value = str(tmp_path) if flag == "--baseline" else "0.1"
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--only", "event_queue", "--out", str(out_dir), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out_dir.exists()


class TestPins:
    @pytest.mark.parametrize("slug", list(PINS))
    def test_recipe_work_is_pinned(self, slug):
        case = SPECS[slug].build(_PIN_SCALE)
        assert (case.fingerprint, case.n_jobs, case.run()) == PINS[slug]

    def test_every_recipe_is_pinned(self):
        # A new recipe adds its pin here.
        assert set(PINS) == set(SPECS)


class TestDispatchBenches:
    def test_registered_and_quick(self):
        # Both dispatch modes run in --quick, so one quick hand run times
        # them side by side on the same host.
        for slug in ("e1_flow_time", "e1_scan"):
            assert SPECS[slug].quick, slug

    def test_distinct_fingerprints_per_mode(self):
        # Same workload, different recipes: each mode's artifact carries its
        # own fingerprint, so a timing is never read as the other mode's.
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
