"""Tests for the cumulative bench trajectory, the checked-in baselines and E14."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.trajectory import (
    FIELDS,
    append_run,
    main,
    read_trajectory,
    render_first_run_report,
    render_report,
    trajectory_line,
)
from repro.benchmarking import SPECS, artifact_path, run_benchmarks


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    run_benchmarks(out, only=["event_queue", "solver_facade"], repeats=1, scale=0.02)
    return out


class TestTrajectory:
    def test_line_carries_measurement_and_provenance(self, artifact_dir):
        artifact = json.loads(
            artifact_path(artifact_dir, "event_queue").read_text()
        )
        row = json.loads(trajectory_line(artifact, commit="abc", run="7"))
        assert row["commit"] == "abc" and row["run"] == "7"
        for field in FIELDS:
            assert field in row
        assert row["bench"] == "event_queue"

    def test_append_accumulates_across_runs(self, artifact_dir, tmp_path):
        trajectory = tmp_path / "nested" / "trajectory.ndjson"
        assert append_run(trajectory, artifact_dir, commit="one", run="1") == 2
        assert append_run(trajectory, artifact_dir, commit="two", run="2") == 2
        rows = read_trajectory(trajectory)
        assert len(rows) == 4
        assert [row["run"] for row in rows] == ["1", "1", "2", "2"]
        # Sorted filename order within a run keeps the file deterministic.
        assert [row["bench"] for row in rows[:2]] == ["event_queue", "solver_facade"]

    def test_missing_artifacts_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            append_run(tmp_path / "t.ndjson", tmp_path)

    def test_cli_appends_and_reports(self, artifact_dir, tmp_path, capsys):
        out = tmp_path / "trajectory.ndjson"
        code = main(["--artifacts", str(artifact_dir), "--out", str(out),
                     "--commit", "deadbeef", "--run", "9"])
        assert code == 0
        assert "appended 2 benchmark(s)" in capsys.readouterr().out
        assert all(row["commit"] == "deadbeef" for row in read_trajectory(out))

    def test_cli_missing_artifacts_exits_2(self, tmp_path, capsys):
        code = main(["--artifacts", str(tmp_path), "--out",
                     str(tmp_path / "t.ndjson")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def _synthetic_line(bench: str, run: int, rate: float) -> str:
    return json.dumps({
        "bench": bench, "commit": f"c{run:07d}deadbeef", "run": str(run),
        "events_per_sec": rate, "median_s": 100.0 / rate, "n_jobs": 500,
        "fingerprint": "f", "peak_rss_bytes": 1 << 20,
    })


class TestTrajectoryReport:
    def test_report_summarises_synthetic_trajectory(self, tmp_path):
        path = tmp_path / "trajectory.ndjson"
        lines = [_synthetic_line("alpha", run, 1000.0 * (run + 1))
                 for run in range(3)]
        lines += [_synthetic_line("beta", run, 50.0) for run in range(2)]
        path.write_text("\n".join(lines) + "\n")
        report = render_report(read_trajectory(path))
        # Summary: first 1.0k -> latest 3.0k is +200%; beta stays flat.
        assert "| alpha | 3 | 1.0k | 3.0k | 3.0k | +200.0% |" in report
        assert "| beta | 2 | 50.0 | 50.0 | 50.0 | +0.0% |" in report
        # Per-bench series sections carry run, truncated commit and rate.
        assert "## alpha" in report and "## beta" in report
        assert "| 2 | c0000002dead | 3.0k |" in report

    def test_report_limits_series_to_recent_runs(self):
        rows = [json.loads(_synthetic_line("long", run, 100.0))
                for run in range(25)]
        report = render_report(rows, series_limit=10)
        section = report.split("## long", 1)[1]
        assert "| 24 |" in section and "| 14 |" not in section
        # The summary still counts every run and keeps the true first rate.
        assert "| long | 25 |" in report

    def test_report_tolerates_missing_measurements(self):
        rows = [{"bench": "gappy", "run": "1", "commit": ""},
                json.loads(_synthetic_line("gappy", 2, 10.0))]
        report = render_report(rows)
        assert "| 1 | - | - | - | - |" in report

    def test_empty_trajectory_renders_placeholder(self):
        assert "No trajectory data yet." in render_report([])

    def test_cli_report_writes_markdown_and_prints(self, tmp_path, capsys):
        path = tmp_path / "trajectory.ndjson"
        path.write_text(_synthetic_line("alpha", 1, 2000.0) + "\n")
        report_out = tmp_path / "nested" / "report.md"
        code = main(["--report", "--out", str(path),
                     "--report-out", str(report_out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("# Benchmark trajectory")
        assert report_out.read_text() == printed

    def test_cli_report_missing_trajectory_is_first_run(self, tmp_path, capsys):
        # First run of a fresh cache: no history is not an error — the report
        # says so and CI keeps going instead of failing the bench job.
        code = main(["--report", "--out", str(tmp_path / "absent.ndjson"),
                     "--artifacts", str(tmp_path / "no-artifacts")])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("# Benchmark trajectory")
        assert "No prior runs recorded" in printed
        assert "missing" in printed

    def test_cli_report_empty_trajectory_is_first_run(self, tmp_path, capsys):
        path = tmp_path / "trajectory.ndjson"
        path.write_text("")
        code = main(["--report", "--out", str(path),
                     "--artifacts", str(tmp_path / "no-artifacts")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "No prior runs recorded" in printed and "empty" in printed

    def test_cli_first_run_report_tabulates_this_runs_artifacts(
        self, artifact_dir, tmp_path, capsys
    ):
        report_out = tmp_path / "report.md"
        code = main(["--report", "--out", str(tmp_path / "absent.ndjson"),
                     "--artifacts", str(artifact_dir),
                     "--report-out", str(report_out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "## This run" in printed
        assert "| event_queue |" in printed and "| solver_facade |" in printed
        assert report_out.read_text() == printed

    def test_first_run_report_tolerates_sparse_artifacts(self, tmp_path):
        (tmp_path / "BENCH_gappy.json").write_text(json.dumps({"bench": "gappy"}))
        report = render_first_run_report(tmp_path, tmp_path / "t.ndjson")
        assert "| gappy | - | - | - |" in report


BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


class TestCheckedInBaselines:
    def test_every_baseline_names_a_registered_bench(self):
        # A deleted bench must take its baseline with it, or the gate
        # compares against a recipe nothing runs.
        slugs = {path.stem.removeprefix("BENCH_") for path in BASELINES.glob("BENCH_*.json")}
        assert slugs and slugs <= set(SPECS)

    @pytest.mark.parametrize("slug", ["e13_session", "e15_service", "e17_adaptive"])
    def test_baseline_matches_current_fingerprint(self, slug):
        payload = json.loads(artifact_path(BASELINES, slug).read_text())
        assert payload["fingerprint"] == SPECS[slug].build(1.0).fingerprint


class TestE14Bench:
    def test_registered_and_quick(self):
        spec = SPECS["e14_robustness"]
        assert spec.quick, "e14_robustness must run in the per-PR CI subset"

    def test_runs_at_tiny_scale(self, tmp_path):
        results = run_benchmarks(
            tmp_path, only=["e14_robustness"], repeats=1, scale=0.02
        )
        (result,) = results
        assert result["events"] > 0
        assert result["events_per_sec"] > 0
        assert result["meta"]["workload"] == "scenario:multi-tenant-mix"

    def test_checked_in_baseline_matches_current_fingerprint(self):
        from pathlib import Path

        baseline = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"
        payload = json.loads(artifact_path(baseline, "e14_robustness").read_text())
        case = SPECS["e14_robustness"].build(1.0)
        assert payload["fingerprint"] == case.fingerprint
