"""Tests for the schedule trace export, the ASCII Gantt chart and the CLI."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import dispatch_mode

import repro
from repro.analysis.traces import ascii_gantt, result_to_trace, trace_to_csv
from repro.cli import build_parser, main
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.engine import DISPATCH_MODES, FlowTimeEngine
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.solvers import get_solver
from repro.utils.serialization import canonical_json
from repro.workloads.generators import InstanceGenerator
from repro.workloads.scenarios import SCENARIOS, get_scenario
from repro.workloads.traces import chunks_to_instance, trace_instance, write_trace


@pytest.fixture
def small_result():
    instance = Instance.single_machine(
        [Job(0, 0.0, (30.0,)), Job(1, 1.0, (1.0,)), Job(2, 2.0, (1.0,)), Job(3, 3.0, (2.0,))]
    )
    scheduler = RejectionFlowTimeScheduler(epsilon=0.5)
    return FlowTimeEngine(instance).run(scheduler)


class TestTraceExport:
    def test_trace_is_chronological(self, small_result):
        trace = result_to_trace(small_result)
        times = [event.time for event in trace]
        assert times == sorted(times)

    def test_every_job_has_release_event(self, small_result):
        trace = result_to_trace(small_result)
        released = {e.job_id for e in trace if e.kind == "release"}
        assert released == set(small_result.records)

    def test_rejected_jobs_have_reject_events(self, small_result):
        trace = result_to_trace(small_result)
        rejected_in_trace = {e.job_id for e in trace if e.kind == "reject"}
        rejected_in_result = {r.job_id for r in small_result.rejected_records()}
        assert rejected_in_trace == rejected_in_result
        assert rejected_in_result  # the workload above does force a Rule-1 rejection

    def test_completion_events_carry_flow(self, small_result):
        trace = result_to_trace(small_result)
        completions = [e for e in trace if e.kind == "complete"]
        assert completions and all(e.detail.startswith("flow=") for e in completions)

    def test_csv_shape(self, small_result):
        csv_text = trace_to_csv(small_result)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "time,kind,job_id,machine,detail"
        assert len(lines) == 1 + len(result_to_trace(small_result))

    def test_event_as_dict(self, small_result):
        event = result_to_trace(small_result)[0]
        assert set(event.as_dict()) == {"time", "kind", "job_id", "machine", "detail"}


class TestAsciiGantt:
    def test_contains_one_row_per_machine(self):
        instance = InstanceGenerator(num_machines=3, seed=0).generate(20)
        result = FlowTimeEngine(instance).run(RejectionFlowTimeScheduler(epsilon=0.5))
        chart = ascii_gantt(result)
        assert chart.count("\n") >= 4  # header + 3 machines + footer
        for machine in range(3):
            assert f"m{machine}" in chart

    def test_rejected_marked_with_x(self, small_result):
        chart = ascii_gantt(small_result)
        assert "x" in chart

    def test_empty_schedule(self):
        instance = Instance.build(1, [])
        result = FlowTimeEngine(instance).run(RejectionFlowTimeScheduler(epsilon=0.5))
        assert ascii_gantt(result) == "(empty schedule)"

    def test_width_validation(self, small_result):
        with pytest.raises(InvalidParameterError):
            ascii_gantt(small_result, width=10)


class TestCLI:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["solve", "serve", "loadgen"])
    def test_no_dispatch_flag(self, command, capsys):
        # The dispatch mode is a per-process setting (REPRO_DISPATCH).
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--dispatch", "scan"])
        assert "unrecognized arguments: --dispatch scan" in capsys.readouterr().err

    def test_subcommands(self):
        # One coordinator per solve: no subcommand splits the scheduler.
        (subcommands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert sorted(subcommands.choices) == [
            "adaptive", "bounds", "campaign", "experiments",
            "loadgen", "serve", "solve", "trace",
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "--quick"], "invalid choice: 'bench'"),
            (["simulate", "--gantt"], "invalid choice: 'simulate'"),
            (["solve", "--policy", "theorem1"], "unrecognized arguments: --policy theorem1"),
            (["solve", "--epsilon", "0.5"], "unrecognized arguments: --epsilon 0.5"),
        ],
    )
    def test_retired_commands_and_flags_are_refused(self, argv, message, capsys):
        # `solve` runs every registry policy; `simulate` and its own policy
        # names are gone, and so is the `bench` timer.
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--shards", "2"], "unrecognized arguments: --shards 2"),
            (["solve", "--store", "s"], "unrecognized arguments: --store s"),
            (["solve", "--partition", "hash"], "unrecognized arguments: --partition hash"),
            (["solve", "--workers", "2"], "unrecognized arguments: --workers 2"),
        ],
    )
    def test_solve_refuses_shard_flags(self, argv, message, capsys):
        # Every solve runs one coordinator: argparse refuses the old
        # shard-and-merge flags.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_bounds_command(self):
        code, text = self._run(["bounds", "--epsilon", "0.25", "--alpha", "3"])
        assert code == 0
        assert "Theorem 1" in text and "50.000" in text
        assert "Theorem 3" in text and "27.000" in text

    def test_experiments_list(self):
        code, text = self._run(["experiments", "--list"])
        assert code == 0
        assert "E1" in text and "E9" in text

    def test_experiments_single_run(self):
        code, text = self._run(["experiments", "--only", "E5"])
        assert code == 0
        assert "Lemma 2" in text

    @pytest.mark.parametrize("experiment_id", ["E8", "E12"])
    def test_timing_experiments_are_gone(self, experiment_id, capsys):
        # Timing lives in perfbench, not in experiments.
        code, text = self._run(["experiments", "--only", experiment_id])
        assert code == 2 and text == ""
        assert f"unknown experiment '{experiment_id}'" in capsys.readouterr().err


#: Registry ids by whether an engine runs them (and so leaves a schedule).
_ENGINE_ALGORITHMS = [
    row["algorithm"] for row in repro.list_algorithms() if row["model"] != "reference"
]
_REFERENCE_ALGORITHMS = [
    row["algorithm"] for row in repro.list_algorithms() if row["model"] == "reference"
]
#: Engine runs under each dispatch mode, or none for an algorithm that builds
#: its own engine (a runner) and refuses the override.
_SCHEDULE_RUNS = [
    (algorithm, dispatch)
    for algorithm in _ENGINE_ALGORITHMS
    for dispatch in (DISPATCH_MODES if get_solver(algorithm).runner is None else (None,))
]


class TestSolveSchedule:
    """``solve --gantt`` / ``--schedule-csv`` print the schedule after the summary."""

    SOURCE = ["--jobs", "30", "--machines", "2", "--seed", "3"]

    def _run(self, argv):
        out = io.StringIO()
        code = main(["solve", *self.SOURCE, *argv], out=out)
        return code, out.getvalue()

    def _result(self, algorithm):
        instance = InstanceGenerator(num_machines=2, seed=3).generate(30)
        return repro.solve(instance, algorithm).result

    # Covers the four policies of the retired `simulate` command too: greedy,
    # fcfs, immediate-rejection and rejection-flow.  Both dispatch modes print
    # the schedule of the default one.
    @pytest.mark.parametrize("algorithm, dispatch", _SCHEDULE_RUNS)
    def test_chart_and_csv_are_those_of_the_solved_schedule(self, algorithm, dispatch):
        with dispatch_mode(dispatch):
            code, text = self._run(["--algorithm", algorithm, "--gantt", "--schedule-csv"])
        assert code == 0
        summary, schedule = text.split("\n\n", 1)
        assert summary.startswith("instance      : ")
        result = self._result(algorithm)
        assert schedule == ascii_gantt(result) + "\n\n" + trace_to_csv(result)

    def test_scenario_and_trace_sources_print_the_same_schedule(self, tmp_path):
        source = ["--scenario", "flash-crowd", "--jobs", "40", "--machines", "3"]
        out = io.StringIO()
        assert main(["solve", *source, "--gantt", "--schedule-csv"], out=out) == 0
        from_scenario = out.getvalue()
        trace = tmp_path / "crowd.csv"
        assert main(["trace", "generate", *source, "--seed", "0", "--out", str(trace)],
                    out=io.StringIO()) == 0
        out = io.StringIO()
        assert main(["solve", "--trace", str(trace), "--gantt", "--schedule-csv"], out=out) == 0
        from_trace = out.getvalue()
        result = repro.solve(trace_instance(trace)).result
        schedule = ascii_gantt(result) + "\n\n" + trace_to_csv(result)
        assert from_scenario.split("\n\n", 1)[1] == schedule
        assert from_trace.split("\n\n", 1)[1] == schedule

    def test_an_empty_schedule_prints_a_header_only(self):
        out = io.StringIO()
        assert main(["solve", "--jobs", "0", "--gantt", "--schedule-csv"], out=out) == 0
        assert out.getvalue().endswith("\n\n(empty schedule)\n\ntime,kind,job_id,machine,detail\n")

    @pytest.mark.parametrize("flag", ["--gantt", "--schedule-csv"])
    def test_each_flag_prints_only_its_output(self, flag):
        code, text = self._run([flag])
        assert code == 0
        result = self._result("rejection-flow")
        expected = ascii_gantt(result) + "\n" if flag == "--gantt" else trace_to_csv(result)
        assert text.split("\n\n", 1)[1] == expected

    def test_summary_is_unchanged_by_the_flags(self):
        _, plain = self._run([])
        _, both = self._run(["--gantt", "--schedule-csv"])
        assert both.startswith(plain)

    @pytest.mark.parametrize("algorithm", _REFERENCE_ALGORITHMS)
    def test_reference_solvers_have_no_schedule(self, algorithm, capsys):
        code, text = self._run(["--algorithm", algorithm, "--gantt"])
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: algorithm '{algorithm}' is a reference solver")

    @pytest.mark.parametrize("flag", ["--gantt", "--schedule-csv"])
    def test_json_output_stays_one_line(self, flag, capsys):
        code, text = self._run(["--json", flag])
        assert code == 2 and text == ""
        assert "--json prints one line" in capsys.readouterr().err


class TestClosedStdout:
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "list", "--grid", "small"],
            ["campaign", "run", "--grid", "smoke", "--store", "STORE", "--quiet"],
            ["experiments", "--list"],
            ["bounds"],
            ["solve", "--jobs", "50", "--json"],
        ],
        ids=["campaign-list", "campaign-run", "experiments-list", "bounds", "solve-json"],
    )
    def test_closed_stdout_exits_1_without_traceback(self, argv, buffered, tmp_path):
        # `repro ... | grep -q` closes the pipe once it has its match.  The
        # read end is closed before the child starts, so every write fails:
        # buffered, at the flush when the command is done; unbuffered, at
        # the first print.
        argv = [str(tmp_path / "store") if arg == "STORE" else arg for arg in argv]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
        if argv[:2] == ["campaign", "run"]:
            # Output fails after the run: the grid's artifact is stored.
            assert len(list((tmp_path / "store").glob("*/*.json"))) == 1


class TestSolveJsonOutput:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_json_flag_emits_canonical_row(self):
        import json

        argv = ["solve", "--algorithm", "rejection-flow", "--param", "epsilon=0.5",
                "--jobs", "25", "--machines", "2", "--json"]
        code, text = self._run(argv)
        assert code == 0
        row = json.loads(text)
        assert row["algorithm"] == "rejection-flow"
        assert row["objective"] == "total-flow-time"
        assert row["objective_value"] > 0
        assert "breakdown_flow_time" in row
        # the human-readable table is suppressed
        assert "instance      :" not in text

    def test_json_output_is_byte_stable(self):
        argv = ["solve", "--algorithm", "fcfs", "--jobs", "20", "--machines", "2",
                "--seed", "5", "--json"]
        (code1, text1), (code2, text2) = self._run(argv), self._run(argv)
        assert code1 == code2 == 0
        assert text1 == text2


class TestSolveSources:
    """``solve --scenario`` and ``--trace`` print the library's row byte for byte."""

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scenario_row_matches_library_solve(self, scenario):
        code, text, _ = self._run(
            ["solve", "--scenario", scenario, "--jobs", "60", "--machines", "4",
             "--seed", "2018", "--param", "epsilon=0.5", "--json"]
        )
        assert code == 0
        chunks = get_scenario(scenario).job_chunks(60, 4, seed=2018)
        expected = repro.solve(chunks_to_instance(chunks), "rejection-flow", epsilon=0.5)
        assert text == canonical_json(expected.as_row()) + "\n"

    @pytest.mark.parametrize("scenario", ["flash-crowd", "multi-tenant-mix"])
    @pytest.mark.parametrize("suffix", ["csv", "ndjson"])
    def test_trace_row_matches_library_solve(self, tmp_path, suffix, scenario):
        # A 3-machine trace and no --machines: the trace sets the fleet width.
        path = tmp_path / f"trace3.{suffix}"
        write_trace(get_scenario(scenario).job_chunks(80, 3, seed=2018), path)
        code, text, _ = self._run(
            ["solve", "--trace", str(path), "--param", "epsilon=0.5", "--json"]
        )
        assert code == 0
        expected = repro.solve(trace_instance(path), "rejection-flow", epsilon=0.5)
        assert text == canonical_json(expected.as_row()) + "\n"

    def test_machines_matching_trace_width_is_accepted(self, tmp_path):
        path = tmp_path / "crowd3.csv"
        write_trace(get_scenario("flash-crowd").job_chunks(20, 3, seed=2018), path)
        args = ["solve", "--trace", str(path), "--json"]
        code, text, _ = self._run([*args, "--machines", "3"])
        assert code == 0
        assert text == self._run(args)[1]

    @pytest.mark.parametrize("source", ["scenario", "trace"])
    def test_dispatch_modes_print_identical_rows(self, tmp_path, source):
        if source == "trace":
            path = tmp_path / "mix.ndjson"
            write_trace(get_scenario("multi-tenant-mix").job_chunks(60, 3, seed=2018), path)
            args = ["--trace", str(path)]
        else:
            args = ["--scenario", "multi-tenant-mix", "--jobs", "60", "--seed", "2018"]
        rows = set()
        for mode in DISPATCH_MODES:
            with dispatch_mode(mode):
                code, text, _ = self._run(["solve", *args, "--param", "epsilon=0.5", "--json"])
            assert code == 0
            rows.add(text)
        assert len(rows) == 1

    def test_machines_disagreeing_with_trace_width_exits_2(self, tmp_path):
        path = tmp_path / "crowd3.csv"
        write_trace(get_scenario("flash-crowd").job_chunks(20, 3, seed=2018), path)
        code, _, err = self._run(["solve", "--trace", str(path), "--machines", "4"])
        assert code == 2
        assert "job 0: size vector has 3 entries, expected 4" in err

    def test_scenario_and_trace_are_mutually_exclusive(self, tmp_path):
        code, _, err = self._run(
            ["solve", "--scenario", "flash-crowd", "--trace", str(tmp_path / "t.ndjson")]
        )
        assert code == 2
        assert "mutually exclusive" in err


class TestServeCommand:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def _trace_file(self, tmp_path, num_jobs=10, machines=2, seed=1):
        import json

        instance = InstanceGenerator(num_machines=machines, seed=seed).generate(num_jobs)
        path = tmp_path / "jobs.ndjson"
        path.write_text(
            "# recorded workload\n"
            + "\n".join(json.dumps(job.to_dict()) for job in instance.jobs)
            + "\n",
            encoding="utf-8",
        )
        return instance, path

    def test_serve_trace_file_emits_events_and_summary(self, tmp_path):
        import json

        instance, path = self._trace_file(tmp_path)
        code, text = self._run(
            ["serve", "--algorithm", "rejection-flow", "--machines", "2",
             "--param", "epsilon=0.5", "--trace", str(path)]
        )
        assert code == 0
        lines = [json.loads(line) for line in text.splitlines()]
        kinds = [line["event"] for line in lines]
        assert kinds[-1] == "final" and kinds.count("final") == 1
        decisions = [line for line in lines if line["event"] == "decision"]
        assert {d["kind"] for d in decisions} <= {"dispatch", "start", "complete", "reject"}
        # every job shows up in the decision stream
        assert {d["job_id"] for d in decisions} == {job.id for job in instance.jobs}

    def test_serve_final_line_matches_batch_solve(self, tmp_path):
        import json

        from repro.solvers import solve

        instance, path = self._trace_file(tmp_path, num_jobs=15, seed=3)
        code, text = self._run(
            ["serve", "--machines", "2", "--param", "epsilon=0.5",
             "--trace", str(path), "--quiet"]
        )
        assert code == 0
        (final,) = [json.loads(line) for line in text.splitlines()]
        batch = solve(instance, "rejection-flow", epsilon=0.5)
        assert final["objective_value"] == batch.objective_value
        assert final["rejected_count"] == batch.rejected_count

    def test_serve_reads_stdin(self, tmp_path, monkeypatch):
        import json
        import sys

        _, path = self._trace_file(tmp_path, num_jobs=5)
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text(encoding="utf-8")))
        code, text = self._run(["serve", "--machines", "2", "--quiet"])
        assert code == 0
        assert json.loads(text.splitlines()[-1])["event"] == "final"

    def test_serve_non_streaming_algorithm_exits_2(self, tmp_path):
        _, path = self._trace_file(tmp_path, num_jobs=3)
        err = io.StringIO()
        code = main(["serve", "--algorithm", "yds", "--trace", str(path)],
                    out=io.StringIO(), err=err)
        assert code == 2
        assert "streaming" in err.getvalue()

    def test_serve_malformed_line_exits_2(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"id": 0}\n', encoding="utf-8")
        err = io.StringIO()
        code = main(["serve", "--machines", "2", "--trace", str(path)],
                    out=io.StringIO(), err=err)
        assert code == 2
        # The schema error names the line and the missing field.
        assert "line 1" in err.getvalue() and "'release'" in err.getvalue()

    def test_serve_reserved_param_exits_2(self, tmp_path):
        _, path = self._trace_file(tmp_path, num_jobs=3)
        for raw, cause in (
            ("alpha=2", "--param cannot set"),
            # Sessions have no event-retention option, and no dispatch mode
            # (the process picks it): an algorithm parameter of either name
            # is unknown like any other.
            ("retain_events=true", "unknown parameter(s) for algorithm 'rejection-flow'"),
            ("dispatch=scan", "unknown parameter(s) for algorithm 'rejection-flow'"),
        ):
            err = io.StringIO()
            code = main(["serve", "--machines", "2", "--param", raw,
                         "--trace", str(path)], out=io.StringIO(), err=err)
            assert code == 2
            assert cause in err.getvalue()

    def _refused(self, argv):
        """Run ``serve`` on a stream with a row its session refuses."""
        out, err = io.StringIO(), io.StringIO()
        code = main(["serve", "--machines", "1", *argv], out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def test_serve_names_the_csv_line_of_a_refused_row(self, tmp_path):
        # Line 4 repeats id 1: each row parses, so the session refuses it,
        # and the error names the line as `solve --trace` does.
        path = tmp_path / "dup.csv"
        path.write_text("id,release,size_0\n0,0.0,1.0\n1,0.5,2.0\n1,1.0,1.0\n", encoding="utf-8")
        code, text, err = self._refused(["--trace", str(path)])
        assert code == 2
        assert err == "error: line 4: job id 1 was already offered\n"
        # The decisions made before the refusal were printed.
        assert [json.loads(line)["job_id"] for line in text.splitlines()] == [0, 0, 1]

    @pytest.mark.parametrize(
        "second, message",
        [
            ('{"id": 0, "release": 2.0, "sizes": [1.0]}', "job id 0 was already offered"),
            (
                '{"id": 1, "release": 0.5, "sizes": [1.0]}',
                "job 1 released at 0.5 but the stream already reached 1.0; "
                "jobs are offered in release order",
            ),
            ('{"id": 1, "release": 1.5, "sizes": [1.0, 2.0]}',
             "job 1: size vector has 2 entries, expected 1"),
        ],
        ids=["repeated-id", "release-back-in-time", "wrong-width"],
    )
    def test_serve_names_the_stdin_line_of_a_refused_row(self, monkeypatch, second, message):
        stdin = '{"id": 0, "release": 1.0, "sizes": [1.0]}\n# comment\n' + second + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, text, err = self._refused([])
        assert code == 2
        assert err == f"error: line 3: {message}\n"
        assert [json.loads(line)["kind"] for line in text.splitlines()] == ["dispatch", "start"]
