"""Start-up import boundary: what ``import repro`` and the CLI load.

Every ``repro solve``, ``repro serve`` and spawned worker pays its imports
before it schedules a job, so the solve and serve paths load only what they
run.  scipy (the Section 2 LP lower bound), the service, campaigns,
experiments and analysis load on first use, and numpy loads where an array
is first built: a trace chunk or a generated instance.  A trace solve builds
no array, Theorem 1's rank build included, so it never loads numpy.  The
TCP server maps no OpenSSL: it runs no asyncio (which loads ``ssl``), and
``hashlib`` loads only when a campaign key is hashed.  These checks run
fresh interpreters and gate on exact module sets, not on time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lowerbounds.flow_lp import lp_flow_time_lower_bound
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.state import PREFIX_SCAN_CUTOFF
from repro.utils.serialization import canonical_json
from repro.workloads.scenarios import get_scenario
from repro.workloads.traces import trace_instance, write_trace

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the solve path never runs.
OFF_SOLVE_PATH = (
    "scipy",
    "asyncio",
    "repro.service",
    "repro.campaigns",
    "repro.experiments",
    "repro.analysis",
    "repro.lowerbounds",
)

#: The modules that map OpenSSL's libssl and libcrypto: ``asyncio`` loads
#: ``ssl``, and ``hashlib`` loads ``_hashlib``.
OPENSSL = ("asyncio", "ssl", "_ssl", "_hashlib")

#: Modules the serve path never runs.
OFF_SERVE_PATH = (
    "numpy",
    "scipy",
    "repro.campaigns",
    "repro.experiments",
    "repro.analysis",
) + OPENSSL


def _run_fresh(script: str, *argv: str, watched) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON object.

    ``script`` sees ``loaded()``, the sorted names of ``watched`` that are in
    ``sys.modules`` at the call.
    """
    prelude = (
        "import json, sys\n"
        f"WATCHED = {tuple(watched)!r}\n"
        "def loaded():\n"
        "    return sorted(name for name in WATCHED if name in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(script), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _lp_instance() -> Instance:
    """Four jobs on two unit-speed machines."""
    jobs = [
        Job(0, 0.0, (2.0, 3.0)),
        Job(1, 0.0, (1.0, 2.0)),
        Job(2, 1.0, (3.0, 1.0)),
        Job(3, 2.0, (1.0, 1.0)),
    ]
    return Instance.build(2, jobs, name="lp-four")


def test_solve_path_leaves_off_path_modules_unloaded_and_lp_bound_loads_scipy(tmp_path):
    trace = tmp_path / "jobs.csv"
    write_trace(get_scenario("flash-crowd").instance(60, 4, 3, alpha=3.0), trace)
    lp_json = tmp_path / "lp.json"
    lp_json.write_text(_lp_instance().to_json())

    result = _run_fresh(
        """
        import repro
        from repro.utils.serialization import canonical_json
        from repro.workloads.traces import trace_instance

        repro.solvers.get_solver("rejection-flow")
        instance = trace_instance(sys.argv[1])
        outcome = repro.solve(instance, "rejection-flow", epsilon=0.1)
        row = canonical_json(outcome.as_row())
        after_solve = loaded()

        from repro.lowerbounds.flow_lp import lp_flow_time_lower_bound
        from repro.simulation.instance import Instance

        with open(sys.argv[2], encoding="utf-8") as handle:
            bound = lp_flow_time_lower_bound(Instance.from_json(handle.read()))
        print(json.dumps({"row": row, "after_solve": after_solve,
                          "bound": bound, "after_lp": loaded()}))
        """,
        str(trace), str(lp_json),
        watched=OFF_SOLVE_PATH + ("scipy.optimize",),
    )

    assert result["after_solve"] == []
    expected = repro.solve(trace_instance(trace), "rejection-flow", epsilon=0.1)
    assert result["row"] == canonical_json(expected.as_row())
    assert result["bound"] == pytest.approx(lp_flow_time_lower_bound(_lp_instance()), rel=1e-12)
    assert "scipy.optimize" in result["after_lp"]


@pytest.mark.parametrize("flags", [[], ["--gantt", "--schedule-csv"]], ids=["plain", "schedule"])
def test_solve_command_loads_the_chart_module_only_when_asked(flags):
    loaded_modules = _run_fresh(
        """
        import io
        from repro.cli import main

        assert main(["solve", "--jobs", "20", *sys.argv[1:]], out=io.StringIO()) == 0
        print(json.dumps(loaded()))
        """,
        *flags,
        watched=OFF_SOLVE_PATH,
    )
    assert loaded_modules == (["repro.analysis"] if flags else [])


def test_serve_path_leaves_off_path_modules_unloaded():
    result = _run_fresh(
        """
        import repro.cli, repro.service.server, repro.service.manager

        print(json.dumps(loaded()))
        """,
        watched=OFF_SERVE_PATH,
    )
    assert result == []


#: What a session or manager user never runs: the TCP server and its client.
OFF_SESSION_PATH = ("repro.service.server", "repro.service.client") + OPENSSL


def test_sessions_and_the_manager_leave_the_tcp_layer_unloaded():
    result = _run_fresh(
        """
        import repro

        session = repro.open_session("rejection-flow", 2, epsilon=0.5)
        session.submit(repro.Job(0, 0.0, (1.0, 2.0)))
        session.finalize()
        after_session = loaded()
        import repro.service.manager

        print(json.dumps({"after_session": after_session, "after_manager": loaded()}))
        """,
        watched=OFF_SESSION_PATH,
    )
    assert result == {"after_session": [], "after_manager": []}


def test_stable_hash_loads_hashlib_on_first_call_and_keeps_its_keys():
    value = {"experiment": "E1", "seed": 2018, "overrides": [0.5, None]}
    result = _run_fresh(
        """
        from repro.utils.serialization import stable_hash

        before = loaded()
        key = stable_hash(json.loads(sys.argv[1]))
        print(json.dumps({"before": before, "key": key, "after": loaded()}))
        """,
        json.dumps(value),
        watched=OPENSSL,
    )
    assert result == {"before": [], "key": "555511285c231629", "after": ["_hashlib"]}


def test_service_package_resolves_lazily_exported_names():
    import repro.service

    for name in repro.service.__all__:
        getattr(repro.service, name)
    assert set(repro.service.__all__) <= set(dir(repro.service))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro.service, "no_such_name")


def test_public_surface_resolves_lazily_exported_names():
    for name in repro.__all__:
        getattr(repro, name)
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert set(repro.__all__) <= set(dir(repro))

    from repro.service import open_session

    assert repro.open_session is open_session
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")


def test_import_repro_a_solver_lookup_and_the_cli_parser_load_no_numpy():
    result = _run_fresh(
        """
        import io
        import repro

        repro.solvers.get_solver("rejection-flow")
        after_lookup = loaded()
        from repro.cli import main

        assert main(["solve", "--list-algorithms"], out=io.StringIO()) == 0
        print(json.dumps({"after_lookup": after_lookup, "after_cli": loaded()}))
        """,
        watched=("numpy",),
    )
    assert result == {"after_lookup": [], "after_cli": []}


def _rows(count: int, spacing: float) -> list[dict]:
    """Job rows for three machines, released ``spacing`` apart."""
    return [
        {"id": j, "release": spacing * j, "sizes": [1.0 + j % 3, 2.0, 3.5 - j % 2]}
        for j in range(count)
    ]


def _batch_row(rows: list[dict], algorithm: str, epsilon: float) -> str:
    instance = Instance.build(3, [Job.from_dict(row) for row in rows])
    return canonical_json(repro.solve(instance, algorithm, epsilon=epsilon).as_row())


def test_tcp_service_runs_every_op_without_numpy_or_openssl():
    # Jobs 4 time units apart and at most 3.5 long: no queue nears
    # PREFIX_SCAN_CUTOFF, so no Fenwick rank build runs.
    rows = _rows(24, spacing=4.0)
    result = _run_fresh(
        """
        from repro.service.client import ServiceClient
        from repro.service.server import start_server_thread
        from repro.utils.serialization import canonical_json

        rows = json.loads(sys.argv[1])
        finals = {}
        handle = start_server_thread()
        with ServiceClient(handle.host, handle.port) as client:
            client.hello()
            for algorithm in ("rejection-flow", "rejection-energy-flow"):
                client.create(algorithm, algorithm=algorithm, machines=3,
                              params={"epsilon": 0.5})
                client.submit(algorithm, rows[:12])
                client.poll(algorithm)
                client.stats(algorithm)
                client.sessions()
                snapshot = client.snapshot(algorithm)
                client.close_session(algorithm)
                moved = algorithm + "-restored"
                client.restore(moved, snapshot)
                client.submit(moved, rows[12:])
                client.advance(moved, rows[18]["release"])
                final = client.close_session(moved).event
                finals[algorithm] = canonical_json(
                    {k: v for k, v in final.items() if k not in ("event", "session")}
                )
        assert handle.stop() == 0
        print(json.dumps({"finals": finals, "loaded": loaded()}))
        """,
        json.dumps(rows),
        watched=OFF_SERVE_PATH,
    )
    assert result["loaded"] == []
    for algorithm, row in result["finals"].items():
        assert row == _batch_row(rows, algorithm, epsilon=0.5), algorithm


def test_a_servers_first_deep_queue_loads_no_numpy():
    # Jobs a millisecond apart queue up past PREFIX_SCAN_CUTOFF, which builds
    # the Fenwick ranks inside the poll that first needs them: with stable
    # sorts, not numpy.
    rows = _rows(4 * PREFIX_SCAN_CUTOFF, spacing=0.001)
    result = _run_fresh(
        """
        import repro.simulation.state as state_module
        from repro.service.client import ServiceClient
        from repro.service.server import start_server_thread
        from repro.utils.serialization import canonical_json

        builds = []
        build = state_module.build_priority_ranks
        state_module.build_priority_ranks = lambda jobs, m: builds.append(m) or build(jobs, m)
        rows = json.loads(sys.argv[1])
        cutoff = int(sys.argv[2])
        handle = start_server_thread()
        with ServiceClient(handle.host, handle.port) as client:
            client.create("deep", algorithm="rejection-flow", machines=3,
                          params={"epsilon": 0.1})
            client.submit("deep", rows[:cutoff])  # no machine can queue more
            client.poll("deep")
            shallow = len(builds)
            client.submit("deep", rows[cutoff:])
            client.poll("deep")
            final = client.close_session("deep").event
        handle.stop()
        row = canonical_json({k: v for k, v in final.items() if k not in ("event", "session")})
        print(json.dumps({"builds": [shallow, len(builds)], "loaded": loaded(), "row": row}))
        """,
        json.dumps(rows),
        str(PREFIX_SCAN_CUTOFF),
        watched=("numpy",),
    )
    assert result["builds"][0] == 0 and result["builds"][1] > 0
    assert result["loaded"] == []
    assert result["row"] == _batch_row(rows, "rejection-flow", epsilon=0.1)


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
def test_a_trace_solve_and_its_checks_load_no_numpy(fmt, tmp_path):
    # Jobs a millisecond apart on three machines: the queues pass
    # PREFIX_SCAN_CUTOFF, so the solve builds Theorem 1's SPT ranks.
    trace = tmp_path / f"deep.{fmt}"
    rows = _rows(4 * PREFIX_SCAN_CUTOFF, spacing=0.001)
    write_trace([Job.from_dict(row) for row in rows], trace)
    result = _run_fresh(
        """
        import repro
        import repro.simulation.state as state_module
        from repro.simulation.validation import assert_rejection_budget, validate_result
        from repro.utils.serialization import canonical_json
        from repro.workloads.traces import trace_instance

        builds = []
        build = state_module.build_priority_ranks
        state_module.build_priority_ranks = lambda jobs, m: builds.append(m) or build(jobs, m)
        outcome = repro.solve(trace_instance(sys.argv[1]), "rejection-flow", epsilon=0.1)
        validate_result(outcome.result)
        assert_rejection_budget(outcome.result, 0.2)
        row = canonical_json(outcome.as_row())
        print(json.dumps({"builds": len(builds), "loaded": loaded(), "row": row}))
        """,
        str(trace),
        watched=("numpy",),
    )
    assert result["builds"] > 0
    assert result["loaded"] == []
    expected = repro.solve(trace_instance(trace), "rejection-flow", epsilon=0.1)
    assert result["row"] == canonical_json(expected.as_row())
    assert result["row"] == _batch_row(rows, "rejection-flow", epsilon=0.1)


#: Statements that build a first array, each after ``import repro``.
_FIRST_ARRAYS = {
    "trace-chunks": (
        "from repro.workloads.traces import read_trace_chunks; "
        "list(read_trace_chunks(sys.argv[1]))"
    ),
    "generator": (
        "from repro.workloads.generators import InstanceGenerator; "
        "InstanceGenerator(num_machines=2, seed=0).generate(20)"
    ),
}


@pytest.mark.parametrize("build", list(_FIRST_ARRAYS.values()), ids=list(_FIRST_ARRAYS))
def test_numpy_loads_on_first_array_use(build, tmp_path):
    trace = tmp_path / "jobs.csv"
    write_trace(get_scenario("flash-crowd").instance(40, 3, 3, alpha=3.0), trace)
    result = _run_fresh(
        f"""
        import repro

        before = loaded()
        {build}
        print(json.dumps({{"before": before, "after": loaded()}}))
        """,
        str(trace),
        watched=("numpy",),
    )
    assert result == {"before": [], "after": ["numpy"]}
