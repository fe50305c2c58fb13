"""Start-up import boundary: what ``import repro`` and the CLI load.

Every ``repro solve``, ``repro serve`` and spawned worker pays its imports
before it schedules a job, so the solve and serve paths load only what they
run.  scipy (the Section 2 LP lower bound), the service, campaigns,
experiments and analysis load on first use.  These checks run
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

#: Modules the serve path never runs.
OFF_SERVE_PATH = (
    "scipy",
    "repro.campaigns",
    "repro.experiments",
    "repro.analysis",
)


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
