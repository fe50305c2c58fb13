"""Tests for campaign runs, the artifact store and the aggregation layer."""

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns import (
    ArtifactStore,
    CampaignTask,
    aggregate_tables,
    available_grids,
    diff_stores,
    export_csv,
    get_grid,
    render_campaign_report,
    result_from_payload,
    run_campaign,
    run_task,
    summary_table,
    task_from_payload,
)
from repro.cli import main
from repro.exceptions import InvalidParameterError
from repro.experiments import ExperimentRunUnit, make_config
from repro.utils.serialization import canonical_json, stable_hash

TINY_E1 = {"epsilons": (0.5,), "workloads": ("poisson-pareto",)}


def _tiny_task(seed=7, variant="tiny"):
    return CampaignTask.create("E1", variant=variant, seed=seed, overrides=TINY_E1)


SRC = Path(__file__).resolve().parents[1] / "src"

#: The first task of every experiment in the `small` grid.
SMALL_TASK_BY_EXPERIMENT = {}
for _task in get_grid("small").tasks():
    SMALL_TASK_BY_EXPERIMENT.setdefault(_task.experiment_id, _task)

#: Grids cheap enough to run cold twice in the tier-1 suite (`medium` takes
#: about 10 s per run).
CHEAP_GRIDS = ("smoke", "small", "solvers", "e14", "e17")

#: ``(task count, sha256 prefix of the newline-joined task keys)`` of every
#: grid at the default master seed.  The keys are what a store written
#: earlier is read by, so a moved pin turns every stored artifact into a
#: cache miss; the change that moves one says why in CHANGES.md.
GRID_KEY_PINS = {
    "smoke": (1, "d0ebfdb69defce66"),
    "small": (22, "ecb2f65d990ce194"),
    "medium": (32, "8b9c4a9a09c8be95"),
    "solvers": (14, "cd7cbc2ea5a77ca2"),
    "e14": (2, "0e041c87cb6c4005"),
    "e17": (2, "c46a4d17795e9e8d"),
}

#: An artifact key that needs no experiment run behind it.
KEY = "ab12cd34"

#: Saves ``{"x": 1}`` under KEY in the store at argv[2] and dies by
#: ``os._exit`` (no cleanup runs, as under SIGKILL) at the write stage named
#: by argv[1]: temp-file create, write, or ``os.replace``.
_KILLED_SAVE = """
import os, sys, tempfile
from repro.campaigns.store import ArtifactStore

stage, root = sys.argv[1:]
real_mkstemp = tempfile.mkstemp

def created(*args, **kwargs):
    real_mkstemp(*args, **kwargs)
    os._exit(9)

def half_written(fd, mode):
    os.write(fd, b'{"x": ')
    os._exit(9)

def replaced(src, dst):
    os._exit(9)

if stage == "create":
    tempfile.mkstemp = created
elif stage == "write":
    os.fdopen = half_written
else:
    os.replace = replaced
ArtifactStore(root).save("ab12cd34", {"x": 1})
"""


def _files(root: Path) -> list[Path]:
    return sorted(path for path in root.rglob("*") if path.is_file())


class TestSerialization:
    def test_canonical_json_sorts_keys_and_is_stable(self):
        assert canonical_json({"b": 1, "a": (1, 2)}) == '{"a":[1,2],"b":1}'
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_tuples_and_lists_hash_identically(self):
        assert stable_hash({"eps": (0.5, 1.0)}) == stable_hash({"eps": [0.5, 1.0]})

    def test_unserialisable_value_raises(self):
        with pytest.raises(TypeError):
            canonical_json({"f": lambda: None})


class TestRegistryRunUnits:
    def test_make_config_coerces_lists_to_tuples(self):
        config = make_config("E1", epsilons=[0.25, 0.5])
        assert config.epsilons == (0.25, 0.5)

    def test_make_config_rejects_unknown_fields(self):
        with pytest.raises(InvalidParameterError):
            make_config("E1", not_a_field=1)

    def test_run_unit_normalises_list_overrides(self):
        from_lists = ExperimentRunUnit.create("E1", {"epsilons": [0.25, 0.5]})
        from_tuples = ExperimentRunUnit.create("E1", {"epsilons": (0.25, 0.5)})
        assert from_lists == from_tuples
        assert len({from_lists, from_tuples}) == 1

    def test_run_unit_round_trips_through_pickle(self):
        unit = ExperimentRunUnit.create("e1", {"epsilons": (0.5,), "seed": 3})
        clone = pickle.loads(pickle.dumps(unit))
        assert clone == unit
        assert clone.experiment_id == "E1"
        assert clone.overrides_dict == {"epsilons": (0.5,), "seed": 3}

    def test_run_unit_runs(self):
        unit = ExperimentRunUnit.create("E1", {**TINY_E1, "seed": 7})
        result = unit.run()
        assert result.experiment_id == "E1"
        assert result.tables and result.tables[0].rows


class TestTasksAndKeys:
    def test_key_depends_on_config_not_variant_name(self):
        base = _tiny_task(seed=7)
        assert base.key() == _tiny_task(seed=7, variant="renamed").key()
        assert base.key() != _tiny_task(seed=8).key()

    # Each experiment's overrides and tables have their own shapes (nested
    # tuples, None, inf), and `campaign report` rebuilds all of them from
    # the stored payloads: one case per experiment of the `small` grid.

    @pytest.mark.parametrize("experiment_id", list(SMALL_TASK_BY_EXPERIMENT))
    def test_key_survives_payload_round_trip(self, experiment_id):
        task = SMALL_TASK_BY_EXPERIMENT[experiment_id]
        payload = run_task(task)
        assert task_from_payload(payload).key() == task.key()

    @pytest.mark.parametrize("experiment_id", list(SMALL_TASK_BY_EXPERIMENT))
    def test_rebuilt_task_is_equal_and_hashable(self, experiment_id):
        # JSON turns tuple overrides into lists; create() must normalise them
        # back so rebuilt tasks dedupe against the grid's originals.
        task = SMALL_TASK_BY_EXPERIMENT[experiment_id]
        rebuilt = task_from_payload(run_task(task))
        assert rebuilt == task
        assert len({task, rebuilt}) == 1

    @pytest.mark.parametrize("experiment_id", list(SMALL_TASK_BY_EXPERIMENT))
    def test_payload_rebuilds_equal_tables(self, experiment_id):
        task = SMALL_TASK_BY_EXPERIMENT[experiment_id]
        payload = run_task(task)
        rebuilt = result_from_payload(payload)
        direct = task.to_unit().run()
        assert rebuilt.render() == direct.render()


class TestArtifactStore:
    def test_round_trip_and_len(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.save(KEY, {"x": 1})
        assert path == tmp_path / "store" / "ab" / f"{KEY}.json"
        assert store.has(KEY)
        assert store.load(KEY) == {"x": 1}
        assert len(store) == 1 and list(store.keys()) == [KEY]

    def test_keys_are_sorted_and_only_the_artifact_layout(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for key in ("ffee0011", "ab99cd34", KEY):
            store.save(key, {"key": key})
        # Files outside <key[:2]>/<key>.json are not artifacts.
        (store.root / "ab" / "cd12cd34.json").write_text("{}")
        (store.root / "ab" / "ab12.json").write_text("{}")
        (store.root / "ab" / "ab12CD34.json").write_text("{}")
        (store.root / "notes.json").write_text("{}")
        assert list(store.keys()) == [KEY, "ab99cd34", "ffee0011"]
        assert len(store) == 3

    def test_empty_root_rejected(self):
        with pytest.raises(InvalidParameterError, match="needs a root path"):
            ArtifactStore("")

    def test_missing_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.has(KEY)
        with pytest.raises(InvalidParameterError, match="no artifact"):
            store.load(KEY)

    @pytest.mark.parametrize("bad", ["", "../../evil", "AB12CD34", "ab12/cd34", "ab12cd3g"])
    def test_malformed_keys_rejected(self, bad, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for call in (store.path_for, store.has, store.load, lambda key: store.save(key, {})):
            with pytest.raises(InvalidParameterError, match="malformed artifact key"):
                call(bad)
        assert not store.root.exists()

    def test_identical_payloads_write_identical_bytes(self, tmp_path):
        first, second = ArtifactStore(tmp_path / "a"), ArtifactStore(tmp_path / "b")
        payload = {"z": [1.5, float("inf")], "a": {"nested": (1, 2)}}
        first.save(KEY, payload)
        second.save(KEY, payload)
        assert first.path_for(KEY).read_bytes() == second.path_for(KEY).read_bytes()

    def test_interrupted_save_removes_its_temp_file(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")

        def interrupted_replace(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.campaigns.store.os.replace", interrupted_replace)
        with pytest.raises(KeyboardInterrupt):
            store.save(KEY, {"x": 1})
        monkeypatch.undo()
        assert not store.has(KEY)
        assert _files(store.root) == []

    @pytest.mark.parametrize("stage", ["create", "write", "replace"])
    def test_kill_at_each_write_stage_leaves_no_torn_artifact(self, stage, tmp_path):
        root = tmp_path / "store"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_SAVE, stage, str(root)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 9, proc.stderr
        # The killed write left its temp file behind, and nothing else.
        assert [path.suffix for path in _files(root)] == [".tmp"]
        store = ArtifactStore(root)
        assert not store.has(KEY) and list(store.keys()) == []
        store.save(KEY, {"x": 1})
        clean = ArtifactStore(tmp_path / "clean")
        clean.save(KEY, {"x": 1})
        assert diff_stores(store, clean) == []

    def test_diff_stores_reports_membership_and_byte_differences(self, tmp_path):
        a, b = ArtifactStore(tmp_path / "a"), ArtifactStore(tmp_path / "b")
        a.save(KEY, {"x": 1})
        b.save(KEY, {"x": 1})
        assert diff_stores(a, b) == []
        a.save("ffee0011", {"only": "a"})
        b.path_for(KEY).write_bytes(b'{"x":2}\n')
        assert diff_stores(a, b) == [
            f"only in {a.root}: ffee0011",
            f"artifact bytes differ: {KEY}",
        ]

    def test_lease_fleet_residue_reads_as_artifacts_only(self, tmp_path, capsys):
        # Stores written before campaigns ran in one process can hold lease
        # markers, temp files and lock files next to the artifacts.
        tasks = get_grid("smoke").tasks()
        clean, residue = ArtifactStore(tmp_path / "clean"), ArtifactStore(tmp_path / "residue")
        run_campaign(tasks, clean)
        run_campaign(tasks, residue)
        key = tasks[0].key()
        (residue.root / "leases").mkdir()
        (residue.root / "leases" / key).write_bytes(
            b'{"expires_at":1.0,"seq":0,"worker":"w"}'
        )
        (residue.root / key[:2] / "tmpk2j1x9.tmp").write_bytes(b'{"torn')
        residue.path_for(key).with_name(f"{key}.json.lock").write_bytes(b"")
        assert list(residue.keys()) == list(clean.keys()) == [key]
        assert run_campaign(tasks, residue).cache_hit_fraction == 1.0
        assert main(["campaign", "diff", str(clean.root), str(residue.root)]) == 0
        assert "stores identical: 1 artifact(s)" in capsys.readouterr().out


class TestRunnerDeterminism:
    def test_same_task_yields_byte_identical_artifacts(self, tmp_path):
        task = _tiny_task()
        stores = []
        for name in ("run1", "run2"):
            store = ArtifactStore(tmp_path / name)
            run_campaign([task], store)
            stores.append(store)
        path_a = stores[0].path_for(task.key())
        path_b = stores[1].path_for(task.key())
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_resumed_campaign_skips_cached_tasks(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        tasks = get_grid("smoke").tasks()
        first = run_campaign(tasks, store)
        assert first.computed == len(tasks) and first.cached == 0
        second = run_campaign(tasks, store)
        assert second.computed == 0 and second.cached == len(tasks)
        assert second.cache_hit_fraction == 1.0
        assert "100% cache hits" in second.describe()

    @pytest.mark.parametrize("grid", CHEAP_GRIDS)
    def test_two_cold_runs_are_byte_identical(self, grid, tmp_path):
        tasks = get_grid(grid).tasks()
        stores = [ArtifactStore(tmp_path / name) for name in ("a", "b")]
        for store in stores:
            assert run_campaign(tasks, store).computed == len(tasks)
        assert len(stores[0]) == len(tasks)
        assert diff_stores(*stores) == []
        assert render_campaign_report(stores[0], tasks) == render_campaign_report(
            stores[1], tasks
        )

    def test_duplicate_tasks_computed_once(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        task = _tiny_task()
        lines = []
        summary = run_campaign([task, task], store, progress=lines.append)
        assert summary.total == 2 and summary.computed == 1 and summary.cached == 1
        assert [line.split()[0] for line in lines] == ["computed", "cached"]

    def test_failing_task_raises_and_stores_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        broken = CampaignTask.create("E1", overrides={"not_a_field": 1})
        with pytest.raises(InvalidParameterError, match="not_a_field"):
            run_campaign([_tiny_task(), broken], store)
        assert list(store.keys()) == [_tiny_task().key()]

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    @pytest.mark.parametrize("stage", ["compute", "save"])
    def test_failed_task_stores_nothing_and_reruns(self, stage, error, tmp_path, monkeypatch):
        # Interrupted or crashed while computing, or while saving: no
        # artifact, no temp file, and the next run computes the task.
        store = ArtifactStore(tmp_path / "store")
        task = _tiny_task()

        def fail(*_args):
            raise error("stop")

        if stage == "compute":
            monkeypatch.setattr("repro.campaigns.runner.run_task", fail)
        else:
            monkeypatch.setattr("repro.campaigns.store.os.replace", fail)
        with pytest.raises(error):
            run_campaign([task], store)
        monkeypatch.undo()
        assert not store.has(task.key()) and list(store.keys()) == []
        assert not store.root.exists() or _files(store.root) == []
        assert run_campaign([task], store).computed == 1
        assert list(store.keys()) == [task.key()]

    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    def test_interrupted_run_resumes_exactly_the_missing_tasks(
        self, position, tmp_path, monkeypatch
    ):
        tasks = [_tiny_task(seed=seed) for seed in range(5)]
        victim = tasks[position].key()

        def interrupted(task):
            if task.key() == victim:
                raise KeyboardInterrupt
            return run_task(task)

        store = ArtifactStore(tmp_path / "store")
        monkeypatch.setattr("repro.campaigns.runner.run_task", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tasks, store)
        monkeypatch.undo()
        assert list(store.keys()) == sorted(task.key() for task in tasks[:position])
        assert all(path.suffix == ".json" for path in _files(store.root))
        resumed = run_campaign(tasks, store)
        assert [outcome.cached for outcome in resumed.outcomes] == [
            index < position for index in range(len(tasks))
        ]
        reference = ArtifactStore(tmp_path / "reference")
        run_campaign(tasks, reference)
        assert diff_stores(store, reference) == []


class TestGrids:
    def test_available_grids(self):
        grids = available_grids()
        assert {"smoke", "small", "medium", "solvers", "e14"} <= set(grids)
        assert all(description for description in grids.values())

    def test_unknown_grid(self):
        with pytest.raises(InvalidParameterError):
            get_grid("nope")

    def test_small_grid_covers_all_experiments(self):
        tasks = get_grid("small").tasks()
        assert {task.experiment_id for task in tasks} == {
            *(f"E{i}" for i in range(1, 11) if i != 8),
            "E14",
            "E15",
            "E17",
        }

    def test_solvers_grid_sweeps_algorithms(self):
        grid = get_grid("solvers")
        variants = {entry.variant for entry in grid.entries}
        assert {"rejection-flow", "greedy", "fcfs"} <= variants
        for task in grid.tasks():
            assert task.experiment_id == "E10"
            assert dict(task.overrides)["algorithms"] == (task.variant,)

    def test_seedless_experiments_get_one_task(self):
        tasks = get_grid("small").tasks()
        by_exp = {}
        for task in tasks:
            by_exp.setdefault(task.experiment_id, []).append(task)
        assert len(by_exp["E2"]) == 1 and by_exp["E2"][0].seed is None
        assert len(by_exp["E5"]) == 1 and by_exp["E5"][0].seed is None
        assert len(by_exp["E1"]) == 2

    @pytest.mark.parametrize("grid", list(GRID_KEY_PINS))
    def test_grid_expansion_is_deterministic(self, grid):
        first = get_grid(grid).tasks(master_seed=5)
        second = get_grid(grid).tasks(master_seed=5)
        assert first == second
        assert [t.key() for t in first] == [t.key() for t in second]
        different = get_grid(grid).tasks(master_seed=6)
        seeded_keys = {t.key() for t in first if t.seed is not None}
        assert seeded_keys
        assert seeded_keys.isdisjoint(t.key() for t in different if t.seed is not None)

    @pytest.mark.parametrize("grid", list(GRID_KEY_PINS))
    def test_grid_keys_are_pinned(self, grid):
        keys = [task.key() for task in get_grid(grid).tasks()]
        digest = hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()[:16]
        assert (len(keys), digest) == GRID_KEY_PINS[grid]
        assert len(set(keys)) == len(keys)

    def test_every_grid_is_pinned(self):
        # A new grid adds its pin here.
        assert set(GRID_KEY_PINS) == set(available_grids())


class TestAggregation:
    def test_aggregate_missing_artifact_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(InvalidParameterError):
            aggregate_tables(store, [_tiny_task()])

    def test_aggregated_table_has_variant_and_seed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = [_tiny_task(seed=1), _tiny_task(seed=2)]
        run_campaign(tasks, store)
        (table,) = aggregate_tables(store, tasks)
        assert table.columns[:2] == ("variant", "seed")
        assert set(table.column("seed")) == {1, 2}

    def test_summary_table_and_csv_export(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        tasks = get_grid("smoke").tasks()
        summary = run_campaign(tasks, store)
        rendered = summary_table(summary.outcomes).render()
        assert "computed" in rendered
        paths = export_csv(aggregate_tables(store, tasks), tmp_path / "csv")
        assert len(paths) == 1 and paths[0].suffix == ".csv"
        header = paths[0].read_text().splitlines()[0]
        assert header.startswith("variant,seed,workload")


class TestCampaignCli:
    def test_list_grids(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "small:" in out and "smoke:" in out

    def test_list_tasks_of_grid(self, capsys):
        assert main(["campaign", "list", "--grid", "smoke"]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("E1/")

    def test_run_then_cached_rerun_then_report(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        args = ["campaign", "run", "--grid", "smoke", "--store", store_dir, "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "1 computed, 0 cached" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "100% cache hits" in second
        # The cached re-run reproduces the identical aggregated report.
        assert first.split("# campaign:")[1] == second.split("# campaign:")[1]

        csv_dir = str(tmp_path / "csv")
        report_args = [
            "campaign", "report", "--grid", "smoke", "--store", store_dir, "--csv", csv_dir,
        ]
        assert main(report_args) == 0
        report_out = capsys.readouterr().out
        assert "[campaign]" in report_out and "csv:" in report_out

    def test_report_on_empty_store_errors(self, tmp_path, capsys):
        args = [
            "campaign", "report", "--grid", "smoke", "--store", str(tmp_path / "nothing"),
        ]
        assert main(args) == 1
        assert "missing" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--worker"],
            ["run", "--backend", "sqlite"],
            ["run", "--workers", "2"],
            ["run", "--worker-id", "w"],
            ["run", "--lease-ttl", "3"],
            ["gc"],
        ],
        ids=["--worker", "--backend", "--workers", "--worker-id", "--lease-ttl", "gc"],
    )
    def test_removed_flags_are_refused(self, argv, tmp_path):
        # One process runs a grid into one directory: argparse refuses the
        # retired fleet and backend flags and the `gc` subcommand.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exc:
            main(["campaign", argv[0], "--store", str(store), *argv[1:]])
        assert exc.value.code == 2
        assert not store.exists()

    @pytest.mark.parametrize(
        "operand",
        ["regular-file", "regular-file/store", "sqlite:grid.db", "memory:grid", "file:grid"],
    )
    @pytest.mark.parametrize("command", ["run", "report", "diff"])
    def test_bad_store_operand_exits_2_and_creates_nothing(
        self, command, operand, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "regular-file").write_text("not a store\n")
        (tmp_path / "good").mkdir()
        before = sorted(tmp_path.rglob("*"))
        if command == "diff":
            argv = ["campaign", "diff", "good", operand]
        else:
            argv = ["campaign", command, "--grid", "smoke", "--store", operand]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if operand == "regular-file":
            assert captured.err == "error: store 'regular-file' is not a directory\n"
        elif operand == "regular-file/store":
            assert captured.err == (
                "error: store 'regular-file/store' is not a directory "
                "('regular-file' is a file)\n"
            )
        else:
            scheme = operand.partition(":")[0]
            assert captured.err.startswith(f"error: store {operand!r}: the {scheme}: scheme")
        assert sorted(tmp_path.rglob("*")) == before

    def test_diff_identical_and_differing_stores(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["campaign", "run", "--grid", "smoke", "--quiet",
                         "--store", str(tmp_path / name)]) == 0
        assert main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "stores identical" in capsys.readouterr().out
        ArtifactStore(tmp_path / "b").save(KEY, {"extra": True})
        assert main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "stores differ" in capsys.readouterr().out

    def test_diff_refuses_missing_stores(self, tmp_path, capsys):
        # A mistyped path in a CI gate must fail, not diff two new empty stores.
        empty = tmp_path / "empty"
        empty.mkdir()
        typo = str(tmp_path / "typo")
        for specs in ((typo, f"{typo}-b"), (str(empty), typo)):
            assert main(["campaign", "diff", *specs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: store {typo!r} does not exist" in captured.err
            assert list(tmp_path.iterdir()) == [empty]
        # An existing empty directory is still a valid store.
        assert main(["campaign", "diff", str(empty), str(empty)]) == 0
        assert "stores identical: 0 artifact(s)" in capsys.readouterr().out
