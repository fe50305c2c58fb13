"""Tests for the trace-driven workload subsystem and the scenario catalog.

Covers the NDJSON/CSV trace readers and writers (schema errors with line and
field attribution, byte-exact round trips — including the property-based
generate → export → re-ingest → byte-identical ``SolveOutcome`` loop), the
deterministic chunk-stream transforms, the heavy-traffic scenario catalog
(determinism, session-vs-batch byte identity, workload-suite integration),
experiment E14 and the ``repro trace`` / ``repro serve --trace-format`` CLI.
"""

from __future__ import annotations

import copy
import io
import json
import math
import types
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_property_based import flow_instances

import repro
from repro.cli import main
from repro.exceptions import InvalidParameterError, TraceSchemaError
from repro.experiments import run_experiment
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.solvers import solve
from repro.utils.serialization import canonical_json
from repro.workloads import standard_suites, traces, validate_unique_suites
from repro.workloads.generators import DEFAULT_CHUNK_SIZE, InstanceGenerator, JobChunk
from repro.workloads.scenarios import (
    SCENARIOS,
    available_scenarios,
    get_scenario,
    piecewise_warp,
)
from repro.workloads.suites import WorkloadSuite
from repro.workloads.traces import (
    chunks_from_jobs,
    chunks_to_instance,
    iter_ndjson_jobs,
    merge,
    read_trace_chunks,
    read_trace_jobs,
    scale_load,
    shard,
    time_warp,
    trace_instance,
    trace_stats,
    truncate,
    write_csv_trace,
    write_ndjson_trace,
    write_trace,
)


def _round_trip(instance: Instance, fmt: str) -> Instance:
    buf = io.StringIO()
    if fmt == "csv":
        write_csv_trace(instance.jobs, buf)
    else:
        write_ndjson_trace(instance.jobs, buf)
    buf.seek(0)
    return chunks_to_instance(
        read_trace_chunks(buf, fmt), machines=instance.machines, name=instance.name
    )


def _jobs_dicts(instance: Instance) -> list[dict]:
    return [job.to_dict() for job in instance.jobs]


def _ndjson_job(line: str, lineno: int = 1) -> Job:
    """Read ``line`` as line ``lineno`` of an NDJSON trace (the stdio serve input)."""
    ((_, job),) = iter_ndjson_jobs(io.StringIO("\n" * (lineno - 1) + line))
    return job


# --------------------------------------------------------------------------------------
# Row schema and error reporting
# --------------------------------------------------------------------------------------


class TestSchemaErrors:
    def test_missing_field_names_line_and_field(self):
        with pytest.raises(TraceSchemaError) as err:
            _ndjson_job('{"id": 1, "sizes": [1.0]}', lineno=7)
        assert "line 7" in str(err.value) and "'release'" in str(err.value)
        assert err.value.lineno == 7 and err.value.field == "release"

    def test_bad_type_names_field(self):
        with pytest.raises(TraceSchemaError) as err:
            _ndjson_job('{"id": 1, "release": "soon", "sizes": [1.0]}', lineno=2)
        assert err.value.field == "release"
        with pytest.raises(TraceSchemaError) as err:
            _ndjson_job('{"id": 1, "release": 0.0, "sizes": 3}', lineno=2)
        assert err.value.field == "sizes"
        with pytest.raises(TraceSchemaError) as err:
            _ndjson_job('{"id": "x7", "release": 0.0, "sizes": [1.0]}', lineno=4)
        assert err.value.field == "id"

    def test_unknown_fields_tolerated_on_ndjson(self):
        # The serve wire format has always ignored client-side metadata on
        # job lines; the trace reader keeps that compatibility.
        job = _ndjson_job('{"id": 1, "release": 0.0, "sizes": [1.0], "tenant": "a"}')
        assert job.id == 1 and job.sizes == (1.0,)

    def test_non_finite_values_rejected_with_field(self):
        for field, line in [
            ("release", '{"id": 0, "release": NaN, "sizes": [1.0]}'),
            ("release", '{"id": 0, "release": "inf", "sizes": [1.0]}'),
            ("weight", '{"id": 0, "release": 0.0, "sizes": [1.0], "weight": NaN}'),
            ("deadline", '{"id": 0, "release": 0.0, "sizes": [1.0], "deadline": Infinity}'),
            ("sizes", '{"id": 0, "release": 0.0, "sizes": [NaN]}'),
            # An int past float range, which float() refuses with OverflowError.
            ("release", '{"id": 0, "release": 1%s, "sizes": [1.0]}' % ("0" * 400)),
            ("sizes", '{"id": 0, "release": 0.0, "sizes": [1.0, -1%s]}' % ("0" * 400)),
        ]:
            with pytest.raises(TraceSchemaError) as err:
                _ndjson_job(line, lineno=5)
            assert err.value.field == field and err.value.lineno == 5
        # Infinite *sizes* are legitimate: they mark forbidden machines.
        job = _ndjson_job('{"id": 0, "release": 0.0, "sizes": [1.0, Infinity]}')
        assert math.isinf(job.sizes[1])

    def test_invariant_violation_carries_line(self):
        with pytest.raises(TraceSchemaError) as err:
            _ndjson_job('{"id": 1, "release": -2.0, "sizes": [1.0]}', lineno=3)
        assert "line 3" in str(err.value)

    def test_not_json_and_not_object(self):
        with pytest.raises(TraceSchemaError):
            _ndjson_job("{nope", lineno=1)
        with pytest.raises(TraceSchemaError):
            _ndjson_job("[1, 2]", lineno=1)
        # json.loads refuses an int literal past Python's 4,300-digit limit
        # with a plain ValueError rather than a JSONDecodeError.
        with pytest.raises(TraceSchemaError, match="line 3: not valid JSON"):
            _ndjson_job('{"id": 0, "release": %s, "sizes": [1.0]}' % ("9" * 5000), lineno=3)

    def test_nesting_past_the_recursion_limit_is_not_valid_json(self):
        # json.loads raises RecursionError here, not a ValueError.
        with pytest.raises(TraceSchemaError, match=r"line 1: not valid JSON \(maximum"):
            list(read_trace_jobs(io.StringIO("[" * 100_000 + "\n"), "ndjson"))

    def test_trace_schema_error_is_invalid_parameter_error(self):
        # The CLI's exit-2 contract catches ReproError; the subclassing keeps
        # pre-existing callers that catch InvalidParameterError working.
        assert issubclass(TraceSchemaError, InvalidParameterError)

    def test_cross_row_release_order_enforced(self):
        rows = "\n".join(
            [
                '{"id": 0, "release": 5.0, "sizes": [1.0]}',
                '{"id": 1, "release": 1.0, "sizes": [1.0]}',
            ]
        )
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_chunks(io.StringIO(rows)))
        assert err.value.lineno == 2 and err.value.field == "release"

    def test_machine_count_must_be_constant(self):
        rows = "\n".join(
            [
                '{"id": 0, "release": 0.0, "sizes": [1.0]}',
                '{"id": 1, "release": 1.0, "sizes": [1.0, 2.0]}',
            ]
        )
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_chunks(io.StringIO(rows)))
        assert err.value.lineno == 2 and err.value.field == "sizes"

    def test_mixed_deadlines_rejected(self):
        rows = "\n".join(
            [
                '{"id": 0, "release": 0.0, "sizes": [1.0], "deadline": 9.0}',
                '{"id": 1, "release": 1.0, "sizes": [1.0]}',
            ]
        )
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_chunks(io.StringIO(rows)))
        assert err.value.field == "deadline"

    def test_csv_header_errors(self):
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_jobs(io.StringIO("id,release,size_0,bogus\n"), fmt="csv"))
        assert err.value.field == "bogus"
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_jobs(io.StringIO("id,size_0\n"), fmt="csv"))
        assert err.value.field == "release"
        with pytest.raises(TraceSchemaError):
            list(read_trace_jobs(io.StringIO("id,release,size_1\n"), fmt="csv"))

    def test_csv_cell_count_mismatch(self):
        stream = io.StringIO("id,release,size_0\n0,0.0,1.0,extra\n")
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_jobs(stream, fmt="csv"))
        assert err.value.lineno == 2

    def test_csv_duplicate_column_rejected(self):
        stream = io.StringIO("id,release,release,size_0\n0,1.0,2.0,3.0\n")
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_jobs(stream, fmt="csv"))
        assert err.value.field == "release"

    def test_unknown_format_rejected_for_streams_too(self):
        stream = io.StringIO('{"id": 0, "release": 0.0, "sizes": [1.0]}\n')
        with pytest.raises(InvalidParameterError, match="unknown trace format"):
            list(read_trace_jobs(stream, fmt="CSV"))

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    @pytest.mark.parametrize("bad_id, reused", [(2**63, False), (1, True)])
    def test_ids_attributed_in_both_formats(self, fmt, bad_id, reused):
        # Row 5 lands in the second chunk; id 1 was first seen in the first.
        ids = [0, 1, 2, 3, 4, bad_id]
        if fmt == "csv":
            text = "id,release,size_0\n" + "".join(f"{i},{k}.0,1.0\n" for k, i in enumerate(ids))
        else:
            text = "".join(
                f'{{"id": {i}, "release": {k}.0, "sizes": [1.0]}}\n' for k, i in enumerate(ids)
            )
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_chunks(io.StringIO(text), fmt, chunk_size=4))
        assert err.value.lineno == (7 if fmt == "csv" else 6)
        assert err.value.field == "id"
        assert str(bad_id) in str(err.value)
        assert ("duplicate" in str(err.value)) == reused


# --------------------------------------------------------------------------------------
# Exact-JSON rows against the checked path
# --------------------------------------------------------------------------------------


def _decoded(row) -> tuple:
    """A row's job as repr and field types, or its error as type, text, line and field."""
    try:
        job = traces.parse_job_row(row, 7)
    except Exception as exc:  # compared, never swallowed: any type must match
        return ("error", type(exc), str(exc), getattr(exc, "lineno", None),
                getattr(exc, "field", None))
    fields = (job.id, job.release, job.sizes, *job.sizes, job.weight, job.deadline)
    return ("job", repr(job), [type(value) for value in fields])


def _checked(row) -> tuple:
    """:func:`_decoded` through the checked path: a ``MappingProxyType`` is a
    ``Mapping`` but not a ``dict``, so it never takes the exact-JSON path."""
    return _decoded(types.MappingProxyType(row) if isinstance(row, dict) else row)


#: Values at or next to each bound the fast path tests, of every JSON type:
#: ints from -1 to past float range, the float specials, strings the checked
#: path converts, arrays and objects.  2.0 and its successor sit at the base
#: row's release.
_EDGE_VALUES = [
    None, True, False, 0, 1, -1, 2**63, 2**70, -(2**70), 10**400, -(10**400),
    0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0, math.nextafter(2.0, math.inf), -1.0, 1e308,
    math.inf, -math.inf, math.nan, "1.5", "7", "-1", " 2 ", "inf", "nan", "", "x",
    [], [1.0], [math.inf], {}, {"id": 1},
]
#: Valid rows with and without the optional fields.
_BASE_ROWS = [
    {"id": 4, "release": 2.0, "sizes": [1.0, math.inf], "weight": 1.5, "deadline": 9.0},
    {"id": 4, "release": 2.0, "sizes": [1.0, math.inf]},
]

_JSON_SCALARS = (
    st.sampled_from([v for v in _EDGE_VALUES if not isinstance(v, (list, dict))])
    | st.integers(-(2**70), 2**70)
    | st.integers(2**1023, 2**1030).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.text(max_size=3)
)
_JSON_VALUES = (
    _JSON_SCALARS
    | st.lists(_JSON_SCALARS, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "a"]), _JSON_SCALARS, max_size=2)
)
_SIZES = st.floats(min_value=5e-324) | st.sampled_from([math.inf, 5e-324, 2.5])


@st.composite
def _json_rows(draw) -> object:
    """Valid rows as ``json.loads`` gives them, with up to three fields or
    size entries replaced by any JSON value or dropped, sometimes with an
    extra field."""
    release = draw(st.floats(0.0, 100.0) | st.sampled_from([-0.0, 5e-324]))
    row: dict = {
        "id": draw(st.integers(0, 2**70)),
        "release": release,
        "sizes": draw(st.lists(_SIZES, min_size=1, max_size=3)),
    }
    if draw(st.booleans()):
        row["weight"] = draw(st.floats(min_value=5e-324, max_value=1e300))
    if draw(st.booleans()):
        row["deadline"] = draw(st.none() | st.floats(release, 1e300) | st.just(release))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["id", "release", "sizes", "size", "weight", "deadline"]))
        if key == "size" and isinstance(row.get("sizes"), list) and row["sizes"]:
            row["sizes"][draw(st.integers(0, len(row["sizes"]) - 1))] = draw(_JSON_VALUES)
        elif key != "size" and draw(st.integers(0, 4)):
            row[key] = draw(_JSON_VALUES)
        else:
            row.pop(key, None)
    if draw(st.integers(0, 7)) == 0:
        row["tenant"] = draw(_JSON_VALUES)
    return row


class TestExactJsonRows:
    """``parse_job_row`` builds exact-JSON rows with ``Job.trusted``; every row
    decodes, or fails, exactly as through the checked path."""

    @settings(max_examples=500, deadline=None)
    @given(row=_json_rows() | _JSON_VALUES)
    def test_differential_against_checked_path(self, row):
        assert _decoded(row) == _checked(row)

    @pytest.mark.parametrize("key", ["id", "release", "sizes", "size", "weight", "deadline"])
    def test_every_edge_value_in_every_field(self, key):
        # A valid row with one field (or its first size) set to each edge
        # value, or dropped: each decodes, or fails, as the checked path does.
        dropped = object()
        for base in _BASE_ROWS:
            for value in [*_EDGE_VALUES, dropped]:
                row = copy.deepcopy(base)
                target, slot = (row["sizes"], 0) if key == "size" else (row, key)
                if value is not dropped:
                    target[slot] = value
                elif key == "size" or key in row:
                    del target[slot]
                assert _decoded(row) == _checked(row), (key, value, base)

    # One row per fast-path condition that just misses it, and what the
    # checked path makes of it.
    @pytest.mark.parametrize(("line", "expected"), [
        pytest.param('{"id": 3, "release": 2, "sizes": [1.0, 2.0]}',
                     Job(3, 2.0, (1.0, 2.0)), id="int-release"),
        pytest.param('{"id": 3, "release": 2.0, "sizes": [1.0, true]}',
                     "line 7: field 'sizes': expected a number, got bool", id="bool-size"),
        pytest.param('{"id": 3, "release": 2.0, "sizes": [1.0], "weight": "2.5"}',
                     Job(3, 2.0, (1.0,), weight=2.5), id="string-weight"),
        pytest.param('{"id": 3, "release": 2.0, "sizes": [1.0, NaN]}',
                     "line 7: field 'sizes': expected a finite number, got nan", id="nan-size"),
        pytest.param('{"id": 3, "release": 2.0, "sizes": [Infinity, Infinity]}',
                     "line 7: job 3: job cannot be processed on any machine",
                     id="all-inf-sizes"),
        pytest.param('{"id": 3, "release": 2.0, "sizes": [1.0], "deadline": 2.0}',
                     "line 7: job 3: deadline 2.0 must exceed release 2.0",
                     id="deadline-at-release"),
    ])
    def test_a_row_just_outside_the_fast_path(self, line, expected):
        row = json.loads(line)
        assert _decoded(row) == _checked(row)
        if isinstance(expected, Job):
            job = traces.parse_job_row(row, 7)
            assert repr(job) == repr(expected) and type(job.release) is float
        else:
            with pytest.raises(TraceSchemaError) as err:
                traces.parse_job_row(row, 7)
            assert str(err.value) == expected

    def test_exact_json_rows_skip_the_job_checks(self, monkeypatch):
        def checked(job):
            raise AssertionError("Job.__post_init__ ran")

        monkeypatch.setattr(Job, "__post_init__", checked)
        row = {"id": 4, "release": 0.5, "sizes": [1.0, math.inf], "weight": 2.0,
               "deadline": 9.0}
        job = traces.parse_job_row(row, 1)
        assert repr(job) == "Job(id=4, release=0.5, sizes=(1.0, inf), weight=2.0, deadline=9.0)"
        # The checked path builds its job through the checks (and words
        # what they raise).
        with pytest.raises(TraceSchemaError, match="Job.__post_init__ ran"):
            traces.parse_job_row({**row, "release": 1}, 1)


# --------------------------------------------------------------------------------------
# CSV block decoder against the per-row path
# --------------------------------------------------------------------------------------


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def _row_path(text: "str | io.TextIOBase", chunk_size: int) -> list[JobChunk]:
    """The reference: per-row parsing, then chunk assembly."""
    stream = io.StringIO(text) if isinstance(text, str) else text
    return list(chunks_from_jobs(read_trace_jobs(stream, "csv"), chunk_size))


def _block_path(text: "str | io.TextIOBase", chunk_size: int) -> list[JobChunk]:
    stream = io.StringIO(text) if isinstance(text, str) else text
    return list(read_trace_chunks(stream, "csv", chunk_size=chunk_size))


def _outcome(read, text: str, chunk_size: int):
    """A reader's chunks as exact bytes, or its error as type, line, field and text."""
    try:
        chunks = read(text, chunk_size)
    except Exception as exc:  # compared, never swallowed: any type must match
        return ("error", type(exc), getattr(exc, "lineno", None),
                getattr(exc, "field", None), str(exc))
    columns = ("releases", "sizes", "weights", "deadlines", "ids")
    return ("chunks", [
        (chunk.start, [
            None if array is None
            else (array.dtype.str, array.shape, array.flags.c_contiguous, array.tobytes())
            for array in (getattr(chunk, name) for name in columns)
        ])
        for chunk in chunks
    ])


_HEADER = ("id", "release", "weight", "deadline", "size_0", "size_1")
_RELEASE, _WEIGHT, _DEADLINE, _SIZE_0 = 1, 2, 3, 4


def _good_rows(count: int = 10) -> list[list[str]]:
    return [[str(k), f"{k + 1}.0", "1.5", f"{k + 60}.0", "2.0", "inf"] for k in range(count)]


def _with(index: int, value: str):
    def mutate(row: list[str]) -> list[str]:
        row = list(row)
        row[index] = value
        return row
    return mutate


#: One defect per case: how it mutates a good row, and the field it names.
_DEFECTS = {
    "extra cell": (lambda row: row + ["9.0"], None),
    "missing cell": (lambda row: row[:-1], None),
    "release not a number": (_with(_RELEASE, "zzz"), "release"),
    "release nan": (_with(_RELEASE, "nan"), "release"),
    "release inf": (_with(_RELEASE, "inf"), "release"),
    "size nan": (_with(_SIZE_0, "nan"), "sizes"),
    "every size inf": (_with(_SIZE_0, "inf"), None),
    "weight zero": (_with(_WEIGHT, "0"), None),
    "weight negative": (_with(_WEIGHT, "-1.5"), None),
    "deadline at release": (lambda row: _with(_DEADLINE, row[_RELEASE])(row), None),
    "deadline inf": (_with(_DEADLINE, "inf"), "deadline"),
    "deadline missing": (_with(_DEADLINE, ""), "deadline"),
    "release out of order": (_with(_RELEASE, "0.5"), "release"),
    "id past int64": (_with(0, str(2**63)), "id"),
    "id repeated": (_with(0, "0"), "id"),
}


def _spellings(value: float) -> st.SearchStrategy[str]:
    return st.sampled_from([
        repr(value), f"{value:e}", f"{value:E}", f" {value!r}  ", f"\u00a0{value!r}\u2003",
    ])


#: Cells the per-row schema reads in every way: specials, padding, rejects.
_ODD_CELLS = [
    "inf", "Infinity", "-inf", "nan", "1_000", "", " ", "x", "0", "-0.0", "-2.5", "1e400",
    " 7 ", "\u00a07\u2003", "\u00a0", "3.0", str(2**63),
]


@st.composite
def _csv_traces(draw) -> str:
    """Mostly valid CSV traces with a drawn header and a few odd cells."""
    sizes = [f"size_{i}" for i in range(draw(st.integers(1, 3)))]
    optional = [name for name in ("weight", "deadline") if draw(st.booleans())]
    header = draw(st.permutations(["id", "release", *optional, *sizes]))
    with_deadlines = draw(st.booleans())
    odd_share = draw(st.sampled_from([0, 1, 4]))  # in 40ths of the cells
    count = draw(st.integers(0, 9))
    releases = sorted(draw(st.lists(st.floats(0.0, 50.0), min_size=count, max_size=count)))
    rows = []
    for k, release in enumerate(releases):
        cells = {"id": str(k), "release": draw(_spellings(release))}
        cells["weight"] = draw(_spellings(draw(st.sampled_from([1.0, 0.5, 3.25]))))
        cells["deadline"] = draw(_spellings(release + 7.5)) if with_deadlines else ""
        for name in sizes:
            cells[name] = draw(_spellings(draw(st.sampled_from([1.0, 2.5, 1e-3, math.inf]))))
        for name in header:
            if draw(st.integers(0, 39)) < odd_share:
                pool = _ODD_CELLS + ([str(draw(st.integers(0, k - 1)))] if k else [])
                cells[name] = draw(st.sampled_from(pool))
        rows.append([cells[name] for name in header])
    return _csv_text(header, rows)


class TestCsvBlockDecoder:
    """``read_trace_chunks`` on CSV equals per-row parsing, errors included.

    Most cases shrink the decoder's blocks to two rows, so a chunk of four is
    two blocks and every block and chunk boundary is a few rows in.
    """

    @pytest.mark.parametrize("position", [1, 3, 4, 6],
                             ids=["chunk-1", "chunk-1-block-2", "chunk-2", "chunk-2-block-2"])
    @pytest.mark.parametrize("defect", sorted(_DEFECTS))
    def test_error_matches_row_path(self, monkeypatch, defect, position):
        monkeypatch.setattr(traces, "_BLOCK_ROWS", 2)
        mutate, field = _DEFECTS[defect]
        rows = _good_rows()
        rows[position] = mutate(rows[position])
        text = _csv_text(_HEADER, rows)
        expected = _outcome(_row_path, text, 4)
        assert expected[:4] == ("error", TraceSchemaError, position + 2, field)
        assert _outcome(_block_path, text, 4) == expected

    @pytest.mark.parametrize("block_rows", [2, traces._BLOCK_ROWS])
    def test_deadlines_stopping_at_a_chunk_boundary_are_mixed(self, monkeypatch, block_rows):
        monkeypatch.setattr(traces, "_BLOCK_ROWS", block_rows)
        rows = _good_rows()
        for row in rows[4:]:
            row[_DEADLINE] = ""
        text = _csv_text(_HEADER, rows)
        expected = _outcome(_row_path, text, 4)
        assert expected[:4] == ("error", TraceSchemaError, 6, "deadline")
        assert _outcome(_block_path, text, 4) == expected

    @pytest.mark.parametrize("block_rows", [2, traces._BLOCK_ROWS])
    @pytest.mark.parametrize("chunk_size", [3, DEFAULT_CHUNK_SIZE])
    @pytest.mark.parametrize("edit", [
        "none", "blank weight", "blank deadlines", "blank rows", "padded cells",
    ])
    def test_accepted_rows_give_identical_chunks(self, monkeypatch, edit, chunk_size, block_rows):
        monkeypatch.setattr(traces, "_BLOCK_ROWS", block_rows)
        rows = _good_rows()
        if edit == "blank weight":  # read as weight 1.0 by the per-row path
            rows[5][_WEIGHT] = ""
        elif edit == "blank deadlines":  # whitespace-only cells mean no deadline
            for row in rows:
                row[_DEADLINE] = " "
        elif edit == "padded cells":
            rows[2] = [f"\u2003{cell} " for cell in rows[2]]
        text = _csv_text(_HEADER, rows)
        if edit == "blank rows":
            text = text.replace("\n", "\n\n  \n", 3)
        outcome = _outcome(_block_path, text, chunk_size)
        assert outcome[0] == "chunks"
        assert outcome == _outcome(_row_path, text, chunk_size)

    def test_reader_error_after_a_bad_row_keeps_the_row_error(self):
        # Undecodable bytes stop the csv reader; the per-row path has already
        # met the bad release on line 3 by then, so that is what is reported.
        data = ("id,release,size_0\n0,0.0,1.0\n1,zzz,1.0\n".encode()
                + b"2,2.0,1.0\n" * 4000 + b"\xff\n")
        for read in (_row_path, _block_path):
            stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
            with pytest.raises(TraceSchemaError) as err:
                read(stream, DEFAULT_CHUNK_SIZE)
            assert (err.value.lineno, err.value.field) == (3, "release")

    @pytest.mark.parametrize("block_rows", [2, traces._BLOCK_ROWS])
    @pytest.mark.parametrize("chunk_size", [1, 3, DEFAULT_CHUNK_SIZE])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=_csv_traces())
    def test_differential_against_row_path(self, chunk_size, block_rows, text):
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            block = _outcome(_block_path, text, chunk_size)
        assert block == _outcome(_row_path, text, chunk_size)


# --------------------------------------------------------------------------------------
# Round trips
# --------------------------------------------------------------------------------------


class TestRoundTrips:
    @pytest.fixture(scope="class")
    def instance(self):
        return InstanceGenerator(
            num_machines=3, machine_model="restricted", seed=11
        ).generate(60)

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_jobs_identical_after_round_trip(self, instance, fmt):
        back = _round_trip(instance, fmt)
        assert _jobs_dicts(back) == _jobs_dicts(instance)

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_restricted_assignment_inf_survives(self, instance, fmt):
        assert any(math.isinf(p) for job in instance.jobs for p in job.sizes)
        back = _round_trip(instance, fmt)
        assert _jobs_dicts(back) == _jobs_dicts(instance)

    def test_deadline_and_weight_columns(self):
        jobs = [
            Job(0, release=0.0, sizes=(2.0, 3.0), weight=1.5, deadline=9.0),
            Job(1, release=1.0, sizes=(1.0, math.inf), weight=0.25, deadline=4.5),
        ]
        instance = Instance.build(2, jobs)
        for fmt in ("ndjson", "csv"):
            back = _round_trip(instance, fmt)
            assert _jobs_dicts(back) == _jobs_dicts(instance)

    def test_export_is_byte_stable(self, instance):
        first, second = io.StringIO(), io.StringIO()
        write_ndjson_trace(instance.jobs, first)
        write_ndjson_trace(instance.jobs, second)
        assert first.getvalue() == second.getvalue()

    def test_ndjson_csv_ndjson_is_byte_identical(self, instance, tmp_path):
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.ndjson"
        write_trace(instance.jobs, a)
        write_trace(read_trace_chunks(a), b)
        write_trace(read_trace_chunks(b), c)
        assert a.read_text() == c.read_text()

    def test_trace_instance_infers_machines(self, instance, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(instance.jobs, path)
        back = trace_instance(path)
        assert back.num_machines == instance.num_machines
        assert _jobs_dicts(back) == _jobs_dicts(instance)

    def test_write_trace_is_atomic(self, instance, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(instance.jobs, path)
        before = path.read_text()
        # An unknown format is rejected before the destination is touched...
        with pytest.raises(InvalidParameterError, match="unknown trace format"):
            write_trace(instance.jobs, path, fmt="xml")
        assert path.read_text() == before
        # ...and a writer crash mid-stream leaves the old contents intact.
        def exploding():
            yield instance.jobs[0]
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            write_trace(exploding(), path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path], "no temp files left behind"

    def test_in_place_convert_is_safe(self, instance, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(instance.jobs, path)
        # The reader is lazy and the writer goes through a temp file, so
        # reading and rewriting the same path must not destroy the trace.
        count = write_trace(scale_load(read_trace_chunks(path), 2.0), path)
        assert count == instance.num_jobs
        back = trace_instance(path, machines=instance.machines)
        assert [j.sizes for j in back.jobs] == [
            tuple(p * 2.0 for p in j.sizes) for j in instance.jobs
        ]

    def test_chunk_boundaries_do_not_change_result(self, instance):
        buf = io.StringIO()
        write_ndjson_trace(instance.jobs, buf)
        small = list(read_trace_chunks(io.StringIO(buf.getvalue()), chunk_size=7))
        big = list(read_trace_chunks(io.StringIO(buf.getvalue()), chunk_size=1000))
        assert len(small) > 1 and len(big) == 1
        jobs_small = [j.to_dict() for c in small for j in c.jobs()]
        jobs_big = [j.to_dict() for c in big for j in c.jobs()]
        assert jobs_small == jobs_big

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances(), fmt=st.sampled_from(["ndjson", "csv"]))
    def test_property_solve_outcome_byte_identical(self, instance, fmt):
        """generate -> export -> re-ingest -> byte-identical SolveOutcome."""
        back = _round_trip(instance, fmt)
        original = solve(instance, "rejection-flow", epsilon=0.5)
        replayed = solve(back, "rejection-flow", epsilon=0.5)
        assert canonical_json(original.as_row()) == canonical_json(replayed.as_row())
        assert original.result.records == replayed.result.records


# --------------------------------------------------------------------------------------
# Transforms
# --------------------------------------------------------------------------------------


def _chunks(instance: Instance, chunk_size: int = 16):
    buf = io.StringIO()
    write_ndjson_trace(instance.jobs, buf)
    buf.seek(0)
    return read_trace_chunks(buf, chunk_size=chunk_size)


class TestTransforms:
    @pytest.fixture(scope="class")
    def instance(self):
        return InstanceGenerator(num_machines=2, seed=5).generate(50)

    def test_scale_load_multiplies_sizes(self, instance):
        out = chunks_to_instance(scale_load(_chunks(instance), 2.0), machines=2)
        for before, after in zip(instance.jobs, out.jobs):
            assert after.sizes == tuple(p * 2.0 for p in before.sizes)
            assert after.release == before.release

    def test_time_warp_factor(self, instance):
        out = chunks_to_instance(time_warp(_chunks(instance), 0.5), machines=2)
        for before, after in zip(instance.jobs, out.jobs):
            assert after.release == before.release * 0.5

    def test_time_warp_function_applies_to_deadlines(self):
        jobs = [Job(k, release=float(k), sizes=(1.0,), deadline=float(k) + 2.0)
                for k in range(10)]
        instance = Instance.build(1, jobs)
        out = chunks_to_instance(
            time_warp(_chunks(instance), lambda t: t * 3.0), machines=1
        )
        for job in out.jobs:
            assert job.deadline == (job.release / 3.0 + 2.0) * 3.0

    def test_invalid_factors_rejected(self, instance):
        with pytest.raises(InvalidParameterError):
            list(scale_load(_chunks(instance), 0.0))
        with pytest.raises(InvalidParameterError):
            list(time_warp(_chunks(instance), -1.0))

    def test_truncate_by_jobs_and_time(self, instance):
        out = chunks_to_instance(truncate(_chunks(instance), max_jobs=7), machines=2)
        assert out.num_jobs == 7
        assert _jobs_dicts(out) == _jobs_dicts(instance)[:7]
        cutoff = instance.jobs[20].release
        timed = chunks_to_instance(
            truncate(_chunks(instance), max_time=cutoff), machines=2
        )
        assert all(job.release <= cutoff for job in timed.jobs)
        assert timed.num_jobs == sum(1 for j in instance.jobs if j.release <= cutoff)

    def test_shard_partitions_trace(self, instance):
        shards = [
            chunks_to_instance(shard(_chunks(instance), 3, i), machines=2)
            for i in range(3)
        ]
        assert sum(s.num_jobs for s in shards) == instance.num_jobs
        # Shards renumber sequentially and preserve the original interleaving.
        for s in shards:
            assert [job.id for job in s.jobs] == list(range(s.num_jobs))
        releases = sorted(r for s in shards for r in (j.release for j in s.jobs))
        assert releases == [job.release for job in instance.jobs]
        with pytest.raises(InvalidParameterError):
            list(shard(_chunks(instance), 3, 5))

    def test_merge_orders_by_release_and_renumbers(self):
        a = InstanceGenerator(num_machines=2, seed=1).generate(30)
        b = InstanceGenerator(num_machines=2, seed=2).generate(20)
        merged = chunks_to_instance(
            merge(_chunks(a, 8), _chunks(b, 8), chunk_size=16), machines=2
        )
        assert merged.num_jobs == 50
        assert [job.id for job in merged.jobs] == list(range(50))
        releases = [job.release for job in merged.jobs]
        assert releases == sorted(releases)
        assert sorted(releases) == sorted(
            [j.release for j in a.jobs] + [j.release for j in b.jobs]
        )

    def test_merge_is_deterministic(self):
        a = InstanceGenerator(num_machines=2, seed=1).generate(25)
        b = InstanceGenerator(num_machines=2, seed=2).generate(25)
        one = chunks_to_instance(merge(_chunks(a, 4), _chunks(b, 64)), machines=2)
        two = chunks_to_instance(merge(_chunks(a, 4), _chunks(b, 64)), machines=2)
        assert _jobs_dicts(one) == _jobs_dicts(two)

    def test_merge_rejects_machine_mismatch(self):
        a = InstanceGenerator(num_machines=2, seed=1).generate(10)
        b = InstanceGenerator(num_machines=3, seed=2).generate(10)
        with pytest.raises(InvalidParameterError):
            list(merge(_chunks(a), _chunks(b)))

    def test_stats(self, instance):
        stats = trace_stats(_chunks(instance))
        assert stats.num_jobs == instance.num_jobs
        assert stats.num_machines == 2
        assert stats.first_release == instance.jobs[0].release
        assert stats.last_release == instance.jobs[-1].release
        assert not stats.has_deadlines
        empty = trace_stats(iter(()))
        assert empty.num_jobs == 0


# --------------------------------------------------------------------------------------
# Round-robin shard and merge on the scenario catalog
# --------------------------------------------------------------------------------------


def _ndjson(chunks) -> str:
    buf = io.StringIO()
    write_ndjson_trace(chunks, buf)
    return buf.getvalue()


def _scenario_instance(name: str) -> Instance:
    return chunks_to_instance(get_scenario(name).job_chunks(48, 2, seed=2018))


def _row_without_id(job: Job) -> str:
    return canonical_json({k: v for k, v in job.to_dict().items() if k != "id"})


class TestShardAndMerge:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_shard_is_independent_of_chunking(self, name):
        # Round-robin keys on stream position, never on chunk boundaries.
        instance = _scenario_instance(name)
        for index in range(3):
            fine = shard(_chunks(instance, chunk_size=7), 3, index)
            coarse = shard(_chunks(instance, chunk_size=64), 3, index)
            assert _ndjson(fine) == _ndjson(coarse), index

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_shard_keeps_every_kth_job_renumbered(self, name):
        instance = _scenario_instance(name)
        rows = [_row_without_id(job) for job in instance.jobs]
        for num_shards in (1, 3):
            for index in range(num_shards):
                kept = chunks_to_instance(
                    shard(_chunks(instance), num_shards, index), machines=2
                )
                assert [job.id for job in kept.jobs] == list(range(kept.num_jobs))
                assert [_row_without_id(job) for job in kept.jobs] == rows[
                    index::num_shards
                ]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_merge_of_shards_restores_trace_up_to_release_ties(self, name):
        # One shard is the whole trace, so merging it is the identity.  With
        # three, every job comes back and releases keep their order; only
        # rows released at the same instant (flash-crowd bursts) may swap.
        instance = _scenario_instance(name)
        assert _ndjson(merge(shard(_chunks(instance), 1, 0))) == _ndjson(instance.jobs)
        merged = chunks_to_instance(
            merge(*(shard(_chunks(instance), 3, index) for index in range(3))),
            machines=2,
        )
        assert [job.id for job in merged.jobs] == list(range(instance.num_jobs))
        assert [job.release for job in merged.jobs] == [
            job.release for job in instance.jobs
        ]
        assert sorted(map(_row_without_id, merged.jobs)) == sorted(
            map(_row_without_id, instance.jobs)
        )

    @pytest.mark.parametrize("num_shards, index", [(0, 0), (3, 3), (3, -1)])
    def test_shard_rejects_out_of_range_arguments(self, num_shards, index):
        instance = InstanceGenerator(num_machines=2, seed=1).generate(5)
        with pytest.raises(InvalidParameterError):
            list(shard(_chunks(instance), num_shards, index))

    def test_merge_tie_runs_go_out_as_blocks(self):
        # Heads tie at 0.0: the earlier stream emits its whole tie run first.
        # Stream b then emits through a's next head (1.0) inclusive, so b's
        # row at 1.0 precedes a's.
        a = Instance.build(1, [Job(0, 0.0, (1.0,)), Job(1, 0.0, (1.0,)),
                               Job(2, 1.0, (1.0,))])
        b = Instance.build(1, [Job(0, 0.0, (2.0,)), Job(1, 1.0, (2.0,))])
        merged = chunks_to_instance(merge(_chunks(a), _chunks(b)), machines=1)
        assert [(job.release, job.sizes[0]) for job in merged.jobs] == [
            (0.0, 1.0), (0.0, 1.0), (0.0, 2.0), (1.0, 2.0), (1.0, 1.0)
        ]

    def test_merge_gives_unweighted_streams_weight_one(self):
        weighted = Instance.build(1, [Job(0, 0.0, (1.0,), weight=2.0),
                                      Job(1, 2.0, (1.0,), weight=3.0)])
        unweighted = JobChunk(0, np.array([1.0]), np.array([[1.0]]))
        merged = chunks_to_instance(
            merge(_chunks(weighted), iter([unweighted])), machines=1
        )
        assert [job.weight for job in merged.jobs] == [2.0, 1.0, 3.0]

    def test_merge_rechunks_to_chunk_size(self):
        # Input chunking does not carry over: every output chunk but the last
        # holds at least ``chunk_size`` rows, and starts are contiguous.
        a = InstanceGenerator(num_machines=2, seed=1).generate(30)
        b = InstanceGenerator(num_machines=2, seed=2).generate(20)
        chunks = list(merge(_chunks(a, 7), _chunks(b, 64), chunk_size=16))
        sizes = [len(chunk) for chunk in chunks]
        assert sum(sizes) == 50 and len(chunks) > 1
        assert all(size >= 16 for size in sizes[:-1])
        assert [chunk.start for chunk in chunks] == [sum(sizes[:k]) for k in range(len(sizes))]

    def test_merge_needs_a_stream(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            list(merge())

    def test_merge_rejects_mixed_deadlines(self):
        timed = Instance.build(1, [Job(0, 0.0, (1.0,), deadline=3.0)])
        untimed = Instance.build(1, [Job(0, 1.0, (1.0,))])
        with pytest.raises(InvalidParameterError, match="deadlines"):
            list(merge(_chunks(timed), _chunks(untimed)))


# --------------------------------------------------------------------------------------
# JobChunk ids column
# --------------------------------------------------------------------------------------


class TestChunkIds:
    def test_explicit_ids_used_by_jobs(self):
        chunk = JobChunk(
            start=0,
            releases=np.array([0.0, 1.0]),
            sizes=np.array([[1.0], [2.0]]),
            ids=np.array([7, 3]),
        )
        chunk.validate()
        assert [job.id for job in chunk.jobs()] == [7, 3]
        assert chunk.job_ids().tolist() == [7, 3]

    def test_default_ids_contiguous_from_start(self):
        chunk = JobChunk(5, np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
        assert chunk.job_ids().tolist() == [5, 6]

    def test_duplicate_and_negative_ids_rejected(self):
        base = dict(start=0, releases=np.array([0.0, 1.0]),
                    sizes=np.array([[1.0], [2.0]]))
        with pytest.raises(Exception):
            JobChunk(**base, ids=np.array([1, 1])).validate()
        with pytest.raises(Exception):
            JobChunk(**base, ids=np.array([-1, 0])).validate()


# --------------------------------------------------------------------------------------
# Scenario catalog
# --------------------------------------------------------------------------------------


class TestScenarios:
    def test_catalog_contents(self):
        catalog = available_scenarios()
        assert {"heavy-tail-pareto", "diurnal-pareto", "flash-crowd",
                "multi-tenant-mix", "load-ramp",
                "drift-diurnal-flash", "drift-ramp-heavytail"} == set(catalog)
        assert all(description for description in catalog.values())

    def test_unknown_scenario(self):
        with pytest.raises(InvalidParameterError):
            get_scenario("nope")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_deterministic_in_seed(self, name):
        scenario = get_scenario(name)
        one = scenario.instance(40, num_machines=3, seed=9)
        two = scenario.instance(40, num_machines=3, seed=9)
        other = scenario.instance(40, num_machines=3, seed=10)
        assert one.to_dict() == two.to_dict()
        assert one.to_dict() != other.to_dict()
        assert one.num_jobs == 40 and one.num_machines == 3

    @pytest.mark.parametrize(
        "name", ["flash-crowd", "heavy-tail-pareto", "multi-tenant-mix", "load-ramp"]
    )
    def test_session_ingest_matches_batch_solve_byte_identically(self, name):
        """Acceptance: trace -> session reproduces repro.solve byte-identically."""
        scenario = get_scenario(name)
        instance = scenario.instance(60, num_machines=3, seed=4, name="t")
        batch = solve(instance, "rejection-flow", epsilon=0.5)
        session = repro.open_session("rejection-flow", 3, epsilon=0.5, name="t")
        for chunk in scenario.job_chunks(60, num_machines=3, seed=4, chunk_size=13):
            session.submit_many(chunk)
        streamed = session.finalize()
        assert canonical_json(streamed.as_row()) == canonical_json(batch.as_row())
        assert streamed.result.records == batch.result.records
        assert streamed.result.intervals == batch.result.intervals

    def test_exported_scenario_trace_replays_byte_identically(self, tmp_path):
        scenario = get_scenario("diurnal-pareto")
        path = tmp_path / "diurnal.csv"
        write_trace(scenario.job_chunks(50, num_machines=2, seed=3), path)
        batch = solve(scenario.instance(50, num_machines=2, seed=3), "greedy")
        session = repro.open_session("greedy", 2)
        for chunk in read_trace_chunks(path):
            session.submit_many(chunk)
        replayed = session.finalize()
        assert canonical_json(replayed.as_row()) == canonical_json(batch.as_row())

    def test_piecewise_warp_monotone_and_rate_shaped(self):
        warp = piecewise_warp(period=8.0, multipliers=(0.5, 2.0))
        u = np.linspace(0.0, 40.0, 500)
        t = warp(u)
        assert (np.diff(t) >= 0).all()
        # Work accumulates at rate `multiplier`: a unit of work in the slow
        # half spans 4x the wall time of a unit in the fast half (0.5 vs 2).
        assert warp(np.array([2.0]))[0] == pytest.approx(4.0)
        assert warp(np.array([2.0 + 8.0]))[0] == pytest.approx(4.0 + 4.0)
        with pytest.raises(InvalidParameterError):
            piecewise_warp(0.0, (1.0,))
        with pytest.raises(InvalidParameterError):
            piecewise_warp(1.0, (1.0, -2.0))

    def test_suites_expose_scenarios_at_all_scales(self):
        sizes = {}
        for scale in ("small", "medium"):
            suites = standard_suites(scale)
            assert set(suites["scenarios"].labels()) == set(SCENARIOS)
            sizes[scale] = suites["scenarios"].build("flash-crowd").num_jobs
        assert sizes["medium"] > sizes["small"]

    def test_validate_unique_suites(self):
        a, b = WorkloadSuite(name="dup"), WorkloadSuite(name="dup")
        with pytest.raises(InvalidParameterError):
            validate_unique_suites([a, b])
        validate_unique_suites([a, WorkloadSuite(name="other")])


# --------------------------------------------------------------------------------------
# Experiment E14
# --------------------------------------------------------------------------------------


class TestE14:
    _CONFIG = dict(
        scenarios=("flash-crowd", "multi-tenant-mix"),
        algorithms=("rejection-flow", "fcfs"),
        num_jobs=30,
        num_machines=2,
    )

    def test_session_and_batch_ingest_agree(self):
        streamed = run_experiment("E14", ingest="session", **self._CONFIG)
        batch = run_experiment("E14", ingest="batch", **self._CONFIG)
        # Identical measurements; only the recorded ingest-mode label differs.
        strip = lambda raw: {k: v for k, v in raw.items() if k != "ingest"}  # noqa: E731
        assert canonical_json(strip(streamed.raw)) == canonical_json(strip(batch.raw))

    def test_raw_is_byte_reproducible(self):
        one = run_experiment("E14", **self._CONFIG)
        two = run_experiment("E14", **self._CONFIG)
        assert canonical_json(one.raw) == canonical_json(two.raw)

    def test_all_streaming_solvers_by_default(self):
        from repro.service.session import streaming_algorithms

        result = run_experiment(
            "E14", scenarios=("flash-crowd",), num_jobs=20, num_machines=2
        )
        assert {row["algorithm"] for row in result.raw["rows"]} == set(
            streaming_algorithms()
        )

    def test_unknown_ingest_mode(self):
        with pytest.raises(ValueError):
            run_experiment("E14", ingest="teleport", **self._CONFIG)


# --------------------------------------------------------------------------------------
# CLI: repro trace + serve trace formats
# --------------------------------------------------------------------------------------


class TestTraceCli:
    def _generate(self, tmp_path, fmt="ndjson", jobs=40):
        path = tmp_path / f"t.{fmt}"
        code = main(
            ["trace", "generate", "--scenario", "flash-crowd", "--jobs", str(jobs),
             "--machines", "2", "--out", str(path)],
            out=io.StringIO(),
        )
        assert code == 0
        return path

    def test_scenarios_listing(self, capsys):
        assert main(["trace", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "multi-tenant-mix" in out

    def test_generate_and_inspect(self, tmp_path):
        path = self._generate(tmp_path)
        out = io.StringIO()
        assert main(["trace", "inspect", str(path)], out=out) == 0
        assert "num_jobs" in out.getvalue() and ": 40" in out.getvalue()
        as_json = io.StringIO()
        assert main(["trace", "inspect", str(path), "--json"], out=as_json) == 0
        assert json.loads(as_json.getvalue())["num_jobs"] == 40

    def test_convert_round_trip_byte_identical(self, tmp_path):
        src = self._generate(tmp_path)
        csv_path = tmp_path / "t.csv"
        back = tmp_path / "back.ndjson"
        assert main(["trace", "convert", str(src), str(csv_path)], out=io.StringIO()) == 0
        assert main(["trace", "convert", str(csv_path), str(back)], out=io.StringIO()) == 0
        assert src.read_text() == back.read_text()

    def test_convert_transforms(self, tmp_path):
        src = self._generate(tmp_path)
        dst = tmp_path / "out.ndjson"
        code = main(
            ["trace", "convert", str(src), str(dst), "--load-scale", "2.0",
             "--time-warp", "0.5", "--max-jobs", "10"],
            out=io.StringIO(),
        )
        assert code == 0
        assert trace_instance(dst, machines=2).num_jobs == 10
        shard_dst = tmp_path / "shard.ndjson"
        assert main(
            ["trace", "convert", str(src), str(shard_dst), "--shard", "1/4"],
            out=io.StringIO(),
        ) == 0
        assert trace_instance(shard_dst, machines=2).num_jobs == 10

    @pytest.mark.parametrize("spec", ["0/1", "0/3", "1/3", "2/3"])
    def test_convert_shard_writes_the_library_shard(self, tmp_path, spec):
        src = self._generate(tmp_path)
        dst = tmp_path / "shard.ndjson"
        assert main(["trace", "convert", str(src), str(dst), "--shard", spec],
                    out=io.StringIO()) == 0
        index, num_shards = map(int, spec.split("/"))
        assert dst.read_text() == _ndjson(shard(read_trace_chunks(src), num_shards, index))

    def test_convert_bad_shard_exits_2(self, tmp_path, capsys):
        src = self._generate(tmp_path)
        code = main(["trace", "convert", str(src), str(tmp_path / "o.ndjson"),
                     "--shard", "nope"])
        assert code == 2
        assert "--shard" in capsys.readouterr().err

    def test_inspect_malformed_exits_2_with_line_and_field(self, tmp_path, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"id": 0, "release": 0.0, "sizes": [1.0]}\n{"id": 1}\n')
        assert main(["trace", "inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'release'" in err

    @pytest.mark.parametrize(
        "command",
        [["solve", "--trace"], ["trace", "inspect"], ["trace", "convert"]],
        ids=["solve", "inspect", "convert"],
    )
    def test_nesting_past_the_recursion_limit_exits_2_with_line(self, tmp_path, capsys, command):
        path = tmp_path / "nested.ndjson"
        path.write_text('{"id": 0, "release": 0.0, "sizes": [1.0]}\n' + "[" * 100_000 + "\n")
        argv = [*command, str(path)]
        if command[-1] == "convert":
            argv.append(str(tmp_path / "out.csv"))
        assert main(argv, out=io.StringIO()) == 2
        assert capsys.readouterr().err.startswith("error: line 2: not valid JSON (maximum")

    @pytest.mark.parametrize("command", [["solve", "--trace"], ["trace", "inspect"]])
    @pytest.mark.parametrize("column, value, field", [
        (1, "zzz", "release"),
        (0, str(2**63), "id"),
        (0, "5", "id"),
    ], ids=["bad-release", "id-past-int64", "id-repeated-across-chunks"])
    def test_bulk_reader_errors_exit_2_with_line_and_field(
        self, tmp_path, capsys, command, column, value, field
    ):
        # The bad row sits in the second chunk, after a whole block decoded in bulk.
        rows = [[str(k), f"{k}.0", "1.0"] for k in range(DEFAULT_CHUNK_SIZE + 4)]
        bad = DEFAULT_CHUNK_SIZE + 1
        rows[bad][column] = value
        path = tmp_path / "bad.csv"
        path.write_text(_csv_text(["id", "release", "size_0"], rows))
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {bad + 2}" in err and f"'{field}'" in err

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        code = main(["trace", "generate", "--scenario", "nope", "--out",
                     str(tmp_path / "x.ndjson")])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_serve_csv_trace_matches_ndjson_trace(self, tmp_path):
        src = self._generate(tmp_path, jobs=30)
        csv_path = tmp_path / "t.csv"
        assert main(["trace", "convert", str(src), str(csv_path)], out=io.StringIO()) == 0
        out_ndjson, out_csv = io.StringIO(), io.StringIO()
        args = ["serve", "--algorithm", "rejection-flow", "--machines", "2", "--quiet"]
        assert main([*args, "--trace", str(src)], out=out_ndjson) == 0
        assert main([*args, "--trace", str(csv_path)], out=out_csv) == 0
        assert out_ndjson.getvalue() == out_csv.getvalue()
        final = json.loads(out_csv.getvalue().strip().splitlines()[-1])
        assert final["event"] == "final"

    def test_serve_csv_malformed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,release,size_0\n0,0.0,1.0\n1,zzz,1.0\n")
        code = main(["serve", "--machines", "1", "--trace", str(path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'release'" in err
