"""Trace-driven workloads: ingest, export and transform job traces.

The paper's setting is online, but until now every workload was generated
in-process.  This module makes recorded workloads first-class: a *trace* is a
stream of job rows in one of two on-disk formats, both read **incrementally**
as validated :class:`~repro.workloads.generators.JobChunk` blocks so
million-job traces feed :func:`repro.solve`, a streaming
:class:`~repro.service.session.SchedulerSession` and ``repro serve --trace``
without materialising Python lists.

Formats
-------
* **NDJSON** — one JSON object per line, exactly the ``repro serve`` wire
  schema (:meth:`Job.to_dict` / :meth:`Job.from_dict`):
  ``{"id": 0, "release": 0.0, "sizes": [3.0, 4.0]}`` with optional
  ``weight`` and ``deadline``.  Blank lines and ``#`` comments are skipped.
* **CSV** — cluster-trace-style rows with the header
  ``id,release,weight,deadline,size_0,...,size_{m-1}``; ``weight`` and
  ``deadline`` columns are optional, an empty ``deadline`` cell means none,
  and ``inf`` marks a forbidden machine.

Both readers raise :class:`~repro.exceptions.TraceSchemaError` with the
1-based line number and the offending field on malformed rows.  CSV files
are decoded a block of rows at a time into Python columns with ``float()``
and ``int()`` and checked in bulk; a block that fails a conversion or a
check is decoded again row by row, so errors name the same line and field
as the per-row reader's.  :func:`trace_instance` builds its jobs straight
from the decoded rows and loads no numpy; :func:`read_trace_chunks` turns
the same blocks into numpy columns.
The exporters (:func:`write_ndjson_trace` / :func:`write_csv_trace`) emit
byte-stable text (canonical JSON, shortest round-tripping float repr), so an
export → ingest round trip reproduces the source jobs **exactly** — the
property-based suite asserts byte-identical ``SolveOutcome`` rows.

Transforms
----------
Deterministic, composable chunk-stream transforms build scenario variants out
of recorded or generated traces: :func:`scale_load` (multiply sizes),
:func:`time_warp` (monotone re-clocking, constant factor or vectorised
function), :func:`truncate`, :func:`shard` (1-of-k round-robin
partitioning) and :func:`merge` (k-way release-ordered interleaving of
several traces).  The scenario catalog (:mod:`repro.workloads.scenarios`) is
layered on these.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from itertools import islice
from operator import attrgetter, le, lt
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from repro.exceptions import InvalidParameterError, TraceSchemaError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.utils.serialization import canonical_json
from repro.workloads.chunks import DEFAULT_CHUNK_SIZE, JobChunk
from repro.workloads.rows import parse_job_row

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TRACE_FORMATS",
    "TraceStats",
    "parse_job_row",
    "sniff_format",
    "read_trace_jobs",
    "read_trace_chunks",
    "iter_ndjson_jobs",
    "iter_csv_jobs",
    "chunks_from_jobs",
    "chunks_to_instance",
    "trace_instance",
    "trace_stats",
    "write_ndjson_trace",
    "write_csv_trace",
    "write_trace",
    "scale_load",
    "time_warp",
    "truncate",
    "shard",
    "merge",
]

#: Supported trace formats (file extension -> format name via sniffing).
TRACE_FORMATS = ("ndjson", "csv")

_NDJSON_SUFFIXES = {".ndjson", ".jsonl", ".json"}

#: Largest id a chunk's int64 ``ids`` column holds.
_INT64_MAX = 2**63 - 1


# --------------------------------------------------------------------------------------
# Readers
# --------------------------------------------------------------------------------------


def sniff_format(path: "str | Path") -> str:
    """Guess the trace format from a file name (``.csv`` vs ``.ndjson``/``.jsonl``)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in _NDJSON_SUFFIXES:
        return "ndjson"
    raise InvalidParameterError(
        f"cannot infer trace format from {str(path)!r}; pass format "
        f"{'/'.join(TRACE_FORMATS)} explicitly"
    )


def iter_ndjson_jobs(stream: TextIO) -> Iterator[tuple[int, Job]]:
    """Yield ``(lineno, Job)`` per NDJSON job line (blank/comment lines skipped)."""
    import json

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # ValueError: malformed JSON or an int past the digit limit;
        # RecursionError: nesting past the recursion limit.
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise TraceSchemaError(f"not valid JSON ({exc})", lineno=lineno) from exc
        yield lineno, parse_job_row(data, lineno)


def _csv_columns(header: Sequence[str]) -> tuple[list[str], int]:
    """Validate the CSV header; returns (columns, num_machines)."""
    columns = [name.strip() for name in header]
    size_indices = []
    seen: set[str] = set()
    for name in columns:
        if name in seen:
            raise TraceSchemaError("duplicate column", lineno=1, field=name)
        seen.add(name)
        if name.startswith("size_"):
            try:
                size_indices.append(int(name[len("size_"):]))
            except ValueError:
                raise TraceSchemaError(
                    "size columns must be size_0..size_{m-1}", lineno=1, field=name
                ) from None
        elif name not in ("id", "release", "weight", "deadline"):
            raise TraceSchemaError(
                f"unknown column; allowed: id, release, weight, deadline, size_0..",
                lineno=1, field=name,
            )
    for required in ("id", "release"):
        if required not in columns:
            raise TraceSchemaError("required column missing", lineno=1, field=required)
    if sorted(size_indices) != list(range(len(size_indices))) or not size_indices:
        raise TraceSchemaError(
            f"need consecutive size_0..size_{{m-1}} columns, got {sorted(size_indices)}",
            lineno=1, field="sizes",
        )
    return columns, len(size_indices)


class _Block(NamedTuple):
    """Decoded trace rows as Python columns: one list per field, ``sizes``
    one list per machine.

    What a CSV block decodes to, and what both :func:`trace_instance` (jobs)
    and :func:`read_trace_chunks` (numpy columns) build from.
    """

    ids: list[int]
    releases: list[float]
    sizes: list[list[float]]
    weights: list[float]
    deadlines: "list[float] | None"

    @classmethod
    def of(cls, jobs: Sequence[Job]) -> "_Block":
        """The columns of admitted jobs (all with deadlines or all without)."""
        return cls(
            ids=[job.id for job in jobs],
            releases=[job.release for job in jobs],
            sizes=list(map(list, zip(*[job.sizes for job in jobs]))),
            weights=[job.weight for job in jobs],
            deadlines=None if jobs[0].deadline is None else [job.deadline for job in jobs],
        )

    def jobs(self) -> list[Job]:
        """The rows as :class:`Job` objects (trusted: the rows were admitted)."""
        columns = [self.ids, self.releases, zip(*self.sizes), self.weights]
        if self.deadlines is not None:
            columns.append(self.deadlines)
        return list(map(Job.trusted, *columns))

    def chunk(self, start: int) -> JobChunk:
        """The rows as a :class:`JobChunk` whose first row is job ``start`` of the trace."""
        import numpy as np

        return JobChunk(
            start=start,
            releases=np.array(self.releases, dtype=np.float64),
            sizes=np.ascontiguousarray(np.array(self.sizes, dtype=np.float64).T),
            weights=np.array(self.weights, dtype=np.float64),
            deadlines=(
                None if self.deadlines is None else np.array(self.deadlines, dtype=np.float64)
            ),
            ids=np.array(self.ids, dtype=np.int64),
        )


@dataclass(frozen=True)
class _CsvLayout:
    """A validated CSV header: the cell index of every job field.

    :meth:`job` decodes one row through the shared schema; :meth:`block`
    converts many rows into columns at once.
    """

    width: int
    id: int
    release: int
    weight: "int | None"
    deadline: "int | None"
    sizes: tuple[int, ...]

    @classmethod
    def from_header(cls, header: Sequence[str]) -> "_CsvLayout":
        columns, num_machines = _csv_columns(header)
        index_of = {name: k for k, name in enumerate(columns)}
        return cls(
            width=len(columns),
            id=index_of["id"],
            release=index_of["release"],
            weight=index_of.get("weight"),
            deadline=index_of.get("deadline"),
            sizes=tuple(index_of[f"size_{i}"] for i in range(num_machines)),
        )

    def job(self, row: Sequence[str], lineno: int) -> Job:
        """Decode one data row through :func:`parse_job_row` (the per-row path)."""
        if len(row) != self.width:
            raise TraceSchemaError(f"expected {self.width} cells, got {len(row)}", lineno=lineno)
        data: dict = {
            "id": row[self.id].strip(),
            "release": row[self.release].strip(),
            "sizes": [row[k].strip() for k in self.sizes],
        }
        if self.weight is not None and row[self.weight].strip():
            data["weight"] = row[self.weight].strip()
        if self.deadline is not None and row[self.deadline].strip():
            data["deadline"] = row[self.deadline].strip()
        return parse_job_row(data, lineno)

    def block(self, rows: Sequence[Sequence[str]]) -> "_Block | None":
        """Convert data rows column by column; ``None`` if a cell does not convert.

        Cells go through ``float()`` and ``int()``, as on the per-row path,
        which strips them first; both functions ignore the same surrounding
        whitespace.  Cells the per-row path reads differently (blank
        optional cells) fail to convert.  The block is not checked.
        """
        if set(map(len, rows)) != {self.width}:
            return None
        columns = list(zip(*rows))
        try:
            ids = list(map(int, columns[self.id]))
            releases = list(map(float, columns[self.release]))
            weights = (
                [1.0] * len(rows)
                if self.weight is None
                else list(map(float, columns[self.weight]))
            )
            deadlines = None
            if self.deadline is not None and any(columns[self.deadline]):
                deadlines = list(map(float, columns[self.deadline]))
            sizes = [list(map(float, columns[k])) for k in self.sizes]
        except ValueError:
            return None
        return _Block(ids, releases, sizes, weights, deadlines)


def _csv_records(stream: TextIO) -> "tuple[_CsvLayout, Iterator[list[str]]] | None":
    """The header's layout and a reader over the records after it; ``None`` if empty.

    Line numbers count records, the header as line 1; blank records
    (:func:`_is_blank`) are skipped but counted.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        return None
    return _CsvLayout.from_header(header), reader


def _is_blank(record: Sequence[str]) -> bool:
    """Whether a CSV record is a blank line: no cell, or one blank cell."""
    return not record or (len(record) == 1 and not record[0].strip())


def iter_csv_jobs(stream: TextIO) -> Iterator[tuple[int, Job]]:
    """Yield ``(lineno, Job)`` per CSV row (cluster-trace-style header)."""
    parsed = _csv_records(stream)
    if parsed is None:
        return
    layout, records = parsed
    for lineno, row in enumerate(records, start=2):
        if not _is_blank(row):
            yield lineno, layout.job(row, lineno)


def _check_format(fmt: str) -> str:
    if fmt not in TRACE_FORMATS:
        raise InvalidParameterError(
            f"unknown trace format {fmt!r}; choose from {TRACE_FORMATS}"
        )
    return fmt


def _open_source(source: "str | Path | TextIO", fmt: "str | None"):
    """Resolve ``(stream, fmt, should_close)`` from a path or open stream."""
    if hasattr(source, "read"):
        return source, _check_format(fmt or "ndjson"), False
    path = Path(source)
    fmt = sniff_format(path) if fmt is None else _check_format(fmt)
    try:
        stream = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InvalidParameterError(f"cannot open trace file {str(path)!r}: {exc}") from exc
    return stream, fmt, True


def read_trace_jobs(
    source: "str | Path | TextIO", fmt: "str | None" = None
) -> Iterator[tuple[int, Job]]:
    """Stream ``(lineno, Job)`` rows from a trace path or open stream.

    ``fmt`` is sniffed from the file extension when not given; open streams
    default to NDJSON.  This is the per-row surface ``repro serve`` uses.
    """
    stream, fmt, should_close = _open_source(source, fmt)
    try:
        rows = iter_csv_jobs(stream) if fmt == "csv" else iter_ndjson_jobs(stream)
        yield from rows
    finally:
        if should_close:
            stream.close()


def _check_chunk_size(chunk_size: int) -> None:
    if chunk_size <= 0:
        raise InvalidParameterError(f"chunk_size must be positive, got {chunk_size}")


class _TraceRules:
    """The trace-wide invariants no single row can check, carried across blocks.

    One instance per read holds a constant machine count, releases
    non-decreasing **across** block and chunk boundaries, all-or-none
    deadlines (a :class:`JobChunk` cannot represent a mixed column) and ids
    that are unique over the whole trace and fit the chunks' int64 id column
    (one set of seen ids).  Rows are checked one at a time by :meth:`admit`;
    :meth:`admit_block` checks a whole decoded block without attributing.
    """

    def __init__(self) -> None:
        self.num_machines: int | None = None
        self.has_deadlines: bool | None = None
        self.last_release = -math.inf
        self.seen_ids: set[int] = set()

    def admit(self, lineno: int, job: Job) -> None:
        """Check one row against the rules, raising an attributed error."""
        if job.id > _INT64_MAX:
            raise TraceSchemaError(
                f"id {job.id} does not fit in a signed 64-bit integer",
                lineno=lineno, field="id",
            )
        if self.num_machines is None:
            self.num_machines = len(job.sizes)
            self.has_deadlines = job.deadline is not None
        elif len(job.sizes) != self.num_machines:
            raise TraceSchemaError(
                f"size vector has {len(job.sizes)} entries, expected {self.num_machines} "
                "(machine count must be constant across the trace)",
                lineno=lineno, field="sizes",
            )
        if (job.deadline is not None) != self.has_deadlines:
            raise TraceSchemaError(
                "either every trace row carries a deadline or none does",
                lineno=lineno, field="deadline",
            )
        if job.release < self.last_release:
            raise TraceSchemaError(
                f"release {job.release} arrives after {self.last_release}; trace rows "
                "must be sorted by non-decreasing release",
                lineno=lineno, field="release",
            )
        if job.id in self.seen_ids:
            raise TraceSchemaError(
                f"duplicate job id {job.id}; ids must be unique across the trace",
                lineno=lineno, field="id",
            )
        self.seen_ids.add(job.id)
        self.last_release = job.release

    def admit_block(self, block: _Block) -> bool:
        """Take a whole block if every row passes; ``False`` leaves the state as is.

        The bulk counterpart of :func:`parse_job_row`'s bounds, the
        :class:`Job` invariants and :meth:`admit`, each a pass of builtins
        over a column.  A float column is first summed: a NaN anywhere makes
        the sum NaN, so once the sum is a number no NaN can hide in a
        ``min`` or ``max``.  A column whose finite values sum past the float
        range reads as not finite, which only sends the block down the
        per-row path.
        """
        ids, releases, sizes, weights, deadlines = block
        has_deadlines = deadlines is not None
        if self.num_machines is not None and (
            len(sizes) != self.num_machines or has_deadlines != self.has_deadlines
        ):
            return False
        id_set = set(ids)
        if not (
            0 <= min(ids) and max(ids) <= _INT64_MAX
            and len(id_set) == len(ids) and self.seen_ids.isdisjoint(id_set)
            and math.isfinite(sum(releases))
            and releases[0] >= 0.0 and releases[0] >= self.last_release
            and all(map(le, releases, islice(releases, 1, None)))
            and math.isfinite(sum(weights)) and min(weights) > 0.0
            and (
                deadlines is None
                or (math.isfinite(sum(deadlines)) and all(map(lt, releases, deadlines)))
            )
        ):
            return False
        forbidden = False  # whether some size is inf (a machine the job may not use)
        for column in sizes:
            total = sum(column)
            if total != total or not min(column) > 0.0:
                return False
            forbidden = forbidden or total == math.inf
        if forbidden and not max(map(min, zip(*sizes))) < math.inf:
            return False  # a job with no machine it may run on
        self.num_machines = len(sizes)
        self.has_deadlines = has_deadlines
        self.last_release = releases[-1]
        self.seen_ids |= id_set
        return True


def chunks_from_jobs(
    rows: Iterable[tuple[int, Job]], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[JobChunk]:
    """Assemble ``(lineno, Job)`` rows into validated :class:`JobChunk` blocks.

    Enforces the trace-wide invariants the per-row schema cannot see: a
    consistent machine count, non-decreasing releases **across** chunk
    boundaries, all-or-none deadlines and ids unique across the trace that
    fit in int64 — each violation reported with its line number.
    """
    _check_chunk_size(chunk_size)
    rules = _TraceRules()
    start = 0
    buffer: list[Job] = []

    def chunk() -> JobChunk:
        built = _Block.of(buffer).chunk(start)
        built.validate()
        return built

    for lineno, job in rows:
        rules.admit(lineno, job)
        buffer.append(job)
        if len(buffer) >= chunk_size:
            yield chunk()
            start += len(buffer)
            buffer = []
    if buffer:
        yield chunk()


#: Most CSV records converted at once.  A chunk is the concatenation of its
#: blocks, so the text cells held at a time stay bounded (about 3.5 MiB at
#: eight machines) whatever ``chunk_size`` is.
_BLOCK_ROWS = 4096


def _csv_blocks(stream: TextIO, chunk_size: int) -> Iterator[_Block]:
    """Decode a CSV trace a block of at most :data:`_BLOCK_ROWS` records at a time.

    Each block becomes Python columns in one conversion per field, checked
    in bulk by :meth:`_TraceRules.admit_block`.  A block that fails a
    conversion or a check is decoded again row by row
    (:meth:`_CsvLayout.job` + :meth:`_TraceRules.admit`), which raises the
    attributed :class:`TraceSchemaError` of its first bad row — the per-row
    path stays the only place that words an error.  Blocks end at every
    multiple of ``chunk_size`` data rows, so a chunk is whole blocks.
    """
    parsed = _csv_records(stream)
    if parsed is None:
        return
    layout, reader = parsed
    rules = _TraceRules()

    def decode(lineno: int, records: list[list[str]]) -> "_Block | None":
        """The block of ``records``, the first on line ``lineno``; ``None`` if all blank."""
        lines: Sequence[int] = range(lineno, lineno + len(records))
        if records and min(map(len, records)) < 2:  # maybe blank lines: drop them
            kept = [(n, row) for n, row in zip(lines, records) if not _is_blank(row)]
            lines = [n for n, _ in kept]
            records = [row for _, row in kept]
        if not records:
            return None
        block = layout.block(records)
        if block is not None and rules.admit_block(block):
            return block
        jobs = []
        for n, row in zip(lines, records):
            job = layout.job(row, n)
            rules.admit(n, job)
            jobs.append(job)
        return _Block.of(jobs)

    held = 0
    lineno = 2
    while True:
        wanted = min(_BLOCK_ROWS, chunk_size - held)
        records: list[list[str]] = []
        try:
            # ``list.extend`` appends as it iterates, so the records read
            # before a reader error stay in ``records``.
            records.extend(islice(reader, wanted))
        except Exception:
            # The per-row path meets the records read so far before the
            # reader's own error (undecodable bytes, a csv.Error), so a bad
            # row among them is reported first; otherwise the reader's error
            # stands.
            decode(lineno, records)
            raise
        block = decode(lineno, records)
        if block is not None:
            yield block
            held = (held + len(block.ids)) % chunk_size
        lineno += len(records)
        if len(records) < wanted:
            return


def _concatenate(blocks: Sequence[JobChunk]) -> JobChunk:
    """One chunk from consecutive blocks that each passed the trace rules."""
    if len(blocks) == 1:
        return blocks[0]
    import numpy as np

    def column(name: str) -> "np.ndarray | None":
        arrays = [getattr(block, name) for block in blocks]
        return None if arrays[0] is None else np.concatenate(arrays)

    return JobChunk(
        start=blocks[0].start,
        releases=column("releases"),
        sizes=column("sizes"),
        weights=column("weights"),
        deadlines=column("deadlines"),
        ids=column("ids"),
    )


def _csv_chunks(stream: TextIO, chunk_size: int) -> Iterator[JobChunk]:
    """The CSV blocks of :func:`_csv_blocks` as numpy chunks of ``chunk_size`` rows."""
    start = 0
    pending: list[JobChunk] = []
    for block in _csv_blocks(stream, chunk_size):
        pending.append(block.chunk(start))
        start += len(block.ids)
        if start % chunk_size == 0:
            yield _concatenate(pending)
            pending = []
    if pending:
        yield _concatenate(pending)


def read_trace_chunks(
    source: "str | Path | TextIO",
    fmt: "str | None" = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[JobChunk]:
    """Stream a trace as validated :class:`JobChunk` blocks (the bulk surface).

    The chunks feed :meth:`SchedulerSession.submit_many` and
    :func:`chunks_to_instance` without ever materialising the whole trace.
    CSV files are decoded a block at a time; NDJSON goes row by row through
    :func:`parse_job_row`.  Either way the chunks and any
    :class:`TraceSchemaError` equal ``chunks_from_jobs(read_trace_jobs(...))``.
    """
    _check_chunk_size(chunk_size)
    stream, fmt, should_close = _open_source(source, fmt)
    try:
        if fmt == "csv":
            yield from _csv_chunks(stream, chunk_size)
        else:
            yield from chunks_from_jobs(iter_ndjson_jobs(stream), chunk_size)
    finally:
        if should_close:
            stream.close()


# --------------------------------------------------------------------------------------
# Materialisation and statistics
# --------------------------------------------------------------------------------------


def _fleet(
    width: "int | None", machines: "int | Sequence[Machine] | None", alpha: float
) -> tuple[Machine, ...]:
    """The fleet of a trace ``width`` machines wide (``None``: no rows)."""
    if machines is None:
        if width is None:
            raise InvalidParameterError(
                "empty trace: pass machines= to build an instance with no jobs"
            )
        return Machine.fleet(width, alpha=alpha)
    if isinstance(machines, int):
        return Machine.fleet(machines, alpha=alpha)
    return tuple(machines)


def chunks_to_instance(
    chunks: Iterable[JobChunk],
    machines: "int | Sequence[Machine] | None" = None,
    alpha: float = 3.0,
    name: str = "trace",
) -> Instance:
    """Materialise a chunk stream into a (fully validated) :class:`Instance`.

    ``machines`` may be an explicit fleet, a count, or ``None`` to build a
    fleet of identical unit machines matching the trace's machine count.
    """
    jobs: list[Job] = []
    width: int | None = None
    for chunk in chunks:
        if width is None:
            width = chunk.sizes.shape[1]
        jobs.extend(chunk.jobs())
    return Instance.build(_fleet(width, machines, alpha), jobs, name=name)


def trace_instance(
    source: "str | Path | TextIO",
    fmt: "str | None" = None,
    machines: "int | Sequence[Machine] | None" = None,
    alpha: float = 3.0,
    name: "str | None" = None,
) -> Instance:
    """Read a whole trace into an :class:`Instance`.

    Equal to ``chunks_to_instance(read_trace_chunks(source, fmt), ...)``,
    errors included, without the chunks: CSV blocks decode straight to
    jobs and NDJSON rows pass :meth:`_TraceRules.admit` one at a time, so
    no numpy loads.  The reader's rules already hold a constant width,
    unique ids and non-decreasing releases, so the checked
    :class:`Instance` constructor runs on the fleet and the first job only.
    """
    if name is None:
        name = Path(source).name if not hasattr(source, "read") else "trace"
    stream, fmt, should_close = _open_source(source, fmt)
    try:
        jobs: list[Job] = []
        if fmt == "csv":
            for block in _csv_blocks(stream, DEFAULT_CHUNK_SIZE):
                jobs += block.jobs()
        else:
            rules = _TraceRules()
            for lineno, job in iter_ndjson_jobs(stream):
                rules.admit(lineno, job)
                jobs.append(job)
    finally:
        if should_close:
            stream.close()
    fleet = _fleet(len(jobs[0].sizes) if jobs else None, machines, alpha)
    # Instance.build's order, by two stable sorts: release, ties by id.
    jobs.sort(key=attrgetter("id"))
    jobs.sort(key=attrgetter("release"))
    Instance(fleet, tuple(jobs[:1]), name)  # raises Instance.build's fleet and width errors
    return Instance.trusted(fleet, tuple(jobs), name)


@dataclass(frozen=True)
class TraceStats:
    """Streaming aggregate statistics of a trace (``repro trace inspect``)."""

    num_jobs: int
    num_machines: int
    first_release: float
    last_release: float
    total_min_work: float
    min_size: float
    max_size: float
    has_weights: bool
    has_deadlines: bool

    def as_row(self) -> dict:
        """Flat JSON-able view (canonical-JSON friendly)."""
        return {
            "num_jobs": self.num_jobs,
            "num_machines": self.num_machines,
            "first_release": self.first_release,
            "last_release": self.last_release,
            "total_min_work": self.total_min_work,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "has_weights": self.has_weights,
            "has_deadlines": self.has_deadlines,
        }


def trace_stats(chunks: Iterable[JobChunk]) -> TraceStats:
    """Aggregate a chunk stream into :class:`TraceStats` in one pass."""
    import numpy as np

    num_jobs = 0
    num_machines = 0
    first_release = math.inf
    last_release = -math.inf
    total_min_work = 0.0
    min_size = math.inf
    max_size = -math.inf
    has_weights = False
    has_deadlines = False
    for chunk in chunks:
        if not len(chunk):
            continue
        num_jobs += len(chunk)
        num_machines = chunk.sizes.shape[1]
        first_release = min(first_release, float(chunk.releases[0]))
        last_release = max(last_release, float(chunk.releases[-1]))
        finite = np.where(np.isfinite(chunk.sizes), chunk.sizes, np.inf)
        total_min_work += float(finite.min(axis=1).sum())
        finite_vals = chunk.sizes[np.isfinite(chunk.sizes)]
        if finite_vals.size:
            min_size = min(min_size, float(finite_vals.min()))
            max_size = max(max_size, float(finite_vals.max()))
        if chunk.weights is not None and bool((chunk.weights != 1.0).any()):
            has_weights = True
        if chunk.deadlines is not None:
            has_deadlines = True
    if num_jobs == 0:
        return TraceStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, False, False)
    return TraceStats(
        num_jobs=num_jobs,
        num_machines=num_machines,
        first_release=first_release,
        last_release=last_release,
        total_min_work=total_min_work,
        min_size=min_size,
        max_size=max_size,
        has_weights=has_weights,
        has_deadlines=has_deadlines,
    )


# --------------------------------------------------------------------------------------
# Writers
# --------------------------------------------------------------------------------------


def _iter_jobs(jobs: "Iterable[Job] | Instance | Iterable[JobChunk]") -> Iterator[Job]:
    for item in jobs:
        if isinstance(item, Job):
            yield item
        elif isinstance(item, JobChunk):
            yield from item.jobs()
        else:
            raise InvalidParameterError(
                f"expected Job or JobChunk rows, got {type(item).__name__}"
            )


def write_ndjson_trace(
    jobs: "Iterable[Job] | Instance | Iterable[JobChunk]", stream: TextIO
) -> int:
    """Write jobs as canonical NDJSON lines; returns the number of rows.

    Canonical JSON (sorted keys, shortest round-tripping float repr) makes
    the export byte-stable, so exporting the same jobs twice produces
    identical files and re-ingesting reproduces the jobs exactly.
    """
    count = 0
    for job in _iter_jobs(jobs):
        stream.write(canonical_json(job.to_dict()) + "\n")
        count += 1
    return count


def _csv_cell(value: float) -> str:
    return repr(float(value))


def write_csv_trace(
    jobs: "Iterable[Job] | Instance | Iterable[JobChunk]",
    stream: TextIO,
    num_machines: "int | None" = None,
) -> int:
    """Write jobs as cluster-trace-style CSV rows; returns the number of rows.

    Floats are written with ``repr`` (shortest exact round trip); ``inf``
    encodes a forbidden machine and an empty ``deadline`` cell means none.
    ``num_machines`` sizes the header for empty traces.
    """
    writer = csv.writer(stream, lineterminator="\n")
    count = 0
    for job in _iter_jobs(jobs):
        if count == 0:
            num_machines = len(job.sizes)
            writer.writerow(
                ["id", "release", "weight", "deadline"]
                + [f"size_{i}" for i in range(num_machines)]
            )
        writer.writerow(
            [
                job.id,
                _csv_cell(job.release),
                _csv_cell(job.weight),
                "" if job.deadline is None else _csv_cell(job.deadline),
            ]
            + [_csv_cell(p) for p in job.sizes]
        )
        count += 1
    if count == 0:
        writer.writerow(
            ["id", "release", "weight", "deadline"]
            + [f"size_{i}" for i in range(num_machines or 1)]
        )
    return count


def write_trace(
    jobs: "Iterable[Job] | Instance | Iterable[JobChunk]",
    target: "str | Path | TextIO",
    fmt: "str | None" = None,
) -> int:
    """Write jobs to a path or stream in the given (or sniffed) format.

    Path targets are written atomically (a same-directory temp file is
    renamed over the destination on success), so a failure mid-write never
    leaves a truncated trace behind — and ``jobs`` may lazily *read from the
    destination itself*, which is what makes in-place
    ``repro trace convert t.ndjson t.ndjson --load-scale 2`` safe.
    """
    if hasattr(target, "write"):
        fmt = _check_format(fmt or "ndjson")
        writer = write_csv_trace if fmt == "csv" else write_ndjson_trace
        return writer(jobs, target)
    path = Path(target)
    fmt = sniff_format(path) if fmt is None else _check_format(fmt)
    writer = write_csv_trace if fmt == "csv" else write_ndjson_trace
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as stream:
            count = writer(jobs, stream)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return count


# --------------------------------------------------------------------------------------
# Deterministic transforms (chunk stream -> chunk stream)
# --------------------------------------------------------------------------------------


def scale_load(chunks: Iterable[JobChunk], factor: float) -> Iterator[JobChunk]:
    """Multiply every processing size by ``factor`` (load scaling).

    With arrivals unchanged, system load scales linearly in ``factor`` —
    ``factor > 1`` pushes a trace into overload, ``factor < 1`` relaxes it.
    """
    if not (factor > 0) or not math.isfinite(factor):
        raise InvalidParameterError(f"load factor must be positive and finite, got {factor}")
    for chunk in chunks:
        out = replace(chunk, sizes=chunk.sizes * factor)
        out.validate()
        yield out


def time_warp(
    chunks: Iterable[JobChunk], warp: "float | Callable[[np.ndarray], np.ndarray]"
) -> Iterator[JobChunk]:
    """Re-clock a trace through a monotone map of the time axis.

    ``warp`` is either a positive constant factor (releases and deadlines
    multiply; ``< 1`` compresses arrivals, i.e. raises the arrival rate) or a
    vectorised non-decreasing function applied to release *and* deadline
    columns — the scenario catalog uses piecewise-linear warps to carve
    diurnal cycles and load ramps out of stationary traces.
    """
    import numpy as np

    if callable(warp):
        fn = warp
    else:
        factor = float(warp)
        if not (factor > 0) or not math.isfinite(factor):
            raise InvalidParameterError(
                f"time-warp factor must be positive and finite, got {factor}"
            )

        def fn(values: np.ndarray) -> np.ndarray:
            return values * factor

    for chunk in chunks:
        releases = np.asarray(fn(chunk.releases), dtype=np.float64)
        deadlines = (
            None
            if chunk.deadlines is None
            else np.asarray(fn(chunk.deadlines), dtype=np.float64)
        )
        out = replace(chunk, releases=releases, deadlines=deadlines)
        out.validate()
        yield out


def truncate(
    chunks: Iterable[JobChunk],
    max_jobs: "int | None" = None,
    max_time: "float | None" = None,
) -> Iterator[JobChunk]:
    """Stop a trace after ``max_jobs`` rows and/or releases past ``max_time``."""
    if max_jobs is not None and max_jobs < 0:
        raise InvalidParameterError(f"max_jobs must be non-negative, got {max_jobs}")
    import numpy as np

    taken = 0
    for chunk in chunks:
        stop = len(chunk)
        if max_time is not None:
            stop = min(stop, int(np.searchsorted(chunk.releases, max_time, side="right")))
        if max_jobs is not None:
            stop = min(stop, max_jobs - taken)
        if stop <= 0:
            return
        if stop == len(chunk):
            taken += stop
            yield chunk
            continue
        yield _slice_chunk(chunk, np.arange(stop), start=chunk.start)
        return


def _slice_chunk(chunk: JobChunk, rows: np.ndarray, start: int) -> JobChunk:
    out = JobChunk(
        start=start,
        releases=chunk.releases[rows],
        sizes=chunk.sizes[rows],
        weights=None if chunk.weights is None else chunk.weights[rows],
        deadlines=None if chunk.deadlines is None else chunk.deadlines[rows],
        ids=None if chunk.ids is None else chunk.ids[rows],
    )
    out.validate()
    return out


def shard(chunks: Iterable[JobChunk], num_shards: int, index: int) -> Iterator[JobChunk]:
    """Keep shard ``index`` of a ``num_shards``-way round-robin partition.

    The kept jobs are every ``num_shards``-th job of the stream starting at
    position ``index``, so the ``num_shards`` shards are disjoint, together
    cover every job exactly once and each preserves the original
    interleaving (``repro trace convert --shard I/K``).  Kept jobs are
    renumbered from 0 (explicit ids dropped).
    """
    if num_shards <= 0:
        raise InvalidParameterError(f"num_shards must be positive, got {num_shards}")
    if not (0 <= index < num_shards):
        raise InvalidParameterError(
            f"shard index must be in [0, {num_shards}), got {index}"
        )
    import numpy as np

    position = 0
    taken = 0
    for chunk in chunks:
        rows = np.arange((index - position) % num_shards, len(chunk), num_shards)
        position += len(chunk)
        if not rows.size:
            continue
        yield replace(_slice_chunk(chunk, rows, start=taken), ids=None)
        taken += rows.size


@dataclass
class _MergeCursor:
    """One input stream of :func:`merge`: an iterator plus its current chunk."""

    chunks: Iterator[JobChunk]
    chunk: "JobChunk | None" = None
    offset: int = 0

    def refill(self) -> bool:
        while self.chunk is None or self.offset >= len(self.chunk):
            nxt = next(self.chunks, None)
            if nxt is None:
                return False
            self.chunk, self.offset = nxt, 0
        return True

    def head_release(self) -> float:
        return float(self.chunk.releases[self.offset])


def merge(
    *streams: Iterable[JobChunk],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[JobChunk]:
    """K-way merge several traces by release date, renumbering ids from 0.

    The workhorse behind multi-tenant scenarios: each input keeps its
    internal order, outputs interleave by release, and rows are re-chunked
    to ``chunk_size``.  All inputs must agree on machine count and deadline
    presence; weights are harmonised (streams without weights contribute
    1.0).  At each step the stream with the earliest head release (the
    earlier stream when heads tie) emits every row up to and including the
    next head release, so a run of tied rows inside one stream goes out as
    one block.
    """
    if not streams:
        raise InvalidParameterError("merge needs at least one input trace")
    import numpy as np

    cursors = [_MergeCursor(iter(stream)) for stream in streams]
    live = [cursor for cursor in cursors if cursor.refill()]
    width: int | None = None
    has_deadlines: bool | None = None
    for cursor in live:
        w = cursor.chunk.sizes.shape[1]
        d = cursor.chunk.deadlines is not None
        if width is None:
            width, has_deadlines = w, d
        elif w != width:
            raise InvalidParameterError(
                f"cannot merge traces with different machine counts ({w} != {width})"
            )
        elif d != has_deadlines:
            raise InvalidParameterError(
                "cannot merge traces where only some jobs carry deadlines"
            )

    pending: list[JobChunk] = []
    pending_rows = 0
    emitted = 0

    def emit() -> Iterator[JobChunk]:
        nonlocal pending, pending_rows, emitted
        if not pending:
            return
        chunk = JobChunk(
            start=emitted,
            releases=np.concatenate([c.releases for c in pending]),
            sizes=np.concatenate([c.sizes for c in pending]),
            weights=np.concatenate([c.weights for c in pending]),
            deadlines=(
                np.concatenate([c.deadlines for c in pending]) if has_deadlines else None
            ),
        )
        chunk.validate()
        emitted += len(chunk)
        pending, pending_rows = [], 0
        yield chunk

    while live:
        live.sort(key=_MergeCursor.head_release)
        cursor = live[0]
        bound = live[1].head_release() if len(live) > 1 else math.inf
        chunk, offset = cursor.chunk, cursor.offset
        # Take every row up to and including the bound: the winning
        # stream's whole tie run at the bound goes out as one block.
        stop = int(np.searchsorted(chunk.releases, bound, side="right"))
        stop = max(stop, offset + 1)  # always consume at least the head row
        rows = np.arange(offset, stop)
        piece = _slice_chunk(chunk, rows, start=0)
        weights = (
            piece.weights
            if piece.weights is not None
            else np.ones(len(piece), dtype=np.float64)
        )
        pending.append(replace(piece, weights=weights, ids=None))
        pending_rows += len(piece)
        cursor.offset = stop
        if not cursor.refill():
            live.remove(cursor)
        if pending_rows >= chunk_size:
            yield from emit()
    yield from emit()
