"""The job-row schema: one mapping-shaped row -> one :class:`Job`.

:func:`parse_job_row` is the single decoder behind NDJSON and CSV traces
(:mod:`repro.workloads.traces`), stdio ``repro serve`` and the service's
``submit`` and ``restore`` rows.  It needs no numpy, so the service loads it
without the trace readers and their numpy columns.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.exceptions import TraceSchemaError
from repro.simulation.job import Job

__all__ = ["parse_job_row"]


def _field_float(value, lineno: "int | None", field: str, allow_inf: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TraceSchemaError(
            f"expected a number, got {type(value).__name__}", lineno=lineno, field=field
        )
    try:
        result = float(value)
    except ValueError as exc:
        raise TraceSchemaError(
            f"expected a number, got {value!r}", lineno=lineno, field=field
        ) from exc
    except OverflowError as exc:
        # An int past float range is refused as "1e999" is, without echoing
        # its digits.
        raise TraceSchemaError(
            "expected a finite number, got an integer too large for a float",
            lineno=lineno, field=field,
        ) from exc
    # NaN (and, outside size vectors, infinity) would fail open through the
    # Job invariants — `release < 0` is False for NaN — and corrupt the
    # decision stream downstream, so the schema rejects it here with the
    # field named.
    if math.isnan(result) or (math.isinf(result) and not allow_inf):
        raise TraceSchemaError(
            f"expected a finite number, got {value!r}", lineno=lineno, field=field
        )
    return result


def parse_job_row(data: Mapping, lineno: "int | None" = 0) -> Job:
    """Decode one mapping-shaped trace row into a :class:`Job`.

    The shared schema behind both trace formats and the ``repro serve``
    NDJSON reader.  Every violation — missing fields, wrong types,
    non-finite values, broken job invariants — raises
    :class:`TraceSchemaError` naming the line and, where attributable, the
    field.  Unknown fields are ignored (the ``repro serve`` wire format has
    always tolerated client-side metadata on job lines; CSV headers, where
    an unknown column is almost certainly a typo, stay strict).

    A valid row exactly as ``json.loads`` gives it — a ``dict`` with an
    ``int`` id, ``float`` numbers and a ``list`` of sizes — is built with
    :meth:`Job.trusted` once its values pass the schema's bounds.  Any other
    row takes the checked path below, which is the schema's spec and the
    only code that words an error; both paths give the same job.
    """
    if type(data) is dict:
        job_id = data.get("id")
        release = data.get("release")
        sizes = data.get("sizes")
        weight = data.get("weight", 1.0)
        deadline = data.get("deadline")
        if (
            type(job_id) is int and job_id >= 0
            and type(release) is float and 0.0 <= release < math.inf
            and type(sizes) is list
            and type(weight) is float and 0.0 < weight < math.inf
            and (deadline is None or (type(deadline) is float and release < deadline < math.inf))
        ):
            finite = False
            for p in sizes:
                if type(p) is not float or not p > 0.0:  # NaN fails ``p > 0.0``
                    break
                if p < math.inf:
                    finite = True
            else:
                if finite:  # a non-empty vector with a machine the job may run on
                    return Job.trusted(job_id, release, tuple(sizes), weight, deadline)
    if not isinstance(data, Mapping):
        raise TraceSchemaError(
            f"expected a JSON object, got {type(data).__name__}", lineno=lineno
        )
    for required in ("id", "release", "sizes"):
        if required not in data:
            raise TraceSchemaError("required field missing", lineno=lineno, field=required)
    raw_id = data["id"]
    if isinstance(raw_id, bool) or not isinstance(raw_id, int):
        try:
            raw_id = int(str(raw_id))
        except (TypeError, ValueError) as exc:
            raise TraceSchemaError(
                f"expected an integer, got {data['id']!r}", lineno=lineno, field="id"
            ) from exc
    release = _field_float(data["release"], lineno, "release")
    sizes = data["sizes"]
    if not isinstance(sizes, (list, tuple)) or not sizes:
        raise TraceSchemaError(
            "expected a non-empty array of per-machine sizes", lineno=lineno, field="sizes"
        )
    size_vec = tuple(_field_float(p, lineno, "sizes", allow_inf=True) for p in sizes)
    weight = _field_float(data.get("weight", 1.0), lineno, "weight")
    deadline = data.get("deadline")
    if deadline is not None:
        deadline = _field_float(deadline, lineno, "deadline")
    try:
        return Job(id=raw_id, release=release, sizes=size_vec, weight=weight,
                   deadline=deadline)
    except Exception as exc:  # InvalidInstanceError: invariant violations
        raise TraceSchemaError(str(exc), lineno=lineno) from exc
