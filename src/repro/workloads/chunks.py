"""The bulk job format: :class:`JobChunk`, a block of jobs as numpy columns.

Generators, scenarios and the trace reader's :func:`read_trace_chunks`
produce chunks; sessions ingest them and :func:`chunks_to_instance` turns
them into jobs.  The module itself loads no numpy: numpy loads on the first
check of a chunk, the way it loads wherever an array is first built, so the
trace modules that import this class run without it until they build a
chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import InvalidInstanceError
from repro.simulation.job import Job

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DEFAULT_CHUNK_SIZE", "JobChunk"]

#: Default number of jobs per chunk of :meth:`InstanceGenerator.iter_job_chunks`.
DEFAULT_CHUNK_SIZE = 16384


@dataclass(frozen=True)
class JobChunk:
    """A contiguous block of generated jobs as numpy columns.

    Job ids are ``start .. start + len(chunk) - 1`` unless an explicit
    ``ids`` column is given (trace-ingested chunks keep the ids of the
    source trace); ``sizes`` has one row per job and one column per machine
    (``inf`` marks forbidden pairs); ``weights``/``deadlines`` are ``None``
    for generators without those attributes.
    """

    start: int
    releases: np.ndarray
    sizes: np.ndarray
    weights: np.ndarray | None = None
    deadlines: np.ndarray | None = None
    ids: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.releases)

    def validate(self) -> None:
        """Bulk invariant check — the chunked counterpart of ``Job.__post_init__``."""
        import numpy as np

        if len(self.sizes) != len(self.releases):
            raise InvalidInstanceError("chunk sizes/releases length mismatch")
        if len(self) == 0:
            return
        releases = self.releases
        if not np.isfinite(releases).all() or float(releases[0]) < 0:
            raise InvalidInstanceError("chunk releases must be finite and non-negative")
        if (np.diff(releases) < 0).any():
            raise InvalidInstanceError("chunk releases must be non-decreasing")
        sizes = self.sizes
        if not (sizes > 0).all():
            raise InvalidInstanceError("chunk sizes must be positive")
        if not np.isfinite(sizes).any(axis=1).all():
            raise InvalidInstanceError("chunk contains a job with no eligible machine")
        if self.weights is not None and not (
            np.isfinite(self.weights).all() and (self.weights > 0).all()
        ):
            raise InvalidInstanceError("chunk weights must be positive and finite")
        if self.deadlines is not None and not (self.deadlines > releases).all():
            raise InvalidInstanceError("chunk deadlines must exceed releases")
        if self.ids is not None:
            if len(self.ids) != len(self.releases):
                raise InvalidInstanceError("chunk ids/releases length mismatch")
            if (self.ids < 0).any():
                raise InvalidInstanceError("chunk ids must be non-negative")
            if len(np.unique(self.ids)) != len(self.ids):
                raise InvalidInstanceError("chunk ids must be unique")

    def job_ids(self) -> np.ndarray:
        """The id column (explicit ``ids`` or the contiguous default)."""
        if self.ids is not None:
            return self.ids
        import numpy as np

        return np.arange(self.start, self.start + len(self), dtype=np.int64)

    def jobs(self) -> list[Job]:
        """Materialise the chunk as :class:`Job` rows (trusted construction)."""
        releases = self.releases.tolist()
        rows = self.sizes.tolist()
        weights = self.weights.tolist() if self.weights is not None else None
        deadlines = self.deadlines.tolist() if self.deadlines is not None else None
        ids = None if self.ids is None else self.ids.tolist()
        start = self.start
        trusted = Job.trusted
        return [
            trusted(
                start + k if ids is None else ids[k],
                releases[k],
                tuple(rows[k]),
                1.0 if weights is None else weights[k],
                None if deadlines is None else deadlines[k],
            )
            for k in range(len(rows))
        ]
