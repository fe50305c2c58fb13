"""Instance generators assembling arrivals, sizes and machine models.

Three generators cover the three problems of the paper:

* :class:`InstanceGenerator` — unweighted flow-time instances (Section 2);
* :class:`WeightedInstanceGenerator` — weighted instances for the flow-time
  plus energy problem (Section 3);
* :class:`DeadlineInstanceGenerator` — instances with deadlines for the
  energy-minimisation problem (Section 4).

One sampler draws every instance, under two seedings.  It produces the
release dates, the base sizes (rescaled to the target load), the ``(n, m)``
size matrix, the weights and the deadlines as numpy columns, validates each
:class:`JobChunk` at once and turns its rows into jobs through
:meth:`Job.trusted`.  Each component draws from a named stream, and the two
seedings differ only in where the streams come from:

* :meth:`InstanceGenerator.generate` shares ``make_rng(seed)`` between
  arrivals, sizes and the matrix, draws weights from ``make_rng(seed + 1)``
  and deadlines from ``make_rng(seed + 2)``, and samples the instance as one
  chunk;
* :meth:`InstanceGenerator.iter_job_chunks` derives an independent stream
  per component from the seed (:func:`~repro.utils.rng.seeds_for`) and
  consumes each one left to right across chunks, so its output does not
  depend on ``chunk_size``.  The scenario catalog and the streaming surface
  build on it.

The two seedings draw different samples for the same seed; each is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.utils.rng import make_rng, seeds_for
from repro.workloads import machine_models, processing_times
from repro.workloads.chunks import DEFAULT_CHUNK_SIZE, JobChunk

_ARRIVALS = ("poisson", "bursty", "batched", "deterministic")
#: Each size distribution and the ``size_params`` keys its sampler takes.
_SIZES = {
    "uniform": ("low", "high"),
    "exponential": ("mean", "minimum"),
    "pareto": ("shape", "low", "high"),
    "bimodal": ("short", "long", "long_fraction"),
}
_MACHINE_MODELS = ("identical", "related", "unrelated", "restricted")

#: The sampler's random streams, one per component.
_STREAMS = ("arrivals", "sizes", "matrix", "matrix_fixup", "weights", "deadlines")


def _is_finite_number(value: object) -> bool:
    """Whether ``value`` is a real number (not a bool) that is finite as a float."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass
class InstanceGenerator:
    """Random unrelated-machine flow-time instances (Section 2 workloads).

    Parameters
    ----------
    num_machines:
        Size of the machine fleet.
    arrival_process / arrival_rate:
        Arrival model; the rate is jobs per time unit (``poisson``/``bursty``)
        or the batch gap (``batched``: ``1/arrival_rate`` per batch of
        ``batch_size``).  It must be finite and positive, and ``batch_size``
        at least 1.
    size_distribution:
        ``uniform``, ``exponential``, ``pareto`` (heavy tail) or ``bimodal``.
    size_params:
        Keyword arguments of the distribution's sampler in
        :mod:`repro.workloads.processing_times`, each a finite number:
        ``low``/``high`` (uniform), ``mean``/``minimum`` (exponential),
        ``shape``/``low``/``high`` (pareto) or
        ``short``/``long``/``long_fraction`` (bimodal).  Any other key is
        refused at construction.
    machine_model:
        ``identical``, ``related``, ``unrelated`` or ``restricted``.
    load:
        Target average system load (total work rate divided by number of
        machines); the base sizes are rescaled to hit it, which keeps
        different configurations comparable.  Finite and positive, or
        ``None`` to keep the sampled sizes.
    """

    num_machines: int = 4
    arrival_process: str = "poisson"
    arrival_rate: float = 1.0
    batch_size: int = 10
    size_distribution: str = "pareto"
    size_params: dict | None = None
    machine_model: str = "unrelated"
    machine_correlation: float = 0.5
    load: float | None = 0.8
    alpha: float = 3.0
    seed: int | None = None
    name: str | None = None

    #: Appended to the name of every generated instance.
    _name_suffix = ""

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise InvalidParameterError("num_machines must be positive")
        if self.arrival_process not in _ARRIVALS:
            raise InvalidParameterError(f"unknown arrival process {self.arrival_process!r}")
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate > 0):
            raise InvalidParameterError(
                f"arrival_rate must be finite and positive, got {self.arrival_rate}"
            )
        if self.batch_size < 1:
            raise InvalidParameterError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.load is not None and not (math.isfinite(self.load) and self.load > 0):
            raise InvalidParameterError(f"load must be finite and positive, got {self.load}")
        if self.size_distribution not in _SIZES:
            raise InvalidParameterError(f"unknown size distribution {self.size_distribution!r}")
        accepted = _SIZES[self.size_distribution]
        for key, value in (self.size_params or {}).items():
            if key not in accepted:
                raise InvalidParameterError(
                    f"size_params key {key!r} is not a parameter of the "
                    f"{self.size_distribution} distribution (takes {', '.join(accepted)})"
                )
            if not _is_finite_number(value):
                raise InvalidParameterError(
                    f"size_params[{key!r}] must be a finite number, got {value!r}"
                )
        if self.machine_model not in _MACHINE_MODELS:
            raise InvalidParameterError(f"unknown machine model {self.machine_model!r}")

    # -- public API ----------------------------------------------------------------

    def machines(self) -> tuple[Machine, ...]:
        """The machine fleet used by generated instances."""
        return Machine.fleet(self.num_machines, alpha=self.alpha)

    def generate(self, num_jobs: int) -> Instance:
        """Generate an instance with ``num_jobs`` jobs, sampled as one chunk.

        Arrivals, sizes and the matrix share ``make_rng(seed)``; weights draw
        from ``make_rng(seed + 1)`` and deadlines from ``make_rng(seed + 2)``.
        """
        seed = self.seed
        shared = make_rng(seed)
        streams = {
            "arrivals": shared,
            "sizes": shared,
            "matrix": shared,
            "matrix_fixup": shared,
            "weights": make_rng(None if seed is None else seed + 1),
            "deadlines": make_rng(None if seed is None else seed + 2),
        }
        jobs: list[Job] = []
        for chunk in self._sample(num_jobs, streams, max(1, num_jobs)):
            jobs.extend(chunk.jobs())
        label = self.name or (
            f"{self.size_distribution}-{self.arrival_process}-{self.machine_model}"
            f"(m={self.num_machines},n={num_jobs})"
        )
        return Instance(self.machines(), tuple(jobs), name=label + self._name_suffix)

    def iter_job_chunks(
        self, num_jobs: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[JobChunk]:
        """Generate ``num_jobs`` jobs as validated numpy chunks.

        Each component draws from its own stream, derived from the seed, so
        the jobs do not depend on ``chunk_size``.  Arrivals and base sizes are
        sampled up front as flat arrays (O(n) floats); the ``(chunk, m)``
        size matrix, weights and deadlines are produced chunk by chunk, so
        peak memory stays bounded by ``chunk_size * num_machines`` regardless
        of instance size.
        """
        if chunk_size <= 0:
            raise InvalidParameterError(f"chunk_size must be positive, got {chunk_size}")
        yield from self._sample(num_jobs, self._chunk_streams(), chunk_size)

    # -- the sampler ---------------------------------------------------------------

    def _chunk_streams(self) -> dict[str, np.random.Generator]:
        """One independent generator per sampled component.

        With a fixed seed the streams are a pure function of the seed; each
        stream is consumed strictly left-to-right across chunks, which is
        what makes the chunked output independent of ``chunk_size``.
        """
        if self.seed is None:
            return dict(zip(_STREAMS, make_rng(None).spawn(len(_STREAMS))))
        derived = seeds_for(self.seed, list(_STREAMS))
        return {label: make_rng(derived[label]) for label in _STREAMS}

    def _sample(
        self, num_jobs: int, rngs: dict[str, np.random.Generator], chunk_size: int
    ) -> Iterator[JobChunk]:
        """``num_jobs`` jobs in validated chunks of ``chunk_size``, each
        component drawn from its entry of ``rngs`` (see :data:`_STREAMS`)."""
        if num_jobs < 0:
            raise InvalidParameterError(f"num_jobs must be non-negative, got {num_jobs}")
        arrivals = self._arrivals_array(num_jobs, rngs["arrivals"])
        base = self._base_sizes_array(num_jobs, rngs["sizes"])
        if self.load is not None and num_jobs > 0:
            # arrival_rate jobs/time * mean_size work/job spread over m machines.
            current_load = self.arrival_rate * float(np.mean(base)) / self.num_machines
            if current_load > 0:
                base = base * (self.load / current_load)
        related_speeds = None
        if self.machine_model == "related":
            related_speeds = rngs["matrix"].uniform(1.0, 4.0, size=self.num_machines)
            related_speeds[0] = 1.0  # keep one reference machine at unit speed
        for start in range(0, num_jobs, chunk_size):
            stop = min(start + chunk_size, num_jobs)
            sizes = self._matrix_chunk(base[start:stop], rngs, related_speeds)
            chunk = JobChunk(
                start=start,
                releases=arrivals[start:stop],
                sizes=sizes,
                weights=self._weights_chunk(stop - start, rngs["weights"]),
                deadlines=self._deadlines_chunk(
                    arrivals[start:stop], sizes, rngs["deadlines"]
                ),
            )
            chunk.validate()
            yield chunk

    def _arrivals_array(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """All release dates as one sorted float64 array."""
        gap = 1.0 / self.arrival_rate
        if self.arrival_process == "poisson":
            return np.cumsum(rng.exponential(gap, size=count))
        if self.arrival_process == "bursty":
            # Bursts of 20 jobs at 10x the rate, each followed by one quiet
            # gap at a quarter of it.
            burst_length = 20
            gaps = rng.exponential(1.0 / (self.arrival_rate * 10), size=count)
            num_bursts = max(1, -(-count // burst_length))
            offs = rng.exponential(1.0 / (self.arrival_rate / 4), size=num_bursts)
            off_prefix = np.concatenate([[0.0], np.cumsum(offs)])
            burst_of = np.arange(count) // burst_length
            return np.cumsum(gaps) + off_prefix[burst_of]
        if self.arrival_process == "batched":
            return (np.arange(count) // self.batch_size) * gap
        return np.arange(count) * gap

    def _base_sizes_array(self, count: int, rng: np.random.Generator) -> np.ndarray:
        params = dict(self.size_params or {})
        if self.size_distribution == "uniform":
            return processing_times.uniform_sizes_array(count, seed=rng, **params)
        if self.size_distribution == "exponential":
            return processing_times.exponential_sizes_array(count, seed=rng, **params)
        if self.size_distribution == "pareto":
            params.setdefault("shape", 1.5)
            params.setdefault("high", 100.0)
            return processing_times.bounded_pareto_sizes_array(count, seed=rng, **params)
        return processing_times.bimodal_sizes_array(count, seed=rng, **params)

    def _matrix_chunk(
        self,
        base_chunk: np.ndarray,
        rngs: dict[str, np.random.Generator],
        related_speeds: np.ndarray | None,
    ) -> np.ndarray:
        if self.machine_model == "identical":
            return machine_models.identical_matrix_array(base_chunk, self.num_machines)
        if self.machine_model == "related":
            return base_chunk[:, None] / related_speeds[None, :]
        if self.machine_model == "unrelated":
            return machine_models.unrelated_matrix_array(
                base_chunk,
                self.num_machines,
                correlation=self.machine_correlation,
                seed=rngs["matrix"],
            )
        # Restricted assignment: each machine is eligible with probability
        # 1/2, drawn from the matrix stream; a job left with none gets one
        # machine from the fix-up stream, so under iter_job_chunks the
        # position of every draw is independent of where chunk boundaries
        # fall.
        eligible = (
            rngs["matrix"].uniform(0.0, 1.0, size=(len(base_chunk), self.num_machines)) < 0.5
        )
        empty = ~eligible.any(axis=1)
        if empty.any():
            fixes = rngs["matrix_fixup"].integers(self.num_machines, size=int(empty.sum()))
            eligible[np.flatnonzero(empty), fixes] = True
        return np.where(eligible, base_chunk[:, None], math.inf)

    def _weights_chunk(self, count: int, rng: np.random.Generator) -> np.ndarray | None:
        """Per-job weights for the chunk (``None``: unweighted model)."""
        return None

    def _deadlines_chunk(
        self, releases: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | None:
        """Per-job deadlines for the chunk (``None``: no deadlines)."""
        return None


@dataclass
class WeightedInstanceGenerator(InstanceGenerator):
    """Weighted instances for the Section 3 objective (flow time plus energy).

    Weights are drawn uniformly from ``[weight_low, weight_high]``.
    """

    weight_low: float = 0.5
    weight_high: float = 4.0
    alpha: float = 2.5

    _name_suffix = "+weights"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0 < self.weight_low <= self.weight_high < math.inf):
            raise InvalidParameterError("need 0 < weight_low <= weight_high < inf")

    def _weights_chunk(self, count: int, rng: np.random.Generator) -> np.ndarray | None:
        return rng.uniform(self.weight_low, self.weight_high, size=count)


@dataclass
class DeadlineInstanceGenerator(InstanceGenerator):
    """Instances with deadlines for the Section 4 energy-minimisation problem.

    Each job's window length is ``slack`` times the time it would take to run
    the job at unit speed on its best machine, times a jitter drawn from
    ``[1 - slack_jitter, 1 + slack_jitter]``, so ``slack`` directly controls
    how much speed flexibility the scheduler has.
    """

    slack: float = 4.0
    slack_jitter: float = 0.5
    alpha: float = 2.0
    size_distribution: str = "uniform"

    _name_suffix = "+deadlines"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slack <= 1:
            raise InvalidParameterError(f"slack must exceed 1, got {self.slack}")
        if not (0 <= self.slack_jitter < 1):
            raise InvalidParameterError(f"slack_jitter must be in [0, 1), got {self.slack_jitter}")

    def _deadlines_chunk(
        self, releases: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | None:
        jitter = rng.uniform(1.0 - self.slack_jitter, 1.0 + self.slack_jitter, size=len(releases))
        min_sizes = np.where(np.isfinite(sizes), sizes, np.inf).min(axis=1)
        window = np.maximum(1e-6, self.slack * jitter * min_sizes)
        return releases + window
