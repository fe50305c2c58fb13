"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class InvalidInstanceError(ReproError):
    """An :class:`~repro.simulation.instance.Instance` violates a structural invariant.

    Examples: a job whose size vector length differs from the number of
    machines, a non-positive processing time, a deadline earlier than the
    release date.
    """


class InvalidParameterError(ReproError):
    """An algorithm or generator received a parameter outside its domain.

    Examples: ``epsilon <= 0`` for the rejection-based schedulers, a power
    exponent ``alpha <= 1`` for the speed-scaling model, an empty speed grid
    for the energy-minimisation scheduler.
    """


class SimulationError(ReproError):
    """The event-driven engine reached an inconsistent state.

    This indicates a bug in a policy implementation (e.g. dispatching a job
    to a machine index that does not exist, starting a job that is not
    pending) rather than bad user input.
    """


class ScheduleValidationError(ReproError):
    """A produced schedule violates the non-preemptive execution model.

    Raised by :mod:`repro.simulation.validation` when a schedule overlaps two
    jobs on one machine, executes a job before its release date, preempts a
    completed job, or misses a deadline in the energy-minimisation setting.
    """


class InfeasibleInstanceError(ReproError):
    """No feasible schedule exists for the given instance.

    Used by the energy-minimisation scheduler (Section 4 of the paper) when a
    job cannot be completed within its ``[release, deadline]`` window with the
    available speed grid.
    """


class DualFeasibilityError(ReproError):
    """A dual-fitting certificate violated a dual constraint.

    The analysis of the paper (Lemma 4 and Lemma 6) guarantees feasibility of
    the constructed dual solutions; this error signals a violation beyond
    numerical tolerance, i.e. an implementation bug.
    """


class UnknownAlgorithmError(InvalidParameterError):
    """An algorithm id was not found in the solver registry.

    Raised by :func:`repro.solve` and :func:`repro.solvers.get_solver`; the
    message lists the registered algorithm ids.
    """


class SolverModelError(InvalidParameterError):
    """An algorithm was used under the wrong execution model.

    Raised when a caller pins ``model=`` in :func:`repro.solve` to a model
    the algorithm does not run under, or when a registered factory produces a
    policy that does not implement the interface of its declared model.
    """


class StreamingNotSupportedError(InvalidParameterError):
    """An algorithm cannot run as a streaming scheduler session.

    Raised by :func:`repro.open_session` for solvers without streaming
    support — reference solvers and runners that must preprocess the whole
    instance; the registry marks streaming-capable algorithms with
    ``supports_streaming`` (see ``repro solve --list-algorithms``).
    """


class TraceSchemaError(InvalidParameterError):
    """A trace row (NDJSON or CSV) violates the wire schema.

    Raised by the trace readers in :mod:`repro.workloads.traces` and by
    :func:`repro.service.protocol.parse_request` for the job rows of a
    ``submit``, with the 1-based line number and, where attributable, the offending field — so
    ``repro serve`` and ``repro trace`` report *which* row and *which*
    column broke instead of a raw traceback.  The CLI maps it (like every
    :class:`ReproError`) to exit code 2.
    """

    def __init__(self, message: str, *, lineno: "int | None" = None,
                 field: "str | None" = None):
        prefix = ""
        if lineno is not None:
            prefix += f"line {lineno}: "
        if field is not None:
            prefix += f"field {field!r}: "
        super().__init__(prefix + message)
        self.lineno = lineno
        self.field = field


class ServiceError(ReproError):
    """Base class for errors of the multi-session scheduling service.

    Covers both sides of the wire: a server rejecting a malformed or
    out-of-order control message, and a client surfacing an ``error``
    response line it received.
    """


class ServiceProtocolError(ServiceError):
    """A control-message line violates the service wire protocol.

    Raised by :func:`repro.service.protocol.parse_request` with the 1-based
    line number where attributable: a line that is not a JSON object, a
    missing or unknown ``op``, an unsupported protocol version, or a field
    the op does not read, lacks or has of the wrong type.
    """

    def __init__(self, message: str, *, lineno: "int | None" = None):
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)
        self.lineno = lineno


class SessionStateError(ReproError):
    """A :class:`~repro.service.session.SchedulerSession` was used out of order.

    Examples: submitting a job with a release date earlier than an already
    submitted one, submitting to a finalized session, or snapshotting after
    ``finalize()``.
    """
