"""Process-memory introspection helpers.

Used by the scalability experiments to report the peak resident-set
high-water mark alongside wall times.  The numbers are process-wide and
monotone: they never decrease over the life of the process, so per-phase
attributions must compare before/after readings.
"""

from __future__ import annotations

import sys

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]


def peak_rss_bytes() -> int:
    """Peak resident set size of the current process in bytes (0 if unknown).

    ``ru_maxrss`` is reported in kibibytes on Linux and in bytes on macOS.
    """
    if resource is None:
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(usage)
    return int(usage) * 1024
