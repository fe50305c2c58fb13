"""Shared plumbing of the benchmark: checkout layout, the fixed process
environment, child processes, ``/proc`` readers and percentiles.

Every process the benchmark measures is started through :func:`spawn`, so it
runs with ``PYTHONHASHSEED=0``, a fixed environment built from nothing the
caller exported, and the checkout root as its working directory.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Generated inputs and written span files (listed in the root .gitignore).
CACHE = ROOT / ".perfbench_cache"

#: Upper bound on any single child process of one benchmark run, seconds.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A benchmark step could not run (as opposed to a failed output check)."""


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources; refuse to run
    outside a checkout that holds them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fixed_env() -> dict[str, str]:
    """The environment of every measured process (nothing inherited)."""
    return {
        "PATH": os.defpath,
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
        "LC_ALL": "C.UTF-8",
        # One BLAS thread: numpy may not start helper threads that compete
        # with the (at most two) busy processes for the cores.
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def pin_to_bench_cpu() -> int:
    """Run this process, and so every process it starts, on one CPU.

    A closed-loop client and server then hand each request over on one
    core, and no wake-up waits for the host to schedule a second, idle
    virtual CPU: on a 2-vCPU host that cut the service's per-session p99
    from 13-38 ms to 7-17 ms.  The host-speed brackets run on the same CPU
    as the processes they calibrate.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def spawn(argv: list[str]) -> subprocess.Popen:
    """Start ``python <argv>`` in the fixed environment, stdout piped as text."""
    return subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=fixed_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Make sure ``proc`` has ended: wait briefly, then kill and reap it."""
    if proc.poll() is None:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run_script(script: str, *args: str) -> dict:
    """Run a benchmark script to completion; return its last stdout line as JSON."""
    proc = spawn([str(HERE / script), *args])
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{script} did not finish within {CHILD_TIMEOUT_S:.0f} s") from None
    finally:
        stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def timed_first_line(argv: list[str]) -> tuple[subprocess.Popen, float, str]:
    """Spawn ``argv``; return the process, seconds until its first stdout
    line arrived, and that line."""
    started = time.perf_counter()
    proc = spawn(argv)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    if not line:
        stop(proc)
        raise BenchError(f"{argv[0]} exited before printing (code {proc.returncode})")
    return proc, elapsed, line


# -- /proc readers (Linux) -------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds consumed so far by process ``pid``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def host_info() -> dict:
    """What each run records about the machine it ran on."""
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
