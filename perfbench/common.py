"""Shared plumbing: checkout paths, child processes, statistics, digests.

The benchmark reads and writes only inside the checkout it runs from.
Scratch files (generated C projects, span dumps, result sets, the
temporary directory handed to child processes) live under
:data:`WORK`, which ``.gitignore`` lists.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TMP = os.path.join(WORK, "tmp")

#: How the ``ezrt`` console script starts the CLI.
EZRT = [
    sys.executable,
    "-c",
    "import sys; from repro.cli import main; sys.exit(main())",
]

#: A cold in-process client's set-up: import the package and load
#: both native cores (the pure fallbacks when they are not built).
IMPORT_AND_LOAD = (
    "import repro; from repro.tpn import _kernelc, _dbmc; "
    "_kernelc.load(); _dbmc.load()"
)

now_ns = time.monotonic_ns


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def check_program() -> None:
    for name in ("__init__.py", "cli.py"):
        if not os.path.isfile(os.path.join(SRC, "repro", name)):
            raise ProgramMissing(
                f"no program to measure: {os.path.join('src', 'repro', name)}"
                " is missing from this checkout"
            )


def prepare_dirs() -> None:
    os.makedirs(TMP, exist_ok=True)
    # in-process temp files (cffi builds, service spools) stay inside
    # the checkout too
    os.environ["TMPDIR"] = TMP
    import tempfile

    tempfile.tempdir = TMP


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = TMP
    return env


def use_src() -> None:
    """Make this process import the checkout's package."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# Environment and warm-up
# ----------------------------------------------------------------------
_WARMUP = r"""
import compileall, json, os, sys
compileall.compile_dir(os.path.join(sys.argv[1], "repro"), quiet=1)
from repro.tpn import _kernelc, _dbmc
status = {}
for name, module in (("kernel_core", _kernelc), ("dbm_core", _dbmc)):
    status[name] = "native" if module.load() is not None else "pure"
    error = getattr(module, "LOAD_ERROR", None)
    if error is not None:
        status[name + "_error"] = str(error)[:200]
print(json.dumps(status))
"""


def warm_up() -> dict:
    """Compile bytecode and build or load both native cores once.

    A fresh checkout has neither ``.pyc`` files nor the cffi builds;
    users pay those once per installation, not per request, so they
    happen here, before anything is timed.  Returns the environment
    record every result set carries.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _WARMUP, SRC],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=840,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            "warm-up failed: " + proc.stderr.strip()[-2000:]
        )
    status = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "EZRT_PURE": os.environ.get("EZRT_PURE", ""),
        **status,
    }


def core_status(env: dict) -> tuple[str, str]:
    """The part of an environment two result sets must share."""
    return env.get("kernel_core", "?"), env.get("dbm_core", "?")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Finished:
    """A program process that ran to completion."""

    def __init__(self, returncode, stdout, stderr, seconds, peak_rss_mb):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.peak_rss_mb = peak_rss_mb


def run_checked(cmd: list[str], timeout: float = 120.0) -> Finished:
    """Run one program process to completion, with its own peak RSS."""
    import tempfile
    import threading

    with tempfile.TemporaryFile(dir=TMP) as out, tempfile.TemporaryFile(
        dir=TMP
    ) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=out, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - started
        # reaped here (wait4 gives the child's own rusage), so tell
        # Popen not to wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            seconds,
            usage.ru_maxrss / 1024.0,
        )


def cold_seconds(cmd: list[str], repeats: int, speed=None) -> list[float]:
    """Wall time of ``repeats`` cold runs of ``cmd`` (each must exit 0),
    with host-speed probes after each run when ``speed`` is given."""
    times = []
    for _ in range(repeats):
        proc = run_checked(cmd)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cmd[-1]!r} exited {proc.returncode}: "
                + proc.stderr.strip()[-500:]
            )
        times.append(proc.seconds)
        if speed is not None:
            speed.probe(SETUP_PROBES)
    return times


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Iterations of the reference loop in one probe (about 1 ms).
PROBE_ITERATIONS = 10_000
#: Probes after each set-up sample.
SETUP_PROBES = 30
#: The reference loop's time on the reference host.  Reported timings
#: are in seconds of that host: raw seconds × PROBE_NOMINAL_S / median
#: probe time of the run (set-up and requests) on this host.
PROBE_NOMINAL_S = 0.001


def _reference_loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


class HostSpeed:
    """Reference-loop probes taken between requests.

    The machines this benchmark runs on are shared, and how fast the
    same pure-Python work runs drifts by tens of percent within
    minutes.  Timing a fixed loop in the client, between set-up samples
    and between requests but never during one, measures that drift;
    dividing every timing of a run by the loop's median time in that
    run reports it in seconds of one reference host.  The loop is the
    benchmark's own code, so a change to the program cannot move it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, count: int = 1) -> float:
        """Run ``count`` probes; returns the seconds they took."""
        spent = 0.0
        for _ in range(count):
            started = time.perf_counter()
            _reference_loop(PROBE_ITERATIONS)
            seconds = time.perf_counter() - started
            self.samples.append(seconds)
            spent += seconds
        return spent

    def scale(self) -> float:
        """Factor from this host's seconds to reference-host seconds."""
        import statistics

        return PROBE_NOMINAL_S / statistics.median(self.samples)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of per-process peak RSS (``VmHWM``) over ``pid`` and its
    live descendants."""
    total_kib = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
            with open(
                f"/proc/{current}/task/{current}/children", encoding="ascii"
            ) as fh:
                pending.extend(int(p) for p in fh.read().split())
        except (OSError, ValueError):
            continue
    return total_kib / 1024.0


# ----------------------------------------------------------------------
# Statistics and digests
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def digest(payload) -> str:
    """Short content digest of a JSON-serialisable value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def schedule_digest(firing_schedule) -> str:
    """Digest of a firing schedule: ``(transition, delay, time)`` rows."""
    return digest([list(row) for row in firing_schedule])


def c_bytes(files: dict[str, str]) -> int:
    """Bytes of generated C (sources and headers) in a project."""
    return sum(
        len(content.encode("utf-8"))
        for name, content in files.items()
        if name.endswith((".c", ".h"))
    )
