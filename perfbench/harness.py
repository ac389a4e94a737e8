"""Closed-loop job runner, latency statistics, set-up timing and provenance."""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from . import tracing
from . import workloads as wl

TAIL_BEYOND = 10        # jobs that must lie beyond the reported tail
TAIL_MIN_PCT = 50.0     # a "tail" at or below the median is no tail
SETUP_REPEATS = 9


def tail(latencies, beyond: int = TAIL_BEYOND, min_pct: float = TAIL_MIN_PCT):
    """Highest percentile with at least ``beyond`` samples strictly above it.

    Returns (percentile, value, samples beyond), or None when the run is too
    short for such a percentile at or above ``min_pct``.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = n - beyond                      # 1-based rank of the candidate
    while k >= 1 and n - bisect.bisect_right(xs, xs[k - 1]) < beyond:
        k -= 1                          # ties at the candidate: step down
    if k < 1:
        return None
    pct = 100.0 * k / n
    if pct < min_pct:
        return None
    return pct, xs[k - 1], n - bisect.bisect_right(xs, xs[k - 1])


def load_program() -> SimpleNamespace:
    """Import catteleport; returns its layer modules by name.

    The package namespace itself is no use for this: its ``fidelity``
    attribute is the function re-exported by ``__init__``, not the module.
    """
    import catteleport.cli  # noqa: F401  (imports every layer module)

    src = Path(__file__).resolve().parent.parent / "src"
    where = Path(sys.modules["catteleport"].__file__).resolve().parent
    if where != src / "catteleport":
        sys.exit(f"perfbench: imported catteleport from {where}, not {src}")
    return SimpleNamespace(**{n: sys.modules[f"catteleport.{n}"] for n in tracing.LAYERS})


@dataclass
class Phase:
    """What one pass over whole cycles did."""

    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0                  # exit 0 but the output failed its check
    wall_s: float = 0.0                 # program time: harness work subtracted
    latencies_s: list = field(default_factory=list)   # successful jobs only
    rows: int = 0
    failures: dict = field(default_factory=dict)      # stratum -> count
    first_problem: dict = field(default_factory=dict)

    @property
    def jobs_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s


def run_jobs(jobs, cat, directory, tracer=None, phase: Phase | None = None):
    """Run jobs back to back (closed loop, one client), checking each output.

    Returns the seconds spent in checks, which the caller subtracts from the
    phase's wall time.
    """
    check_s = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        try:
            rc, payload = wl.execute(job, cat, directory)
        except Exception as exc:        # a crash is a failed job, not a crashed benchmark
            rc, payload = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        c0 = time.perf_counter()
        if tracer is not None:
            with tracer.paused():
                problem, rows = wl.check(job, rc, payload, cat, directory)
        else:
            problem, rows = wl.check(job, rc, payload, cat, directory)
        check_s += time.perf_counter() - c0
        if phase is None:
            continue
        phase.attempted += 1
        phase.rows += rows
        if problem is None:
            phase.latencies_s.append(latency)
        else:
            phase.failed += 1
            phase.incorrect += rc == 0
            phase.failures[job.name] = phase.failures.get(job.name, 0) + 1
            phase.first_problem.setdefault(job.name, problem)
    return check_s


def run_phase(workload, seed, cat, workdir: Path, seconds=None, cycles=None,
              min_cycles=3, tracer=None) -> Phase:
    """Run whole cycles until the program time is nearest ``seconds`` (and at
    least ``min_cycles`` have run), or exactly ``cycles`` cycles.

    A further cycle runs only while it would end closer to ``seconds`` than
    stopping now, judged by the mean cycle so far, so a run measures about
    ``seconds`` even when one cycle is a sizeable part of it.
    """
    phase = Phase()
    harness_s = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - harness_s
        if cycles is not None and phase.cycles >= cycles:
            break
        if (cycles is None and phase.cycles >= max(min_cycles, 1)
                and elapsed + 0.5 * elapsed / phase.cycles >= seconds):
            break
        g0 = time.perf_counter()
        cdir = workdir / f"cycle{phase.cycles:05d}"
        jobs = wl.generate(workload, seed, phase.cycles, cdir)
        harness_s += time.perf_counter() - g0
        if tracer is not None:
            tracer.active = True
        try:
            harness_s += run_jobs(jobs, cat, cdir, tracer, phase)
        finally:
            if tracer is not None:
                tracer.active = False
        g0 = time.perf_counter()
        shutil.rmtree(cdir)
        harness_s += time.perf_counter() - g0
        phase.cycles += 1
    phase.wall_s = time.perf_counter() - start - harness_s
    return phase


def warm_up(workload, seed, cat, workdir: Path):
    """First calls pay for imports, caches and BLAS start-up; keep them untimed."""
    import numpy as np

    cdir = workdir / "warmup"
    run_jobs(wl.generate(workload, seed, None, cdir), cat, cdir)
    a = np.ones((625, 625), dtype=complex)
    a @ a
    shutil.rmtree(cdir)


def measure_setup(root: Path, config_path: Path, repeats: int) -> list:
    """Wall times of fresh interpreters importing catteleport.cli and parsing
    one generated config, timed from outside."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import catteleport.cli as cli; cli.load_config(sys.argv[2])")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", code, str(root / "src"), str(config_path)],
                       cwd=root, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- provenance --------------------------------------------------------------

def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it says."""
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")) if libdir.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(root: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }
