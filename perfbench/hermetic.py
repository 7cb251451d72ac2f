"""Hermetic runs: scrubbed environment, throwaway directories, provenance.

Every run gets a fresh scratch directory under ``perfbench/out/`` holding
its tuned-config catalog, result cache and ``TMPDIR``; nothing is read
from or written to the caller's home or ``/tmp``.  Every ``REPRO_*``
variable is removed (and recorded) so no knob leaks into a measurement.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
SRC = ROOT / "src"
OUT = PACKAGE / "out"


@dataclass
class Scratch:
    """One run's throwaway directories and the environment that names them."""

    path: Path
    env: dict[str, str]
    #: ``REPRO_*`` variables that were set and have been removed
    scrubbed: list[str]
    shm_before: set[str] = field(default_factory=set)

    @property
    def cache_dir(self) -> Path:
        return self.path / "cache"

    @property
    def tmp(self) -> Path:
        return self.path / "tmp"

    def leaks(self) -> list[str]:
        """Temp files and ``/dev/shm`` entries the run left behind."""
        left = [f"tmp/{p.name}" for p in self.tmp.iterdir()] if self.tmp.is_dir() else []
        left += [f"/dev/shm/{name}" for name in sorted(_shm_entries() - self.shm_before)]
        return left

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def make_scratch(label: str) -> Scratch:
    """Create the scratch tree and point this process's environment at it.

    The benchmark process imports ``repro`` itself (for the in-process
    layer timings), so the scrub applies to ``os.environ`` too, before
    that import.
    """
    path = OUT / f"run-{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    for sub in ("tune", "cache", "tmp"):
        (path / sub).mkdir(parents=True)
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    os.environ["REPRO_TUNE_DIR"] = str(path / "tune")
    os.environ["TMPDIR"] = str(path / "tmp")
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=f"{SRC}{os.pathsep}{ROOT}" + (f"{os.pathsep}{pythonpath}" if pythonpath else ""),
        PYTHONUNBUFFERED="1",
    )
    return Scratch(path, env, scrubbed, _shm_entries())


def import_repro() -> None:
    """Make ``repro`` importable from the checkout's ``src`` (no install)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # fails loudly when the checkout has no program

    if SRC not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def calibration_ms() -> float:
    """Milliseconds this host takes right now for a fixed pure-Python loop
    (median of 5).  This VM's speed moves by 20-30 % for minutes at a
    time; recording it with every run lets ``--compare`` say when two
    sets were simply measured on a faster and a slower host."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return sorted(times)[2] * 1e3


def provenance(seed: int, seconds: float, scrubbed: list[str]) -> dict:
    import numpy

    return {
        "calibration_ms": calibration_ms(),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "scrubbed_env": scrubbed,
    }
