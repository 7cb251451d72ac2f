"""Parallel-vs-serial ablation: real multi-core speedup of the simulator.

Measures what actually running ranks in parallel buys over the
single-core simulator.  Each workload is timed twice on the host clock —
once on the deterministic backend, once on the process-parallel backend
(:mod:`repro.runtime.parallel`) — and the two runs must be
observationally identical: same per-rank values, same final virtual
clocks, checked here with a digest.  Only host time is allowed to
differ.

Workloads are the messaging-heavy trio the observability CLI uses
(Jacobi Poisson, 2-D FFT, one-deep mergesort) at 16 ranks, run without
tracing so the measurement isolates the runtime hot path rather than
trace-event appends.

The achievable speedup is bounded by the host's core count, so every
row records ``host_cpus`` and the CI gate (``--min-speedup``) is only
applied when the host has at least ``--min-cpus`` cores — on a 1-2 core
container the parallel backend pays process/IPC overhead with no cores
to win back, and an honest artifact shows that rather than gating on it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.apps import registry
from repro.runtime.backends import BACKEND_ENV
from repro.runtime.spmd import RunResult
from repro.verify.digest import value_digest

#: rank count for the ablation (the acceptance scale)
DEFAULT_NPROCS = 16
#: wall-clock samples per (workload, mode); best-of is reported
DEFAULT_REPEATS = 3


# Workloads resolve through the shared app registry; only the ablation's
# scaling knob and machine pairing are local decisions.


def _run_poisson(nprocs: int, scale: int = 1) -> RunResult:
    return registry.get("poisson").run(
        {"nprocs": nprocs, "max_iters": 8 * scale}, machine="ibm-sp"
    )


def _run_fft2d(nprocs: int, scale: int = 1) -> RunResult:
    return registry.get("fft2d").run(
        {"nprocs": nprocs, "repeats": 2 * scale}, machine="ibm-sp"
    )


def _run_mergesort(nprocs: int, scale: int = 1) -> RunResult:
    return registry.get("mergesort").run(
        {"nprocs": nprocs, "n": 4096 * scale}, machine="intel-delta"
    )


WORKLOADS = {
    "poisson": (_run_poisson, registry.get("poisson").description),
    "fft2d": (_run_fft2d, registry.get("fft2d").description),
    "mergesort": (_run_mergesort, registry.get("mergesort").description),
}


def host_cpus() -> int:
    """Cores this process may run on (affinity-aware where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def _backend_env(name: str | None):
    previous = os.environ.get(BACKEND_ENV)
    if name is None:
        os.environ.pop(BACKEND_ENV, None)
    else:
        os.environ[BACKEND_ENV] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = previous


@dataclass(frozen=True)
class ParallelRow:
    """One workload's serial-vs-parallel measurement."""

    app: str
    nprocs: int
    host_cpus: int
    wall_serial: float  #: best-of-N host seconds, deterministic backend
    wall_parallel: float  #: best-of-N host seconds, parallel backend
    virtual_elapsed: float  #: virtual makespan (identical in both modes)
    digest: str  #: digest of (times, values) — identical in both modes
    identical: bool  #: did both backends produce the same digest?

    @property
    def speedup(self) -> float:
        """Host-time ratio serial/parallel (>1 means parallel wins)."""
        return self.wall_serial / self.wall_parallel if self.wall_parallel > 0 else float("inf")

    def to_json(self) -> dict:
        return {
            "app": self.app,
            "procs": self.nprocs,
            "host_cpus": self.host_cpus,
            "wall_serial_seconds": self.wall_serial,
            "wall_parallel_seconds": self.wall_parallel,
            "speedup": self.speedup,
            "virtual_elapsed_seconds": self.virtual_elapsed,
            "digest": self.digest,
            "identical": self.identical,
        }


def _measure(runner, nprocs: int, scale: int, repeats: int, backend: str | None):
    """Best-of-*repeats* wall seconds with ``REPRO_BACKEND`` set to *backend*."""
    best = float("inf")
    result: RunResult | None = None
    with _backend_env(backend):
        for _ in range(repeats):
            start = time.perf_counter()
            result = runner(nprocs, scale)
            best = min(best, time.perf_counter() - start)
    return best, result


def run_ablation(
    apps: list[str] | None = None,
    nprocs: int = DEFAULT_NPROCS,
    repeats: int = DEFAULT_REPEATS,
    scale: int = 1,
) -> list[ParallelRow]:
    """Run the serial/parallel ablation for each workload."""
    cpus = host_cpus()
    rows: list[ParallelRow] = []
    for app in apps or list(WORKLOADS):
        runner, _ = WORKLOADS[app]
        wall_serial, res_serial = _measure(runner, nprocs, scale, repeats, None)
        wall_parallel, res_parallel = _measure(runner, nprocs, scale, repeats, "parallel")
        digest_serial = value_digest([res_serial.times, res_serial.values])
        digest_parallel = value_digest([res_parallel.times, res_parallel.values])
        rows.append(
            ParallelRow(
                app=app,
                nprocs=nprocs,
                host_cpus=cpus,
                wall_serial=wall_serial,
                wall_parallel=wall_parallel,
                virtual_elapsed=max(res_serial.times),
                digest=digest_serial,
                identical=digest_serial == digest_parallel,
            )
        )
    return rows


def render_table(rows: list[ParallelRow]) -> str:
    cpus = rows[0].host_cpus if rows else host_cpus()
    lines = [
        f"parallel-vs-serial ablation (host seconds, best of N; {cpus} host cores; "
        "virtual time unchanged)",
        f"{'app':>10} {'P':>3} {'serial (s)':>11} {'parallel (s)':>13} {'speedup':>8} "
        f"{'virtual (s)':>12} {'identical':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.app:>10} {r.nprocs:>3} {r.wall_serial:>11.4f} {r.wall_parallel:>13.4f} "
            f"{r.speedup:>7.2f}x {r.virtual_elapsed:>12.6g} "
            f"{'yes' if r.identical else 'NO':>9}"
        )
    return "\n".join(lines)


def check_rows(
    rows: list[ParallelRow], min_speedup: float | None, min_cpus: int = 4
) -> list[str]:
    """Gate failures: digest mismatches always fail; the *min_speedup*
    floor requires the best row to clear it, and only on hosts with at
    least *min_cpus* cores (speedup is physically capped by core count)."""
    problems = [
        f"{r.app}: parallel backend changed observable results (digest mismatch)"
        for r in rows
        if not r.identical
    ]
    if min_speedup is not None and rows:
        cpus = rows[0].host_cpus
        if cpus >= min_cpus:
            best = max(rows, key=lambda r: r.speedup)
            if best.speedup < min_speedup:
                problems.append(
                    f"best parallel speedup {best.speedup:.2f}x ({best.app}) below "
                    f"the floor {min_speedup:.2f}x on a {cpus}-core host"
                )
    return problems
