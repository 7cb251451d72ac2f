"""Kernel-fusion ablation: host time with fusion off vs on.

The kernel layer's plan (grouping, exchange packs, hoists, charges) is
identical in both modes — ``REPRO_KERNEL_FUSION`` only switches group
bodies between loop-by-loop and tile-interleaved execution — so the two
runs must be observationally identical: same per-rank virtual clocks,
same values, same digests.  This module measures what the switch is
*for*: real host seconds on the mesh-spectral workloads whose steps
declare several loops over the same region (smog fuses an eight-loop
transport/chemistry chain; spectralflow fuses its advection pair and
hoists the streamfunction exchange).

Mirrors :mod:`repro.bench.parallel` (best-of-N, digest-gated, generous
CI floor); additionally captures the ``core.kernels.*`` counters so the
artifact records how much fusion and hoisting actually happened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.apps import registry
from repro.kernels import fusion_forced
from repro.obs.metrics import scoped_registry
from repro.runtime.spmd import RunResult
from repro.verify.digest import value_digest

#: rank count for the ablation
DEFAULT_NPROCS = 2
#: host-time samples per (workload, mode); best-of is reported
DEFAULT_REPEATS = 3


def _run_poisson(nprocs: int, scale: int = 1) -> RunResult:
    return registry.get("poisson").run(
        {"nprocs": nprocs, "nx": 256, "ny": 256, "max_iters": 10 * scale},
        machine="ibm-sp",
    )


def _run_smog(nprocs: int, scale: int = 1) -> RunResult:
    # Large enough that the per-step eight-loop chain's working set
    # spills cache unfused — the configuration fusion is for.
    return registry.get("smog").run(
        {"nprocs": nprocs, "nx": 512, "ny": 512, "steps": 4 * scale},
        machine="ibm-sp",
    )


def _run_spectralflow(nprocs: int, scale: int = 1) -> RunResult:
    return registry.get("spectralflow").run(
        {"nprocs": nprocs, "nr": 256, "nz": 256, "steps": 4 * scale},
        machine="ibm-sp",
    )


WORKLOADS = {
    "poisson": (_run_poisson, registry.get("poisson").description),
    "smog": (_run_smog, registry.get("smog").description),
    "spectralflow": (_run_spectralflow, registry.get("spectralflow").description),
}

#: counters captured into each row (names under ``core.kernels.``)
COUNTER_NAMES = (
    "loops",
    "groups",
    "loops_fused",
    "exchanges",
    "exchanges_hoisted",
    "dats_packed",
    "tiles",
)


@dataclass(frozen=True)
class KernelAblationRow:
    """One workload's fusion-off vs fusion-on measurement."""

    app: str
    nprocs: int
    wall_unfused: float  #: best-of-N host seconds, REPRO_KERNEL_FUSION=0
    wall_fused: float  #: best-of-N host seconds, fusion on
    virtual_elapsed: float  #: virtual makespan (identical in both modes)
    digest: str  #: digest of (times, values) — identical in both modes
    identical: bool  #: did both modes produce the same digest?
    counters: dict = field(default_factory=dict)  #: core.kernels.* (fused run)

    @property
    def speedup(self) -> float:
        """Host-time ratio unfused/fused (>1 means fusion helps)."""
        return (
            self.wall_unfused / self.wall_fused
            if self.wall_fused > 0
            else float("inf")
        )

    def to_json(self) -> dict:
        return {
            "app": self.app,
            "procs": self.nprocs,
            "wall_unfused_seconds": self.wall_unfused,
            "wall_fused_seconds": self.wall_fused,
            "speedup": self.speedup,
            "virtual_elapsed_seconds": self.virtual_elapsed,
            "digest": self.digest,
            "identical": self.identical,
            "counters": self.counters,
        }


def _sample(runner, nprocs: int, scale: int, fused: bool):
    """One timed run with fusion forced to *fused*; returns
    (host seconds, result, kernel counters)."""
    with fusion_forced(fused), scoped_registry() as reg:
        start = time.perf_counter()
        result = runner(nprocs, scale)
        elapsed = time.perf_counter() - start
        snap = reg.snapshot()
    counters = {
        name: snap[f"core.kernels.{name}"]["value"]
        for name in COUNTER_NAMES
        if f"core.kernels.{name}" in snap
    }
    return elapsed, result, counters


def run_ablation(
    apps: list[str] | None = None,
    nprocs: int = DEFAULT_NPROCS,
    repeats: int = DEFAULT_REPEATS,
    scale: int = 1,
) -> list[KernelAblationRow]:
    """Run the fusion off/on ablation; one row per app.

    Samples alternate unfused/fused rather than running one mode's
    repeats back to back, so slow host drift (thermal throttling, noisy
    CI neighbours) cancels out of the ratio instead of masquerading as
    a fusion effect."""
    rows: list[KernelAblationRow] = []
    for app in apps or list(WORKLOADS):
        runner, _ = WORKLOADS[app]
        wall_off = wall_on = float("inf")
        res_off = res_on = None
        counters: dict = {}
        for _ in range(repeats):
            t, res_off, _ = _sample(runner, nprocs, scale, False)
            wall_off = min(wall_off, t)
            t, res_on, counters = _sample(runner, nprocs, scale, True)
            wall_on = min(wall_on, t)
        digest_off = value_digest([res_off.times, res_off.values])
        digest_on = value_digest([res_on.times, res_on.values])
        rows.append(
            KernelAblationRow(
                app=app,
                nprocs=nprocs,
                wall_unfused=wall_off,
                wall_fused=wall_on,
                virtual_elapsed=max(res_on.times),
                digest=digest_on,
                identical=digest_off == digest_on,
                counters=counters,
            )
        )
    return rows


def render_table(rows: list[KernelAblationRow]) -> str:
    lines = [
        "kernel-fusion ablation (host seconds, best of N; plan and virtual time "
        "identical)",
        f"{'app':>13} {'P':>3} {'unfused (s)':>12} {'fused (s)':>10} {'speedup':>8} "
        f"{'hoisted':>8} {'packed':>7} {'fused loops':>11} {'identical':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.app:>13} {r.nprocs:>3} {r.wall_unfused:>12.4f} "
            f"{r.wall_fused:>10.4f} {r.speedup:>7.2f}x "
            f"{r.counters.get('exchanges_hoisted', 0):>8.0f} "
            f"{r.counters.get('dats_packed', 0):>7.0f} "
            f"{r.counters.get('loops_fused', 0):>11.0f} "
            f"{'yes' if r.identical else 'NO':>9}"
        )
    return "\n".join(lines)


def check_rows(
    rows: list[KernelAblationRow], min_speedup: float | None
) -> list[str]:
    """Gate failures: digest mismatches always fail; *min_speedup* (when
    given) is the generous CI floor the best row must clear — host timing
    on shared runners is noisy, so the gate guards against fusion being
    silently disabled, not against modest regressions."""
    problems = []
    for r in rows:
        if not r.identical:
            problems.append(
                f"{r.app}: fusion changed observable results (digest mismatch)"
            )
    if min_speedup is not None and rows:
        best = max(r.speedup for r in rows)
        if best < min_speedup:
            problems.append(
                f"best fusion speedup {best:.2f}x below the regression floor "
                f"{min_speedup:.2f}x"
            )
    return problems
