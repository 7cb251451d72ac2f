"""What the workloads run: the serve job templates and the sim cases.

Sizes are frozen: a change here changes every pinned digest and every
baseline, so it is a benchmark change (its own PR, re-pinned with
``--pin``), never part of a change that claims a gain.
"""

from __future__ import annotations

MACHINE = "ibm-sp"
BACKEND = "deterministic"

#: the serve workloads' jobs: every registry app at its registered
#: defaults (2-65 ms of execution each)
SERVE_APPS = (
    "mergesort", "poisson", "cfd", "fdtd", "smog",
    "spectralflow", "fft2d", "imagepipe", "knapfarm",
)

#: ``seed`` values of the keys ``serve_hit`` draws from (9 apps x 4)
HIT_SEEDS = (0, 1, 2, 3)

#: first ``seed`` value ``serve_miss`` uses; every later request takes
#: the next one, so no two requests of a run share a cache key
FRESH_SEED_BASE = 1000

#: sim_comm: 16 ranks, small sections, thousands of small messages per
#: run (mergesort: few, very large ones) — scheduler handoff, mailbox,
#: context and collectives dominate, kernel bodies are tiny
SIM_COMM = (
    ("poisson", {"nprocs": 16, "nx": 64, "ny": 64, "max_iters": 40}),
    ("fft2d", {"nprocs": 16, "rows": 128, "cols": 128, "repeats": 8}),
    ("cfd", {"nprocs": 16, "nx": 64, "ny": 64, "steps": 12}),
    ("imagepipe", {"width": 6, "items": 400}),
    ("mergesort", {"nprocs": 16, "n": 1 << 20}),
)

#: sim_kernel: 2 ranks, large grids, tens of messages per run, each a
#: large halo — kernel bodies, planning and payload copies dominate
SIM_KERNEL = (
    ("smog", {"nprocs": 2, "nx": 512, "ny": 512, "steps": 5}),
    ("spectralflow", {"nprocs": 2, "nr": 256, "nz": 256, "steps": 10}),
    ("poisson", {"nprocs": 2, "nx": 1024, "ny": 1024, "max_iters": 24}),
    ("cfd", {"nprocs": 2, "nx": 256, "ny": 256, "steps": 28}),
    ("fdtd", {"nprocs": 2, "nx": 64, "ny": 64, "nz": 64, "steps": 24}),
)

SIM_CASES = {"sim_comm": SIM_COMM, "sim_kernel": SIM_KERNEL}
SERVE_WORKLOADS = ("serve_miss", "serve_hit")


def job_body(app: str, seed: int) -> dict:
    """The request document of one serve job."""
    return {"app": app, "machine": MACHINE, "backend": BACKEND, "seed": seed}


def case_id(workload: str, app: str) -> str:
    return f"{workload}/{app}"
