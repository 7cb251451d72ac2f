#!/usr/bin/env python
"""Archetype composition: task-parallel composition of data-parallel parts.

Paper §6 proposes "task-parallel compositions of data-parallel
computations" as future work (and cites the authors' group-communication
archetype paper).  With sub-communicators this falls out naturally: a
12-rank machine splits into a 4-rank *sorting* task and an 8-rank
*Poisson* task; each group runs its archetype program concurrently in an
isolated communication context, and the results meet on the world
communicator.

Run:  python examples/task_data_composition.py
"""

import numpy as np

from repro import IBM_SP, spmd_run
from repro.apps.sorting.mergesort import _merge_phase
from repro.comm.reductions import MAX, SUM
from repro.core.meshspectral import MeshContext
from repro.core.onedeep import OneDeepDC
from repro.kernels import READ, WRITE, Arg
from repro.util.partition import split_evenly

NPROCS = 12
SORT_RANKS = 4
N_KEYS = 50_000
GRID = 64


def pipeline(comm, data):
    task = "sort" if comm.rank < SORT_RANKS else "poisson"
    sub = comm.split(task)

    if task == "sort":
        # Data-parallel task 1: one-deep mergesort on 4 ranks.
        arch = OneDeepDC(solve=lambda x: np.sort(x, kind="stable"), merge=_merge_phase())
        piece = arch.body(sub, split_evenly(data, sub.size))
        summary = ("sorted-keys", float(piece.size))
    else:
        # Data-parallel task 2: Jacobi sweeps on 8 ranks.
        mesh = MeshContext(sub)
        u = mesh.grid((GRID, GRID), ghost=1)
        unew = u.like()
        u.fill_from(lambda i, j: (i == 0) * 1.0)
        unew.interior[...] = u.interior
        sweep = mesh.loop(
            lambda out, s: out.__setitem__(
                ..., 0.25 * (s[-1, 0] + s[1, 0] + s[0, -1] + s[0, 1])
            ),
            Arg(unew, WRITE),
            Arg(u, READ, halo=1),
            margin=1,
            flops_per_point=6.0,
        )
        copy_back = mesh.loop(
            lambda out, new: out.__setitem__(..., new), Arg(u, WRITE), Arg(unew, READ), margin=1
        )
        for _ in range(50):
            sweep()
            copy_back()
        heat = mesh.grid_reduce(u, np.sum, SUM, identity=0.0)
        summary = ("interior-heat", float(heat) if sub.rank == 0 else 0.0)

    # Task results meet on the world communicator.
    keys_total = comm.allreduce(summary[1] if summary[0] == "sorted-keys" else 0.0, SUM)
    heat_total = comm.allreduce(summary[1] if summary[0] == "interior-heat" else 0.0, MAX)
    return (keys_total, heat_total)


def main() -> None:
    rng = np.random.default_rng(5)
    data = rng.integers(0, 10**9, size=N_KEYS)
    result = spmd_run(NPROCS, pipeline, args=(data,), machine=IBM_SP)
    keys, heat = result.values[0]
    print(f"composed tasks on {NPROCS} ranks of {IBM_SP.name}:")
    print(f"  sort task    : {int(keys):,} keys sorted across {SORT_RANKS} ranks")
    print(f"  poisson task : interior heat {heat:.2f} on {NPROCS - SORT_RANKS} ranks")
    print(f"  modelled makespan: {result.elapsed * 1e3:.2f} ms")
    print(
        "\nEach task ran its archetype in an isolated communication context;\n"
        "the makespan is the slower task (task parallelism), not the sum."
    )


if __name__ == "__main__":
    main()
