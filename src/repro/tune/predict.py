"""Closed-form predictions for candidate configurations.

Bridges the tuner to :mod:`repro.bench.predict`: each predictable app
maps its parameter dict plus a candidate's knobs onto the corresponding
analytic T(P) model.  Apps without a closed form return ``None`` and are
never pruned — the searcher measures them all, which is the honest
fallback when no model exists.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.apps.registry import AppSpec
from repro.machines.model import MachineModel
from repro.tune.catalog import TunedConfig

#: survivors are candidates predicted within this factor of the best
#: prediction — wide enough to absorb the skew/wait effects the closed
#: forms ignore (the test suite holds model-vs-simulator agreement to
#: ~10%), tight enough to discard clearly-lost grid shapes
PRUNE_SLACK = 1.15


def predict_candidate(
    spec: AppSpec,
    params: Mapping[str, Any],
    machine: MachineModel,
    config: TunedConfig,
) -> float | None:
    """Predicted virtual makespan of *config*, or ``None`` (no model)."""
    p = dict(params)
    p.update(config.params)
    grid = config.proc_grid
    name = spec.name
    if name == "poisson":
        from repro.bench.predict import predict_poisson

        return predict_poisson(
            p["nx"],
            p["ny"],
            p["max_iters"],
            p["nprocs"],
            machine,
            proc_grid=grid,
            overlap=p.get("overlap", True),
        )
    if name == "cfd":
        from repro.bench.predict import predict_cfd

        return predict_cfd(
            p["nx"],
            p["ny"],
            p["steps"],
            p["nprocs"],
            machine,
            proc_grid=grid,
            cfl_interval=p.get("cfl_interval", 1),
            overlap=p.get("overlap", True),
        )
    if name == "smog":
        from repro.bench.predict import predict_smog

        return predict_smog(
            p["nx"],
            p["ny"],
            p["steps"],
            p["nprocs"],
            machine,
            chem_substeps=p.get("chem_substeps", 4),
            proc_grid=grid,
            overlap=True,
        )
    if name == "fft2d":
        from repro.bench.predict import predict_fft2d

        return predict_fft2d(
            p["rows"], p["cols"], p["repeats"], p["nprocs"], machine, gather=True
        )
    if name == "mergesort":
        from repro.bench.predict import predict_onedeep_sort

        return predict_onedeep_sort(p["n"], p["nprocs"], machine)
    return None


def prune(predictions: list[float | None]) -> list[bool]:
    """Keep-flags per candidate: candidate 0 (the default) and every
    unpredicted candidate always survive; predicted candidates survive
    within :data:`PRUNE_SLACK` of the best prediction."""
    finite = [p for p in predictions if p is not None]
    cutoff = PRUNE_SLACK * min(finite) if finite else None
    keep = []
    for i, p in enumerate(predictions):
        keep.append(i == 0 or p is None or p <= cutoff)
    return keep
