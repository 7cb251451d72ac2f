"""Candidate-configuration spaces per application.

The space builder turns an :class:`~repro.apps.registry.AppSpec` into an
ordered list of :class:`~repro.tune.catalog.TunedConfig` candidates.
Candidate 0 is always the default (empty) config, and ordering is part
of the search contract: ranking ties break toward the earliest
candidate, so the default wins any tie.  Every other candidate sets a
process grid or an app parameter — the two things the virtual clock
the search ranks by can see; a knob only host time feels would tie with
the default by construction and cost a full run per search to say so.

Mesh apps get every divisor-pair process grid for their rank count,
crossed with ``overlap`` on/off where the app exposes that parameter.
Ghost widths are fixed by each stencil's radius (all current mesh apps
are one-deep), so no ghost candidates are emitted.  Pipeline-farm apps
get farm-width x credit-window grids — those change the virtual
makespan directly.

The module also defines the *canonical digest* used for the tuner's
correctness contract: a candidate is admissible only when its canonical
digest is bitwise-equal to the default run's.  For pipeline-farm apps
the canonical value is the width-invariant sorted per-item digest of
the collector output; for everything else it is the full per-rank value
list, the strictest invariant the app family supports.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.apps.registry import AppSpec
from repro.comm.cart import choose_proc_grid
from repro.runtime.spmd import RunResult
from repro.tune.catalog import TunedConfig
from repro.verify.digest import value_digest

#: farm widths tried (capped by the app's default-derived maximum)
FARM_WIDTHS = (1, 2, 3, 4)
#: credit-window sizes tried per width
FARM_WINDOWS = (1, 2, 4)


def _divisor_grids(nprocs: int, ndim: int) -> list[tuple[int, ...]]:
    """All *ndim*-dimensional factorisations of *nprocs*, lexicographically
    descending (widest leading axis first)."""
    if ndim == 1:
        return [(nprocs,)]
    out = []
    for d in range(nprocs, 0, -1):
        if nprocs % d == 0:
            out.extend((d, *rest) for rest in _divisor_grids(nprocs // d, ndim - 1))
    return out


def build_space(spec: AppSpec, params: Mapping[str, Any]) -> list[TunedConfig]:
    """Ordered candidate configs for *spec* run at *params*."""
    candidates = [TunedConfig()]
    if spec.archetype == "pipeline-farm":
        width_key = "workers" if "workers" in spec.defaults else "width"
        items = int(params.get("items", params.get("instances", 0)) or 0)
        for width in FARM_WIDTHS:
            if items and width > items:
                continue
            for window in FARM_WINDOWS:
                cfg = TunedConfig(params={width_key: width, "window": window})
                if cfg.params != {
                    width_key: params[width_key],
                    "window": params["window"],
                }:
                    candidates.append(cfg)
        return candidates

    nprocs = int(params.get("nprocs", 1))
    # The candidate grids must match the app's data dimensionality — an
    # override whose length differs from the grid's ndim never applies.
    ndim = 3 if "nz" in spec.defaults else 2
    default_grid = choose_proc_grid(nprocs, ndim)
    overlaps: tuple[Any, ...] = (None,)
    if "overlap" in spec.defaults:
        overlaps = (None, not bool(params["overlap"]))
    for grid in _divisor_grids(nprocs, ndim):
        for overlap in overlaps:
            if grid == default_grid and overlap is None:
                continue  # identical to candidate 0
            candidates.append(
                TunedConfig(
                    proc_grid=grid,
                    params={} if overlap is None else {"overlap": overlap},
                )
            )
    return candidates


def space_signature(
    schema: int, spec: AppSpec, params: Mapping[str, Any], space: list[TunedConfig]
) -> str:
    """Digest identifying a search: same app, params, and candidate set
    mean a stored entry answers the search without re-measuring."""
    return value_digest(
        [
            schema,
            spec.name,
            sorted((k, params[k]) for k in params),
            [c.to_dict() for c in space],
        ]
    )


def canonical_digest(spec: AppSpec, result: RunResult) -> str:
    """The app-family invariant a tuned config must preserve bitwise."""
    if spec.archetype == "pipeline-farm":
        items = result.values[-1]
        return value_digest(sorted(value_digest(item) for item in items))
    return value_digest(result.values)
