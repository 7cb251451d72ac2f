"""The search driver: predict, prune, measure, rank, persist.

``search(app, machine)`` enumerates the app's candidate space, prunes
it with the app's own closed-form model
(:meth:`~repro.apps.registry.AppSpec.predict`), measures the survivors'
*virtual* makespans, and persists the winner to the catalog.  Three properties
make the loop trustworthy:

* **Reproducible rankings.**  Candidates are ranked by simulated time,
  which the cross-backend identity contract makes bit-for-bit equal on
  every backend — so ``mode="parallel"`` buys real multi-core wall-clock
  for the search itself without perturbing a single ranking, and ties
  break by candidate order (default first).
* **A correctness contract.**  A candidate is admissible only if its
  canonical result digest is bitwise-equal to the default
  configuration's.  This is what keeps e.g. FDTD's partition-sensitive
  SUM reduction out of trouble: its proc-grid candidates are measured,
  found digest-divergent, and rejected (counted by
  ``core.tune.digest_rejects``).
* **Hit-don't-rerun.**  The winning entry stores a signature of the
  searched space; a later search over an unchanged space returns the
  stored entry without measuring anything.

Each measurement passes its candidate as ``AppSpec.run(tuned=...)``,
which never consults the catalog, so a stored winner can never
contaminate the baseline it is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.apps import registry
from repro.machines.catalog import get_machine
from repro.machines.model import MachineModel
from repro.obs.metrics import counter_handle, gauge_handle
from repro.tune import catalog
from repro.tune.catalog import TunedConfig, TunedEntry
from repro.tune.space import build_space, canonical_digest, space_signature

_GENERATED = counter_handle(
    "core.tune.candidates_generated", help="candidate configs enumerated"
)
_PRUNED = counter_handle(
    "core.tune.candidates_pruned", help="candidates discarded by the cost model"
)
_MEASURED = counter_handle(
    "core.tune.candidates_measured", help="candidates measured on the simulator"
)
_REJECTS = counter_handle(
    "core.tune.digest_rejects", help="candidates rejected for digest divergence"
)
_ACCURACY = gauge_handle(
    "core.tune.prune_accuracy",
    help="fraction of pruned candidates verified no better than the winner "
    "(exhaustive searches only)",
)

#: candidate dispositions, in the order they are decided
PRUNED, MEASURED, REJECTED, WINNER = "pruned", "measured", "digest-reject", "winner"

#: survivors are candidates predicted within this factor of the best
#: prediction — wide enough to absorb the skew/wait effects the closed
#: forms ignore (the test suite holds model-vs-simulator agreement to
#: ~10%), tight enough to discard clearly-lost grid shapes
PRUNE_SLACK = 1.15


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


@dataclass(frozen=True)
class CandidateReport:
    """One candidate's fate in a search."""

    config: TunedConfig
    predicted: float | None
    measured: float | None
    status: str


@dataclass(frozen=True)
class SearchOutcome:
    """Everything a caller (CLI, bench, tests) needs about one search."""

    app: str
    machine: str
    nprocs: int
    entry: TunedEntry
    #: True when the persisted catalog answered without re-measuring
    cache_hit: bool
    reports: tuple[CandidateReport, ...]
    #: pruned-correctly fraction; None unless the search was exhaustive
    prune_accuracy: float | None

    @property
    def speedup(self) -> float:
        """default makespan / tuned makespan (>= 1.0 by construction)."""
        return self.entry.default_measured / self.entry.measured

    def counts(self) -> dict[str, int]:
        out = {"generated": len(self.reports), "pruned": 0, "measured": 0, "rejected": 0}
        for r in self.reports:
            if r.status == PRUNED:
                out["pruned"] += 1
            elif r.status == REJECTED:
                out["rejected"] += 1
            else:
                out["measured"] += 1
        return out


def _measure(
    spec: registry.AppSpec,
    params: Mapping[str, Any],
    machine: MachineModel,
    config: TunedConfig,
    mode: str,
) -> tuple[float, str]:
    """(virtual makespan, canonical digest) of one candidate run."""
    result = spec.run(
        {**params, **config.params}, machine=machine, mode=mode, tuned=config
    )
    return result.elapsed, canonical_digest(spec, result)


def search(
    app: str,
    machine: MachineModel | str,
    *,
    nprocs: int | None = None,
    overrides: Mapping[str, Any] | None = None,
    mode: str = "sequential",
    exhaustive: bool = False,
    force: bool = False,
) -> SearchOutcome:
    """Tune *app* for *machine* and persist the winner.

    ``mode="parallel"`` runs each measurement on the multi-process
    backend (same virtual clocks, real wall-clock speedup);
    ``exhaustive=True`` measures pruned candidates too and scores the
    pruner (``core.tune.prune_accuracy``); ``force=True`` re-measures
    even when the catalog already answers the search.
    """
    spec = registry.get(app)
    if isinstance(machine, str):
        machine = get_machine(machine)
    merged_overrides = dict(overrides or {})
    if nprocs is not None and "nprocs" in spec.defaults:
        merged_overrides["nprocs"] = nprocs
    params = spec.params_with(merged_overrides)
    key_nprocs = int(params.get("nprocs", 0))

    space = build_space(spec, params)
    signature = space_signature(catalog.SCHEMA_VERSION, spec, params, space)

    existing = catalog.lookup(spec.name, machine.name, key_nprocs)
    if existing is not None and existing.space_signature == signature and not force:
        return SearchOutcome(
            app=spec.name,
            machine=machine.name,
            nprocs=key_nprocs,
            entry=existing,
            cache_hit=True,
            reports=(),
            prune_accuracy=None,
        )

    _GENERATED.inc(len(space))
    # Apps without a model predict None and are never pruned: the search
    # measures them all, the honest fallback when no closed form exists.
    predictions = [
        spec.predict({**params, **c.params}, machine, c.proc_grid) for c in space
    ]
    keep = prune(predictions)
    _PRUNED.inc(keep.count(False))

    default_measured, default_digest = _measure(spec, params, machine, space[0], mode)
    _MEASURED.inc()

    reports: list[CandidateReport] = [
        CandidateReport(space[0], predictions[0], default_measured, MEASURED)
    ]
    best_idx, best_measured = 0, default_measured
    audited: list[tuple[float, str]] = []  # exhaustive-mode pruned candidates
    for i in range(1, len(space)):
        if not keep[i] and not exhaustive:
            reports.append(CandidateReport(space[i], predictions[i], None, PRUNED))
            continue
        measured, digest = _measure(spec, params, machine, space[i], mode)
        _MEASURED.inc()
        if digest != default_digest:
            _REJECTS.inc()
            status = REJECTED
        elif not keep[i]:
            # exhaustive-mode audit of a pruned candidate: score the
            # pruner, but never let a pruned candidate win
            status = PRUNED
        else:
            status = MEASURED
            if measured < best_measured:
                best_idx, best_measured = i, measured
        if not keep[i]:
            audited.append((measured, status))
        reports.append(CandidateReport(space[i], predictions[i], measured, status))

    accuracy = None
    if exhaustive and audited:
        # A prune was correct if the discarded candidate could not have
        # won: measured no better than the final winner, or inadmissible.
        ok = sum(1 for m, s in audited if s == REJECTED or m >= best_measured)
        accuracy = ok / len(audited)
        _ACCURACY.set(accuracy)

    reports[best_idx] = CandidateReport(
        space[best_idx], predictions[best_idx], best_measured, WINNER
    )
    entry = TunedEntry(
        config=space[best_idx],
        predicted=predictions[best_idx],
        measured=best_measured,
        default_measured=default_measured,
        digest=default_digest,
        space_signature=signature,
    )
    catalog.store(spec.name, machine.name, key_nprocs, entry)
    return SearchOutcome(
        app=spec.name,
        machine=machine.name,
        nprocs=key_nprocs,
        entry=entry,
        cache_hit=False,
        reports=tuple(reports),
        prune_accuracy=accuracy,
    )
