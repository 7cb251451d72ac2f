"""Schedule-space verification of archetype programs.

The paper's central claim is that the archetype fixes the communication
structure, so application code is correct under *any* legal interleaving
of the ranks.  This package checks that claim instead of assuming it:

- :class:`~repro.verify.explorer.ScheduleExplorer` runs a program under
  many seeded-PRNG schedules (the run-to-block engine with a
  :class:`~repro.runtime.scheduler.Seeded` choice policy) and compares per-rank
  result digests against the deterministic baseline; any divergence is a
  *nondeterminism finding* carrying the seed that reproduces it;
- :func:`~repro.verify.races.scan_races` flags wildcard receives where
  more than one source could legally have matched (schedule-dependent
  matching), from the trace layer's
  :class:`~repro.trace.events.MatchEvent` records;
- :class:`~repro.runtime.scheduler.FaultPlan` injects message
  delay/reordering and rank crashes, for asserting that
  :class:`~repro.errors.DeadlockError` / :class:`~repro.errors.RankFailedError`
  reporting stays precise under adversarial conditions;
- :func:`~repro.runtime.spmd.fuzzed_schedule` promotes any existing
  deterministic run (including the pytest suite, via the ``chaos``
  marker) to a fuzzed one without touching its call sites.

``python -m repro.verify --smoke`` runs a fast end-to-end check; see
``docs/verification.md`` for the workflow.
"""

from repro.runtime.scheduler import FaultPlan
from repro.runtime.spmd import fuzzed_schedule
from repro.verify.digest import value_digest
from repro.verify.explorer import (
    ExplorationReport,
    NondeterminismFinding,
    ScheduleExplorer,
)
from repro.verify.races import RaceFinding, scan_completion_races, scan_races

__all__ = [
    "FaultPlan",
    "fuzzed_schedule",
    "value_digest",
    "ScheduleExplorer",
    "ExplorationReport",
    "NondeterminismFinding",
    "RaceFinding",
    "scan_completion_races",
    "scan_races",
]
