"""Autotuning ablation: tuned vs default makespan, prediction quality.

Each case runs one exhaustive :func:`repro.tune.search` — every
candidate measured, including the ones the closed-form pruner would
have skipped — against a throwaway catalog directory, so the artifact
records three things the tuner claims:

* the tuned configuration's measured virtual makespan never exceeds the
  default's (the search contract: the default is candidate 0 and wins
  ties);
* the ``bench/predict.py`` predictions used for pruning track the
  measured makespans (mean relative error per case) and the pruner
  never discards a would-be winner (``prune_accuracy``);
* a second search is a pure catalog hit — no candidate re-measured.

Cases pair the isotropic default (where keeping the default grid *is*
the right answer) with anisotropic domains and larger rank counts
(where a flat process grid genuinely wins), across the three modern
machine models.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

from repro.machines.catalog import MODERN_MACHINES
from repro.tune import catalog
from repro.tune.search import PRUNED, REJECTED, WINNER, SearchOutcome, search

#: (case name, app, parameter overrides) — reduced scales, same shapes
#: the test suite exercises
CASES: tuple[tuple[str, str, dict], ...] = (
    ("poisson-square", "poisson", {"nx": 32, "ny": 32, "max_iters": 3}),
    ("poisson-wide", "poisson", {"nx": 64, "ny": 16, "max_iters": 3}),
    (
        "poisson-wide-p8",
        "poisson",
        {"nprocs": 8, "nx": 64, "ny": 16, "max_iters": 3},
    ),
    ("fft2d", "fft2d", {"rows": 32, "cols": 32, "repeats": 1}),
)

MACHINES: tuple[str, ...] = tuple(m.name for m in MODERN_MACHINES)


@dataclass(frozen=True)
class TuneRow:
    """One (case, machine) exhaustive search, summarised."""

    case: str
    app: str
    machine: str
    nprocs: int
    winner: str  #: human-readable winner config
    default_measured: float  #: virtual makespan of candidate 0
    tuned_measured: float  #: virtual makespan of the winner
    predicted: float | None  #: closed-form prediction for the winner
    prediction_error: float | None  #: mean |pred-meas|/meas over candidates
    candidates: int
    pruned: int  #: candidates the non-exhaustive search would skip
    rejected: int  #: candidates rejected by the digest contract
    prune_accuracy: float | None  #: audited prunes that were correct
    cache_hit: bool  #: second search answered from the catalog

    @property
    def speedup(self) -> float:
        return (
            self.default_measured / self.tuned_measured
            if self.tuned_measured > 0
            else float("inf")
        )

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "app": self.app,
            "machine": self.machine,
            "procs": self.nprocs,
            "winner": self.winner,
            "default_measured_seconds": self.default_measured,
            "tuned_measured_seconds": self.tuned_measured,
            "speedup": self.speedup,
            "predicted_seconds": self.predicted,
            "prediction_error": self.prediction_error,
            "candidates": self.candidates,
            "pruned": self.pruned,
            "digest_rejected": self.rejected,
            "prune_accuracy": self.prune_accuracy,
            "cache_hit": self.cache_hit,
        }


def _prediction_error(outcome: SearchOutcome) -> float | None:
    errors = [
        abs(r.predicted - r.measured) / r.measured
        for r in outcome.reports
        if r.predicted is not None and r.measured is not None and r.measured > 0
    ]
    return sum(errors) / len(errors) if errors else None


def _row(case: str, app: str, overrides: dict, machine: str) -> TuneRow:
    outcome = search(app, machine, overrides=overrides, exhaustive=True)
    again = search(app, machine, overrides=overrides)
    counts = outcome.counts()
    winner_predicted = next(
        (r.predicted for r in outcome.reports if r.status == WINNER), None
    )
    return TuneRow(
        case=case,
        app=app,
        machine=machine,
        nprocs=outcome.nprocs,
        winner=outcome.entry.config.describe(),
        default_measured=outcome.entry.default_measured,
        tuned_measured=outcome.entry.measured,
        predicted=winner_predicted,
        prediction_error=_prediction_error(outcome),
        candidates=len(outcome.reports),
        pruned=counts.get(PRUNED, 0),
        rejected=counts.get(REJECTED, 0),
        prune_accuracy=outcome.prune_accuracy,
        cache_hit=again.cache_hit and not again.reports,
    )


def run_ablation(
    cases: tuple[tuple[str, str, dict], ...] = CASES,
    machines: tuple[str, ...] = MACHINES,
) -> list[TuneRow]:
    """Exhaustive tuned-vs-default searches over cases × machines."""
    rows: list[TuneRow] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-tune-") as tmp, catalog.rooted(tmp):
        for case, app, overrides in cases:
            for machine in machines:
                rows.append(_row(case, app, overrides, machine))
    return rows


def render_table(rows: list[TuneRow]) -> str:
    lines = [
        "autotuning ablation (exhaustive search; virtual makespan, seconds)",
        f"{'case':>16} {'machine':>12} {'P':>3} {'default':>11} {'tuned':>11} "
        f"{'speedup':>8} {'pred err':>8} {'pruned':>6} {'rej':>4} {'hit':>4}  winner",
    ]
    for r in rows:
        err = f"{r.prediction_error:.1%}" if r.prediction_error is not None else "-"
        lines.append(
            f"{r.case:>16} {r.machine:>12} {r.nprocs:>3} "
            f"{r.default_measured:>11.6g} {r.tuned_measured:>11.6g} "
            f"{r.speedup:>7.4f}x {err:>8} {r.pruned:>3}/{r.candidates:<2} "
            f"{r.rejected:>4} {'yes' if r.cache_hit else 'NO':>4}  {r.winner}"
        )
    return "\n".join(lines)


def check_rows(rows: list[TuneRow]) -> list[str]:
    """Gate failures — every row must honour the search contract."""
    problems = []
    for r in rows:
        if r.tuned_measured > r.default_measured:
            problems.append(
                f"{r.case}@{r.machine}: tuned makespan {r.tuned_measured:g} "
                f"exceeds default {r.default_measured:g}"
            )
        if not r.cache_hit:
            problems.append(f"{r.case}@{r.machine}: second search missed the catalog")
        if r.prune_accuracy is not None and r.prune_accuracy < 1.0:
            problems.append(
                f"{r.case}@{r.machine}: pruner discarded a winning candidate "
                f"(accuracy {r.prune_accuracy:.2f})"
            )
    return problems
