"""Run a program over many schedules and compare results to the baseline.

:class:`ScheduleExplorer` wraps a zero-argument *program* callable that
performs one deterministic run and returns its
:class:`~repro.runtime.spmd.RunResult` (any other return value is
digested whole).  ``explore(seeds)`` executes the program once per seed
under :func:`~repro.runtime.spmd.fuzzed_schedule` and reports:

- **nondeterminism findings** — a rank whose result digest differs from
  the deterministic baseline, with the offending seed for replay;
- **failure findings** — a seed under which the program raised where the
  baseline did not (e.g. a schedule-dependent deadlock);
- **wildcard races** — receives where several sources could legally have
  matched (informational unless paired with a divergence).

``replay(seed)`` re-runs one seed exactly — same scheduling decisions,
same digests, byte-identical traces — which is the debugging entry point
once a finding names a seed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.machines.catalog import IDEAL
from repro.machines.model import MachineModel
from repro.runtime.scheduler import FaultPlan
from repro.runtime.spmd import RunResult, fuzzed_schedule, spmd_run
from repro.verify.digest import value_digest
from repro.verify.races import RaceFinding, scan_completion_races, scan_races


@dataclass(frozen=True)
class NondeterminismFinding:
    """A rank's result diverged from the deterministic baseline."""

    seed: int
    rank: int
    baseline_digest: str
    digest: str

    def describe(self) -> str:
        return (
            f"seed {self.seed}: rank {self.rank} result digest "
            f"{self.digest[:12]}… != baseline {self.baseline_digest[:12]}… "
            f"(replay with ScheduleExplorer.replay({self.seed}))"
        )


@dataclass(frozen=True)
class FailureFinding:
    """A seed raised where the deterministic baseline succeeded."""

    seed: int
    error: str

    def describe(self) -> str:
        return f"seed {self.seed}: run failed with {self.error}"


@dataclass
class ExplorationReport:
    """Outcome of one :meth:`ScheduleExplorer.explore` sweep."""

    seeds: list[int]
    baseline_digests: list[str]
    findings: list[NondeterminismFinding] = field(default_factory=list)
    failures: list[FailureFinding] = field(default_factory=list)
    races: list[RaceFinding] = field(default_factory=list)
    #: waitany/waitall completion-order choice points (informational —
    #: canonical charging keeps waitall schedule-independent regardless)
    completion_races: list[RaceFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every seed reproduced the baseline digests exactly."""
        return not self.findings and not self.failures

    def summary(self) -> str:
        lines = [
            f"explored {len(self.seeds)} seeds over {len(self.baseline_digests)} ranks: "
            + ("no nondeterminism" if self.ok else "DIVERGENCE DETECTED")
        ]
        lines.extend(f.describe() for f in self.findings)
        lines.extend(f.describe() for f in self.failures)
        if self.races:
            distinct = {(r.rank, r.tag, r.candidates) for r in self.races}
            lines.append(
                f"{len(self.races)} wildcard-race observation(s) at "
                f"{len(distinct)} distinct receive site(s):"
            )
            seen: set[tuple] = set()
            for r in self.races:
                key = (r.rank, r.tag, r.candidates)
                if key not in seen:
                    seen.add(key)
                    lines.append("  " + r.describe())
        if self.completion_races:
            distinct = {(r.rank, r.tag, r.candidates) for r in self.completion_races}
            lines.append(
                f"{len(self.completion_races)} completion-order observation(s) at "
                f"{len(distinct)} distinct wait site(s) (informational)"
            )
        return "\n".join(lines)


class ScheduleExplorer:
    """Explore a program's schedule space from a fixed entry point.

    Parameters
    ----------
    program:
        Zero-argument callable performing one run with the default
        (deterministic) backend and returning its result — typically a
        closure over :func:`~repro.runtime.spmd.spmd_run` or an
        :meth:`Archetype.run <repro.core.archetype.Archetype.run>` call.
        If it returns a :class:`~repro.runtime.spmd.RunResult`, digests
        are computed per rank; any other value is digested as one unit.
    faults:
        Optional :class:`~repro.runtime.scheduler.FaultPlan` applied to
        every fuzzed run (never to the baseline).
    """

    def __init__(self, program: Callable[[], Any], faults: FaultPlan | None = None):
        self._program = program
        self.faults = faults
        self._baseline: Any = None
        self._have_baseline = False

    @classmethod
    def for_body(
        cls,
        nprocs: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Mapping[str, Any] | None = None,
        machine: MachineModel = IDEAL,
        trace: bool = True,
        **options: Any,
    ) -> "ScheduleExplorer":
        """Explorer over a plain SPMD body ``fn(comm, *args, **kwargs)``.

        Tracing defaults on so fuzzed runs feed the race detector.
        """

        def program() -> RunResult:
            return spmd_run(
                nprocs, fn, args=args, kwargs=kwargs, machine=machine, trace=trace
            )

        return cls(program, **options)

    # -- execution ---------------------------------------------------------
    def baseline(self) -> Any:
        """The deterministic run's result (cached after the first call)."""
        if not self._have_baseline:
            self._baseline = self._program()
            self._have_baseline = True
        return self._baseline

    def run_seed(self, seed: int) -> Any:
        """One fuzzed run under *seed* (exactly reproducible)."""
        with fuzzed_schedule(seed, faults=self.faults):
            return self._program()

    def replay(self, seed: int) -> Any:
        """Alias of :meth:`run_seed`, named for the debugging workflow:
        take the seed from a finding and re-run it under a debugger or
        with tracing to inspect the exact divergent interleaving."""
        return self.run_seed(seed)

    # -- analysis ----------------------------------------------------------
    @staticmethod
    def digests(result: Any) -> list[str]:
        """Per-rank digests of a run result (single digest otherwise)."""
        if isinstance(result, RunResult):
            return [value_digest(v) for v in result.values]
        return [value_digest(result)]

    def explore(self, seeds: int | Iterable[int] = 16) -> ExplorationReport:
        """Run the program under each seed and diff against the baseline.

        *seeds* is either a count (seeds ``0..N-1``) or an explicit
        iterable of seeds.  A fuzzed run that raises a
        :class:`~repro.errors.ReproError` (deadlock, rank failure) where
        the baseline succeeded is reported as a failure finding rather
        than propagated — the seed is the reproducer.
        """
        seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
        baseline_digests = self.digests(self.baseline())
        report = ExplorationReport(seeds=seed_list, baseline_digests=baseline_digests)
        for seed in seed_list:
            try:
                result = self.run_seed(seed)
            except ReproError as exc:
                report.failures.append(FailureFinding(seed=seed, error=repr(exc)))
                continue
            for rank, (base, got) in enumerate(
                zip(baseline_digests, self.digests(result))
            ):
                if base != got:
                    report.findings.append(
                        NondeterminismFinding(
                            seed=seed, rank=rank, baseline_digest=base, digest=got
                        )
                    )
            if isinstance(result, RunResult):
                report.races.extend(scan_races(result, seed))
                report.completion_races.extend(scan_completion_races(result, seed))
        return report
