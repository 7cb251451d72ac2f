"""Wildcard-receive race detection over recorded traces.

The fuzzed backend records a :class:`~repro.trace.events.MatchEvent` for
every wildcard receive it satisfies, including the set of source ranks
whose oldest pending message could legally have matched at that moment.
When that set has more than one element, the receive is *racy*: which
message it returns depends on arrival order, i.e. on the schedule.  That
is not automatically a bug — a work-pool master taking results in any
order is racy by design — but a racy receive feeding a
schedule-dependent result is exactly how nondeterminism findings arise,
so the explorer reports both side by side.

Completion-order nondeterminism is tracked separately: a ``waitany`` /
``waitall`` over several already-fulfilled nonblocking requests picks
one completion order among many (the fuzzed backend records these as
MatchEvents with ``completion=True``).  The request layer's canonical
charging makes ``waitall`` schedule-independent regardless, so these are
informational rather than findings; :func:`scan_completion_races` lists
them for observability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.spmd import RunResult
from repro.trace.tracer import COMPLETION, MATCH, WILDCARD_SOURCE, rows


@dataclass(frozen=True)
class RaceFinding:
    """One wildcard receive observed with multiple legal matches."""

    #: seed of the fuzzed run the race was observed under
    seed: int
    #: receiving rank
    rank: int
    #: virtual time of the match decision
    clock: float
    #: tag of the message actually taken
    tag: int
    #: source rank actually taken
    chosen: int
    #: sorted distinct source ranks that could have matched
    candidates: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"seed {self.seed}: rank {self.rank} wildcard recv at t={self.clock:.6g}s "
            f"took source {self.chosen} (tag {self.tag}) but any of "
            f"{list(self.candidates)} could have matched"
        )


def _scan(result: RunResult, seed: int, flag: int) -> list[RaceFinding]:
    """Every traced match with *flag* set that had more than one
    candidate (reads the tracer's ``MATCH`` rows)."""
    if result.tracer is None:
        return []
    return [
        RaceFinding(
            seed=seed, rank=rank, clock=clock, tag=tag, chosen=source, candidates=candidates
        )
        for rank, log in enumerate(result.tracer.logs)
        for kind, clock, _, source, tag, flags, _, candidates in rows(log)
        if kind == MATCH and flags & flag and len(candidates) > 1
    ]


def scan_races(result: RunResult, seed: int) -> list[RaceFinding]:
    """Extract wildcard races from a traced (fuzzed) run.

    Returns an empty list when the run was not traced.  Only receives
    with a wildcard *source* and more than one candidate source are
    races; a wildcard tag with a single source still matches in FIFO
    order, which the schedule cannot change.
    """
    return _scan(result, seed, WILDCARD_SOURCE)


def scan_completion_races(result: RunResult, seed: int) -> list[RaceFinding]:
    """Extract completion-order choice points from a traced (fuzzed) run.

    A completion race is a ``waitany``/``waitall`` that found more than
    one fulfilled request and picked one observation order among many.
    Unlike wildcard races these cannot change ``waitall``'s virtual-time
    accounting (charging is canonicalised by arrival order), but a
    program branching on ``waitany``'s *index* is schedule-dependent in
    the same way a wildcard receive is — so the explorer surfaces them.
    """
    return _scan(result, seed, COMPLETION)
