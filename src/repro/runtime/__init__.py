"""The SPMD virtual machine.

This package simulates a distributed-memory message-passing multicomputer
inside one Python process: each *rank* runs the same program body in its
own thread with a private mailbox, and a per-rank *virtual clock* accrues
time according to a :class:`~repro.machines.MachineModel`.

Four backends are provided (registered in :mod:`repro.runtime.backends`;
select one with ``spmd_run(..., backend=...)`` or the ``REPRO_BACKEND``
environment variable):

``deterministic`` (default)
    Exactly one rank executes at a time; the scheduler always resumes the
    runnable rank furthest behind in virtual time (ties by rank id).
    Execution is fully reproducible and a blocked cycle is reported as a
    :class:`~repro.errors.DeadlockError` with per-rank diagnostics.  This
    realises the paper's "execute the archetype program sequentially"
    debugging methodology.

``fuzzed``
    The same run-to-block engine under a seeded choice policy: which rank
    resumes, which legal candidate a wildcard receive takes and which
    completion a wait observes are drawn from a seeded PRNG, so each seed
    is a distinct, reproducible legal interleaving.  A
    :class:`~repro.runtime.scheduler.FaultPlan` can additionally inject
    message delays and rank crashes.  This is the substrate of the
    :mod:`repro.verify` schedule-verification layer.

``threads``
    All ranks run concurrently as OS threads with condition-variable
    mailboxes.  Virtual clocks are computed from the same deterministic
    quantities, so deterministic programs produce identical results and
    identical virtual times under every backend (a property the test
    suite checks).
"""

from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message
from repro.runtime.context import RankContext
from repro.runtime.scheduler import FaultPlan
from repro.runtime.spmd import RunResult, fuzzed_schedule, spmd_run

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "FaultPlan",
    "Message",
    "RankContext",
    "RunResult",
    "fuzzed_schedule",
    "spmd_run",
]
