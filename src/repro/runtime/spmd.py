"""The SPMD entry point: run one function body on every rank.

``spmd_run(nprocs, fn, args=...)`` executes ``fn(comm, *args, **kwargs)``
on every rank of a virtual machine and returns a :class:`RunResult` with
the per-rank return values and virtual times.  ``comm`` is a full
:class:`repro.comm.Comm` (point-to-point plus collectives plus the
archetype communication operations).
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

from repro.errors import ReproError
from repro.machines.catalog import IDEAL
from repro.machines.model import MachineModel
from repro.obs.metrics import COUNT_BUCKETS, counter_handle, get_registry, histogram_handle
from repro.runtime import backends
from repro.runtime.context import RankContext
from repro.runtime.scheduler import Backend, FaultPlan
from repro.trace.tracer import Tracer


_ENQUEUED = counter_handle("runtime.mailbox.enqueued", help="messages delivered to mailboxes")
_MATCHED = counter_handle(
    "runtime.mailbox.matched", help="messages removed by a matching receive"
)
_POSTED = counter_handle("runtime.mailbox.posted", help="receive patterns posted (irecv)")
_DEPTH = histogram_handle(
    "runtime.mailbox.depth",
    buckets=COUNT_BUCKETS,
    help="pending-queue depth observed at each delivery",
)
_REQUESTS = counter_handle("comm.requests.posted", help="nonblocking requests posted")
_COMPLETED = counter_handle("comm.requests.completed", help="nonblocking requests completed")
_WAIT_SECONDS = histogram_handle(
    "comm.requests.wait_seconds", help="virtual time spent blocked completing a request"
)
_STEPS = counter_handle("runtime.scheduler.steps", help="run-to-block scheduling decisions")
_BLOCKS = counter_handle("runtime.scheduler.blocks", help="ranks suspended awaiting a message")


@dataclass(frozen=True)
class _ScheduleOverride:
    """Active :func:`fuzzed_schedule` directive."""

    seed: int
    faults: FaultPlan | None


_override: _ScheduleOverride | None = None


@contextlib.contextmanager
def fuzzed_schedule(seed: int, faults: FaultPlan | None = None) -> Iterator[None]:
    """Force ``backend="deterministic"`` runs inside the block onto the
    fuzzed backend: the run-to-block engine with a
    :class:`~repro.runtime.scheduler.Seeded` policy of *seed* (and
    *faults*, when given).

    This is how existing programs and tests are promoted to schedule
    fuzzing without changing their call sites: any :func:`spmd_run` (or
    :meth:`Archetype.run <repro.core.archetype.Archetype.run>` in
    sequential mode) executed under the context manager explores the
    seed's interleaving instead of the canonical one.  Runs that
    explicitly request ``backend="threads"`` or ``backend="fuzzed"`` are
    left alone.  Not reentrant and not thread-safe at the driver level —
    one exploration at a time.
    """
    global _override
    previous = _override
    _override = _ScheduleOverride(seed, faults)
    try:
        yield
    finally:
        _override = previous


@dataclass
class RunResult:
    """Outcome of an SPMD run.

    Attributes
    ----------
    values:
        Per-rank return values of the program body, indexed by rank.
    times:
        Per-rank final virtual clocks (seconds on the modelled machine).
    machine:
        The machine model the run was charged against.
    tracer:
        Event trace when tracing was requested, else ``None``.
    """

    values: list[Any]
    times: list[float]
    machine: MachineModel
    tracer: Tracer | None = field(default=None, repr=False)
    #: for fuzzed runs, the seeded policy's (rank, clock) pick log —
    #: identical across runs with the same seed (else ``None``)
    schedule: list[tuple[int, float]] | None = field(default=None, repr=False)
    #: canonical name of the backend that produced this result
    backend: str = "deterministic"

    @property
    def nprocs(self) -> int:
        return len(self.values)

    @property
    def elapsed(self) -> float:
        """Virtual makespan: the slowest rank's final clock."""
        return max(self.times, default=0.0)

    def speedup_over(self, sequential_time: float) -> float:
        """Speedup of this run relative to a sequential virtual time."""
        if self.elapsed <= 0:
            raise ReproError("run has zero elapsed virtual time")
        return sequential_time / self.elapsed


def publish_run(engine: Backend, contexts: Sequence[RankContext]) -> None:
    """Land one run's per-message and per-operation tallies in the
    current registry.

    While a run is live, no message touches the metrics registry: each
    rank counts on its endpoint (requests posted, one wait sample per
    completion, and the ``tallies`` and ``samples`` of the reductions,
    redistributions, mesh ops, one-deep phases, the par-loop layer, the
    pipeline and the process engine's payload transport), on its mailbox (deliveries, matches, posts,
    depth samples) and the engine counts its scheduling steps and blocks.
    This sums those partials once, when the run ends — for the
    in-process engines from :func:`spmd_run`, and in every process-engine
    worker, over its one rank, before it ships its snapshot.  Every
    tally lands through the registry's own instrument, keyed by its
    :class:`~repro.obs.metrics.Metric` declaration.  An instrument
    appears only once something was recorded in it.
    """
    mailboxes = [mailbox.tally() for mailbox in engine.mailboxes]
    endpoints = [context._endpoint for context in contexts]
    tallies = {
        _ENQUEUED: sum(t[0] for t in mailboxes),
        _MATCHED: sum(t[1] for t in mailboxes),
        _POSTED: sum(t[2] for t in mailboxes),
        _REQUESTS: sum(ep.next_req for ep in endpoints),
        _COMPLETED: sum(len(ep.waits) for ep in endpoints),
        _STEPS: engine.steps,
        _BLOCKS: engine.blocks,
    }
    samples = {
        _DEPTH: list(chain.from_iterable(t[3] for t in mailboxes)),
        _WAIT_SECONDS: list(chain.from_iterable(ep.waits for ep in endpoints)),
    }
    for endpoint in endpoints:
        for metric, value in endpoint.tallies.items():
            tallies[metric] = tallies.get(metric, 0) + value
        for metric, values in endpoint.samples.items():
            samples.setdefault(metric, []).extend(values)
    registry = get_registry()
    for metric, value in tallies.items():
        if value:
            registry.instrument(metric).inc(value)
    for metric, values in samples.items():
        if values:
            registry.instrument(metric).observe_many(values)


def spmd_run(
    nprocs: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: Mapping[str, Any] | None = None,
    machine: MachineModel = IDEAL,
    backend: str | None = None,
    trace: bool = False,
    deadlock_timeout: float = 30.0,
    seed: int = 0,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Run ``fn(comm, *args, **kwargs)`` on *nprocs* ranks.

    Parameters
    ----------
    nprocs:
        Number of ranks (>= 1).
    fn:
        The program body.  Its first argument is the rank's
        :class:`repro.comm.Comm`; remaining arguments are shared by all
        ranks (treat them as read-only: ranks live in one address space
        here, whereas the modelled machine has distributed memory).
    machine:
        Performance model used to charge virtual time (default: the
        cost-free ``IDEAL`` machine).
    backend:
        A name registered in :mod:`repro.runtime.backends`:
        ``"deterministic"`` (reproducible run-to-block scheduling),
        ``"fuzzed"`` (the same engine with a seeded choice policy — see
        :class:`~repro.runtime.scheduler.Seeded`), ``"threads"``
        (free-running OS threads), or ``"parallel"`` (one OS process per
        rank — :mod:`repro.runtime.parallel`).  ``None`` (the default)
        resolves the ``REPRO_BACKEND`` environment variable, falling back
        to deterministic.
    trace:
        When true, record per-rank event traces on ``RunResult.tracer``.
    deadlock_timeout:
        For the threaded and parallel backends, seconds a receive may
        starve (parallel: seconds of global no-progress with every rank
        blocked) before the run is declared deadlocked.
    seed, faults:
        Fuzzed-backend knobs (ignored by the other backends): the
        :class:`~repro.runtime.scheduler.Seeded` policy's seed selecting
        the interleaving and an optional
        :class:`~repro.runtime.scheduler.FaultPlan` to inject.

    A surrounding :func:`fuzzed_schedule` context overrides
    ``backend="deterministic"`` requests onto the fuzzed backend.
    """
    if nprocs < 1:
        raise ReproError(f"nprocs must be >= 1, got {nprocs}")
    if nprocs > machine.max_nodes:
        raise ReproError(
            f"machine {machine.name!r} has at most {machine.max_nodes} nodes; "
            f"requested {nprocs}"
        )
    backend = backends.resolve(backend)
    if backend == "deterministic" and _override is not None:
        backend = "fuzzed"
        seed = _override.seed
        faults = _override.faults

    if not backends.get(backend).in_process:
        from repro.runtime.parallel import run_parallel

        return run_parallel(
            nprocs,
            fn,
            args=args,
            kwargs=kwargs,
            machine=machine,
            trace=trace,
            deadlock_timeout=deadlock_timeout,
        )

    # Imported here (not at module top) to keep the layering acyclic:
    # repro.comm builds on repro.runtime primitives, while this entry
    # point hands applications the full communicator.
    from repro.comm.communicator import Comm

    engine = backends.create(
        backend,
        nprocs,
        seed=seed,
        faults=faults,
        deadlock_timeout=deadlock_timeout,
    )

    tracer = Tracer(nprocs) if trace else None
    engine.tracer = tracer
    comms = [
        Comm(rank=rank, size=nprocs, backend=engine, machine=machine, tracer=tracer)
        for rank in range(nprocs)
    ]
    endpoints = [comm._endpoint for comm in comms]
    engine.set_clock_source(lambda rank: endpoints[rank].clock)
    values: list[Any] = [None] * nprocs
    kwargs = dict(kwargs or {})

    def make_body(rank: int) -> Callable[[], None]:
        def body() -> None:
            values[rank] = fn(comms[rank], *args, **kwargs)

        return body

    try:
        engine.run([make_body(rank) for rank in range(nprocs)])
    finally:
        publish_run(engine, comms)
    return RunResult(
        values=values,
        times=[c.clock for c in comms],
        machine=machine,
        tracer=tracer,
        schedule=None if engine.schedule is None else list(engine.schedule),
        backend=backend,
    )
