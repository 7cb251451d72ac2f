"""The pipeline/farm archetype: staged streaming with bounded credit windows.

The third archetype of the library (ROADMAP "new archetypes"), following
the FastFlow skeleton shape — an *emitter* streams items into an ordered
list of *stages*, each stage optionally replicated into a *farm* of
workers, and a *collector* gathers the results — combined with the
state-access taxonomy of Danelutto & Torquati ("State access patterns in
embarrassingly parallel computations"): every stage declares how its
per-stage state is accessed (:class:`StateAccess`), and the skeleton
enforces the declared discipline.

Computational pattern
---------------------
A stream of items ``0 .. N-1`` flows through ``nstages`` stages.  Stage
``s`` with ``w_s`` workers processes item ``k`` on worker ``k mod w_s``
(deterministic round-robin ownership), so the mapping of items to
workers — and therefore every message's source, destination, and payload
— is a pure function of the stream and the stage widths, independent of
scheduling.  Each stage transforms one item into exactly one output item
(the mapping is 1:1; filtering/expansion would decouple the index
spaces).

Rank layout: rank 0 is the emitter, the next ``sum(w_s)`` ranks are the
stage workers in stage order, and the last rank is the collector —
``nprocs == 2 + sum(w_s)`` (see :attr:`PipelineArchetype.nprocs`).

Back-pressure
-------------
Every producer→consumer link carries a bounded *credit window*: a
producer may have at most ``window`` unacknowledged items in flight to
any single consumer.  The consumer returns one credit (an empty message)
after fully processing each item; a producer whose window is exhausted
blocks on that credit *by receiving from the specific consumer*, so the
wait is an ordinary specific-source receive charged canonically on the
virtual clock — back-pressure stalls are modelled time, identical on
every backend, and mailbox depth stays bounded by the window instead of
growing with the stream (asserted via the ``runtime.mailbox.depth``
metric in the tests).

End-of-stream
-------------
After its last item, a producer sends one EOS marker to *every* consumer
of its output link.  Because items are owned round-robin by global
index, a consumer that sees EOS where it expected its next item knows
the whole stream has ended (the item it was waiting for would have been
sent, before EOS, by exactly that producer); it then drains the
remaining producers' EOS markers and shuts down, forwarding EOS
downstream.  Producers finally drain their outstanding credits so no
message is left undelivered.

Determinism contract
--------------------
With ordered collection every receive names its source and the receive
order is a pure function of the stream, so per-rank results *and* final
virtual clocks are bitwise identical across the deterministic, fuzzed,
threaded, and process-parallel backends — the same contract the other
archetypes honour, checked by ``tests/test_archetype_contract.py`` and
``python -m repro.verify --cross-backend``.  Unordered collection uses a
wildcard receive at the collector only: the collected *multiset* is
schedule-independent but its order (and the collector's clock) is not,
exactly like any wildcard receive.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ArchetypeError
from repro.comm.communicator import MAX_USER_TAG, Comm
from repro.core.archetype import Archetype
from repro.obs.metrics import TIME_BUCKETS, counter_handle, histogram_handle
from repro.runtime.message import ANY_SOURCE
from repro.runtime.spmd import RunResult

#: data messages entering stage ``s`` use tag ``_TAG_DATA_BASE + s``
_TAG_DATA_BASE = 500_000
#: credits returned by the consumers of stage ``s`` use this base
_TAG_CREDIT_BASE = 600_000
assert _TAG_CREDIT_BASE < MAX_USER_TAG

_ITEMS = counter_handle(
    "core.pipeline.items", help="items processed by pipeline stage workers"
)
_CREDIT_WAITS = counter_handle(
    "core.pipeline.credit_waits",
    help="sends that blocked on an exhausted credit window",
)
_STAGE_SECONDS = histogram_handle(
    "core.pipeline.stage_seconds",
    buckets=TIME_BUCKETS,
    help="per-worker virtual time from first receive to shutdown",
)


class StateAccess(str, enum.Enum):
    """How a stage's workers access the stage state (Danelutto/Torquati).

    - ``SERIAL``: one logical state updated by consecutive items; the
      stage cannot be farmed (``workers == 1`` is enforced), and items
      are processed strictly in stream order.
    - ``PARTITIONED``: each worker owns a private partition of the
      state, initialised per worker; items only touch their owner's
      partition (the round-robin ownership *is* the partitioning).
    - ``READONLY``: state is immutable after initialisation; the
      callback must return the output item only, and replication across
      workers is free.
    - ``ACCUMULATOR``: each worker folds items into a private
      accumulator; the per-worker finals are combined with the stage's
      ``combine`` in canonical worker order.  For the combined result to
      be width-independent the operation must be associative and
      commutative — that is the application's promise, and the property
      tests fuzz it.
    """

    SERIAL = "serial"
    PARTITIONED = "partitioned"
    READONLY = "readonly"
    ACCUMULATOR = "accumulator"


@dataclass
class Stage:
    """One pipeline stage.

    Parameters
    ----------
    name:
        Unique stage name (diagnostics, report lookup).
    fn:
        The per-item callback, pure sequential code.  Signature depends
        on the state mode: ``fn(ctx, item, state) -> out`` for
        ``READONLY``; ``fn(ctx, item, state) -> (out, new_state)`` for
        ``SERIAL``/``PARTITIONED``/``ACCUMULATOR``.  ``ctx`` is a
        :class:`StageContext` (virtual-clock charging, identity).
    state_access:
        The declared :class:`StateAccess` mode.
    workers:
        Farm width (1 = a plain stage; see :class:`FarmStage`).
    init_state:
        ``init_state(worker) -> state`` — per-worker initial state
        (``None`` ⇒ state starts as ``None``).
    combine:
        ``combine(a, b) -> merged`` — required for ``ACCUMULATOR``
        stages; merges per-worker finals in worker order.
    work_cost:
        Analytic flops charged per item before the callback runs: a
        constant, or ``work_cost(item) -> flops``.
    window:
        Per-stage credit-window override for this stage's *input* link
        (``None`` ⇒ the pipeline default).
    """

    name: str
    fn: Callable[..., Any]
    state_access: StateAccess | str = StateAccess.READONLY
    workers: int = 1
    init_state: Callable[[int], Any] | None = None
    combine: Callable[[Any, Any], Any] | None = None
    work_cost: float | Callable[[Any], float] | None = None
    window: int | None = None

    def __post_init__(self) -> None:
        self.state_access = StateAccess(self.state_access)


@dataclass
class FarmStage(Stage):
    """A worker-replicated stage: a :class:`Stage` whose ``workers``
    defaults to more than one.  Purely declarative sugar — any stage
    with ``workers > 1`` is a farm."""

    workers: int = 2


@dataclass
class StageReport:
    """A stage worker's return value: what it did and its final state."""

    stage: str
    worker: int
    processed: int
    state: Any


class StageContext:
    """What a stage callback sees of the machine: identity plus the
    virtual clock.  Duck-type-compatible with the ``charge`` surface of
    :class:`~repro.comm.communicator.Comm`, so sequential solvers written
    against a communicator (e.g. the branch-and-bound local search) run
    unchanged inside a stage."""

    __slots__ = ("stage", "worker", "_comm")

    def __init__(self, stage: str, worker: int, comm: Comm):
        self.stage = stage
        self.worker = worker
        self._comm = comm

    @property
    def rank(self) -> int:
        return self._comm.rank

    @property
    def clock(self) -> float:
        """This worker's virtual time, in seconds."""
        return self._comm.clock

    def charge(
        self, flops: float, label: str = "", working_set_bytes: float | None = None
    ) -> None:
        """Account *flops* of stage work to the worker's virtual clock."""
        self._comm.charge(
            flops, label=label or f"pipeline:{self.stage}",
            working_set_bytes=working_set_bytes,
        )


class _Downstream:
    """A producer's credit-window bookkeeping for one output link.

    ``push`` routes item *k* to its owner and blocks on a credit from
    that specific consumer when the window is exhausted; ``close`` sends
    EOS to every consumer and then drains the credits still in flight,
    so a finished run leaves no message undelivered.
    """

    __slots__ = ("comm", "ranks", "width", "window", "outstanding", "tag_data", "tag_credit")

    def __init__(self, comm: Comm, ranks: list[int], window: int):
        self.comm = comm
        self.ranks = ranks
        self.width = len(ranks)
        self.window = window
        self.outstanding = [0] * self.width
        # consumers of link s receive data on tag base+s and return
        # credits on the matching credit tag; both are functions of the
        # consumer stage, recovered from the rank list by the caller
        self.tag_data = 0
        self.tag_credit = 0

    def push(self, k: int, value: Any) -> None:
        w = k % self.width
        dest = self.ranks[w]
        if self.outstanding[w] >= self.window:
            self.comm.tallies[_CREDIT_WAITS] += 1
            self.comm.recv(source=dest, tag=self.tag_credit)
            self.outstanding[w] -= 1
        self.comm.send(dest, ("item", value), tag=self.tag_data)
        self.outstanding[w] += 1

    def close(self) -> None:
        for dest in self.ranks:
            self.comm.send(dest, ("eos", None), tag=self.tag_data)
        for w, dest in enumerate(self.ranks):
            for _ in range(self.outstanding[w]):
                self.comm.recv(source=dest, tag=self.tag_credit)
            self.outstanding[w] = 0


class _Upstream:
    """A consumer's deterministic receive schedule for one input link.

    The consumer owns items ``k ≡ worker (mod width)``; for each owned
    item the producer is ``k mod producer_width``, so every receive
    names its source.  ``pull`` returns ``(k, value)`` or ``None`` at
    end of stream (after draining every producer's EOS); ``ack``
    returns one credit to the producer of item *k*.
    """

    __slots__ = ("comm", "ranks", "width", "k", "step", "tag_data", "tag_credit")

    def __init__(
        self, comm: Comm, ranks: list[int], worker: int, step: int,
        tag_data: int, tag_credit: int,
    ):
        self.comm = comm
        self.ranks = ranks
        self.width = len(ranks)
        self.k = worker
        self.step = step
        self.tag_data = tag_data
        self.tag_credit = tag_credit

    def pull(self) -> tuple[int, Any] | None:
        src = self.ranks[self.k % self.width]
        kind, value = self.comm.recv(source=src, tag=self.tag_data)
        if kind == "eos":
            # The stream ended before this consumer's next item: every
            # producer is out of items for it (items are owned by global
            # index), so the others' EOS markers are next in their FIFO
            # channels.  Drain them in rank order — deterministic.
            for other in self.ranks:
                if other != src:
                    okind, _ = self.comm.recv(source=other, tag=self.tag_data)
                    if okind != "eos":  # pragma: no cover - protocol invariant
                        raise ArchetypeError(
                            f"pipeline protocol violation: expected EOS from "
                            f"rank {other}, got {okind!r}"
                        )
            return None
        k, self.k = self.k, self.k + self.step
        return k, value

    def ack(self, k: int) -> None:
        self.comm.send(self.ranks[k % self.width], None, tag=self.tag_credit)


class PipelineArchetype(Archetype):
    """The pipeline/farm skeleton.

    Parameters
    ----------
    stages:
        Ordered :class:`Stage`/:class:`FarmStage` list (at least one).
    window:
        Default credit window per producer→consumer link (≥ 1).  Small
        windows bound memory and propagate back-pressure promptly; large
        windows decouple stages at the price of buffering.  Stages can
        override their input link's window individually.
    ordered:
        Collection mode: ``True`` (default) delivers the collector's
        output list in stream order with fully deterministic receives;
        ``False`` collects in completion order via a wildcard receive
        (multiset-deterministic only — see the module docstring).
    emit_cost:
        Analytic flops charged by the emitter per item (constant or
        ``emit_cost(item)``), e.g. decode/IO work.
    collect_cost:
        Analytic flops charged by the collector per item.

    ``run(pipeline.nprocs, items)`` executes the stream; see
    :meth:`output`, :meth:`reports`, and :meth:`accumulated_state` for
    pulling results out of the :class:`~repro.runtime.spmd.RunResult`.
    """

    name = "pipeline-farm"

    def __init__(
        self,
        stages: Sequence[Stage],
        window: int = 4,
        ordered: bool = True,
        emit_cost: float | Callable[[Any], float] | None = None,
        collect_cost: float | Callable[[Any], float] | None = None,
    ):
        stages = list(stages)
        if not stages:
            raise ArchetypeError("a pipeline needs at least one stage")
        if window < 1:
            raise ArchetypeError(f"credit window must be >= 1, got {window}")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ArchetypeError(f"stage names must be unique, got {names}")
        for stage in stages:
            if stage.workers < 1:
                raise ArchetypeError(
                    f"stage {stage.name!r}: workers must be >= 1, got {stage.workers}"
                )
            if stage.state_access is StateAccess.SERIAL and stage.workers != 1:
                raise ArchetypeError(
                    f"stage {stage.name!r}: serial state cannot be farmed "
                    f"(workers={stage.workers}); use partitioned or accumulator "
                    "state, or workers=1"
                )
            if stage.state_access is StateAccess.ACCUMULATOR and stage.combine is None:
                raise ArchetypeError(
                    f"stage {stage.name!r}: accumulator state requires a "
                    "combine(a, b) operation"
                )
            if stage.window is not None and stage.window < 1:
                raise ArchetypeError(
                    f"stage {stage.name!r}: window must be >= 1, got {stage.window}"
                )
        self.stages = stages
        self.window = window
        self.ordered = ordered
        self.emit_cost = emit_cost
        self.collect_cost = collect_cost
        widths = [stage.workers for stage in stages]
        bases = []
        base = 1
        for w in widths:
            bases.append(base)
            base += w
        self._widths = widths
        self._bases = bases

    # -- geometry -----------------------------------------------------------
    @property
    def nstages(self) -> int:
        return len(self.stages)

    @property
    def nprocs(self) -> int:
        """Ranks this pipeline occupies: emitter + workers + collector."""
        return 2 + sum(self._widths)

    def _window_of(self, s: int) -> int:
        """Credit window of link *s* (the consumer stage's override)."""
        if s < self.nstages and self.stages[s].window is not None:
            return self.stages[s].window
        return self.window

    def _consumer_ranks(self, s: int) -> list[int]:
        """Ranks consuming link *s* (stage *s* workers, or the collector)."""
        if s == self.nstages:
            return [self.nprocs - 1]
        return [self._bases[s] + w for w in range(self._widths[s])]

    def _producer_ranks(self, s: int) -> list[int]:
        """Ranks producing link *s* (stage *s-1* workers, or the emitter)."""
        if s == 0:
            return [0]
        return [self._bases[s - 1] + w for w in range(self._widths[s - 1])]

    def _role(self, rank: int) -> tuple[str, int, int]:
        """``(role, stage_index, worker_index)`` for *rank*."""
        if rank == 0:
            return ("emit", -1, 0)
        if rank == self.nprocs - 1:
            return ("collect", self.nstages, 0)
        for s, (base, width) in enumerate(zip(self._bases, self._widths)):
            if base <= rank < base + width:
                return ("work", s, rank - base)
        raise ArchetypeError(f"rank {rank} outside pipeline layout")  # pragma: no cover

    def _downstream(self, comm: Comm, s: int) -> _Downstream:
        down = _Downstream(comm, self._consumer_ranks(s), self._window_of(s))
        down.tag_data = _TAG_DATA_BASE + s
        down.tag_credit = _TAG_CREDIT_BASE + s
        return down

    def _upstream(self, comm: Comm, s: int, worker: int, step: int) -> _Upstream:
        return _Upstream(
            comm,
            self._producer_ranks(s),
            worker,
            step,
            _TAG_DATA_BASE + s,
            _TAG_CREDIT_BASE + s,
        )

    # -- staging ------------------------------------------------------------
    def prepare(self, nprocs: int, items: Iterable[Any]) -> tuple[tuple, dict]:
        if nprocs != self.nprocs:
            raise ArchetypeError(
                f"{self.name}: this pipeline needs exactly {self.nprocs} ranks "
                f"(emitter + {'+'.join(str(w) for w in self._widths)} workers "
                f"+ collector), got {nprocs}"
            )
        return (list(items),), {}

    # -- skeleton -----------------------------------------------------------
    def body(self, comm: Comm, items: Sequence[Any]) -> Any:
        role, s, w = self._role(comm.rank)
        if role == "emit":
            return self._emit(comm, items)
        if role == "collect":
            return self._collect(comm)
        return self._work(comm, s, w)

    def _emit(self, comm: Comm, items: Sequence[Any]) -> StageReport:
        down = self._downstream(comm, 0)
        emitted = 0
        for k, value in enumerate(items):
            if self.emit_cost is not None:
                cost = self.emit_cost(value) if callable(self.emit_cost) else self.emit_cost
                comm.charge(cost, label="pipeline:emit")
            down.push(k, value)
            emitted += 1
        down.close()
        return StageReport(stage="<emitter>", worker=0, processed=emitted, state=None)

    def _work(self, comm: Comm, s: int, w: int) -> StageReport:
        stage = self.stages[s]
        mode = stage.state_access
        state = stage.init_state(w) if stage.init_state is not None else None
        ctx = StageContext(stage.name, w, comm)
        up = self._upstream(comm, s, w, stage.workers)
        down = self._downstream(comm, s + 1)
        processed = 0
        entry = comm.clock
        while True:
            pulled = up.pull()
            if pulled is None:
                break
            k, value = pulled
            if stage.work_cost is not None:
                cost = (
                    stage.work_cost(value) if callable(stage.work_cost) else stage.work_cost
                )
                comm.charge(cost, label=f"{stage.name}[{k}]")
            if mode is StateAccess.READONLY:
                out = stage.fn(ctx, value, state)
            else:
                out, state = stage.fn(ctx, value, state)
            down.push(k, out)
            up.ack(k)
            processed += 1
            comm.tallies[_ITEMS] += 1
        down.close()
        comm.samples[_STAGE_SECONDS].append(comm.clock - entry)
        return StageReport(stage=stage.name, worker=w, processed=processed, state=state)

    def _collect(self, comm: Comm) -> list[Any]:
        s = self.nstages
        out: list[Any] = []
        if self.ordered:
            up = self._upstream(comm, s, 0, 1)
            while True:
                pulled = up.pull()
                if pulled is None:
                    break
                k, value = pulled
                if self.collect_cost is not None:
                    cost = (
                        self.collect_cost(value)
                        if callable(self.collect_cost)
                        else self.collect_cost
                    )
                    comm.charge(cost, label="pipeline:collect")
                out.append(value)
                up.ack(k)
            return out
        producers = set(self._producer_ranks(s))
        tag_data = _TAG_DATA_BASE + s
        tag_credit = _TAG_CREDIT_BASE + s
        eos = 0
        while eos < len(producers):
            msg = comm.recv_msg(source=ANY_SOURCE, tag=tag_data)
            kind, value = msg.payload
            if kind == "eos":
                eos += 1
                continue
            if self.collect_cost is not None:
                cost = (
                    self.collect_cost(value)
                    if callable(self.collect_cost)
                    else self.collect_cost
                )
                comm.charge(cost, label="pipeline:collect")
            out.append(value)
            comm.send(msg.source, None, tag=tag_credit)
        return out

    # -- result access ------------------------------------------------------
    def output(self, result: RunResult) -> list[Any]:
        """The collector's output list (stream order when ``ordered``)."""
        return result.values[-1]

    def reports(self, result: RunResult) -> dict[str, list[StageReport]]:
        """Per-stage worker reports, worker-ordered, keyed by stage name."""
        out: dict[str, list[StageReport]] = {stage.name: [] for stage in self.stages}
        for value in result.values[1:-1]:
            out[value.stage].append(value)
        for stage_reports in out.values():
            stage_reports.sort(key=lambda r: r.worker)
        return out

    def accumulated_state(self, result: RunResult, stage_name: str) -> Any:
        """The combined final state of an ``ACCUMULATOR`` stage.

        Per-worker finals merge via the stage's ``combine`` in canonical
        worker order, so the value is identical on every backend.
        """
        for stage in self.stages:
            if stage.name == stage_name:
                break
        else:
            raise ArchetypeError(f"no stage named {stage_name!r}")
        if stage.state_access is not StateAccess.ACCUMULATOR:
            raise ArchetypeError(
                f"stage {stage_name!r} has {stage.state_access.value} state, "
                "not accumulator"
            )
        states = [r.state for r in self.reports(result)[stage_name]]
        acc = states[0]
        for state in states[1:]:
            acc = stage.combine(acc, state)
        return acc
