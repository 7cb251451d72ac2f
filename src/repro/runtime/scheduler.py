"""Scheduling backends: the run-to-block engine and free-running threads.

A blocked rank waits on one small value — a receive pattern ``(source,
tag, ctx)`` or a tuple of posted receive requests — beside a *label* tuple that
:func:`describe_wait` turns into text only when the wait is reported.

:class:`DeterministicBackend` is the run-to-block engine: one rank runs
at a time, and a global block is reported at once as a
:class:`~repro.errors.DeadlockError` naming what each rank waits for.
Its *choice policy* decides which runnable rank resumes, which candidate
a wildcard receive takes and which completion a wait observes first.
:class:`Canonical` (the ``deterministic`` backend) makes the one
reproducible choice; :class:`Seeded` (the ``fuzzed`` backend, which
:mod:`repro.verify` builds on) draws all three from a seeded PRNG, and
under it a :class:`FaultPlan` can delay messages and crash a rank.
:class:`ThreadedBackend` runs the ranks as free OS threads.
"""

from __future__ import annotations

import heapq
import os
import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from repro.errors import DeadlockError, InjectedFaultError, RankFailedError, ReproError
from repro.obs.metrics import counter_handle
from repro.runtime.mailbox import Mailbox, _earliest
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message

_DEADLOCKS = counter_handle(
    "runtime.scheduler.deadlocks", help="runs aborted as deadlocked"
)


def batch_thread() -> None:
    """Put the calling thread under ``SCHED_BATCH`` (Linux; elsewhere, or
    when the kernel refuses, it stays as it was).

    A run-to-block handoff releases the successor's lock and then blocks
    on its own.  Under the default policy the woken thread preempts the
    waker before it reaches its own ``acquire``, so each handoff costs a
    preemption plus a GIL round trip; a batch thread is never preempted
    by a wake-up, so the handoff is one context switch.  Only the
    engine's rank threads call this: the thread that starts a run keeps
    its policy.
    """
    if hasattr(os, "SCHED_BATCH"):
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError:
            pass


class _Aborted(BaseException):
    """Internal: unwind a rank thread after another rank failed.

    Derives from BaseException so application-level ``except Exception``
    handlers cannot swallow the unwind.
    """


class _Status(Enum):
    READY = "ready"  # thread created, body not yet started
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


def _shown(value: int) -> int | str:
    return "ANY" if value in (ANY_SOURCE, ANY_TAG) else value


def describe_wait(label: tuple) -> str:
    """The report text for a blocked rank's wait *label*.

    A label is ``("recv", source, tag, ctx)`` for a blocking receive,
    ``("wait", req_id, source, tag, ctx)`` for ``wait`` on one receive
    request, or ``(kind, nrequests, ctx)`` for ``waitall``/``waitany``;
    sources are numbered as the caller's communicator numbers them.
    """
    kind, *fields = label
    if kind == "recv":
        source, tag, ctx = fields
        return f"recv(source={_shown(source)}, tag={_shown(tag)}, ctx={ctx})"
    if kind == "wait":
        req_id, source, tag, ctx = fields
        return f"wait(recv #{req_id}, source={_shown(source)}, tag={_shown(tag)}, ctx={ctx})"
    count, ctx = fields
    return f"{kind}({count} requests, ctx={ctx})"


def _recv_label(source: int, tag: int, ctx: int, shown_source: int | None) -> tuple:
    return ("recv", source if shown_source is None else shown_source, tag, ctx)


def _wait_holds(mailbox: Mailbox, waiting: tuple, label: tuple) -> bool:
    """Is the wait satisfied: a pending match for a receive pattern, or a
    bound message on one of a tuple of posted receives?"""
    if label[0] == "recv":
        return mailbox.has_match(*waiting)
    return any(post.message is not None for post in waiting)


@dataclass(frozen=True)
class FaultPlan:
    """Faults for the run-to-block engine to inject, drawn from the stream
    of its :class:`Seeded` policy.

    ``delay_prob`` is the probability that a delivered message is held
    back 1..``max_delay_steps`` scheduler steps.  Delays are per-(source,
    dest) FIFO, so a delayed message delays every later one on its
    channel (MPI's non-overtaking holds); cross-channel delivery *is*
    reordered, the legal nondeterminism wildcard receives are exposed to.
    ``crash_rank`` (``None``: no crash) raises
    :class:`~repro.errors.InjectedFaultError` at its first communication
    point at or after step ``crash_at_step``, which surfaces as a
    :class:`~repro.errors.RankFailedError` naming the rank — never a hang.
    """

    delay_prob: float = 0.0
    max_delay_steps: int = 4
    crash_rank: int | None = None
    crash_at_step: int = 0


class Backend:
    """What the scheduling backends share: per-rank mailboxes, the clock
    accessor, the tracer, and the posted-receive operations.

    Each backend adds ``deliver``, ``wait_for_match`` and
    ``wait_any_post``; the in-process ones add ``run(bodies)``.  Their
    contracts are documented on :class:`DeterministicBackend`.  A
    receive request is its own mailbox post (see
    :mod:`repro.runtime.mailbox`): once a message is bound to it, the
    request holds it, so completing a request is the context's work and
    no engine operation.
    """

    #: the run's ``(rank, clock)`` pick log when a :class:`Seeded` policy
    #: made the picks, else ``None``
    schedule: list[tuple[int, float]] | None = None

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.mailboxes = [Mailbox() for _ in range(nprocs)]
        self._clock_of: Callable[[int], float] = lambda rank: 0.0
        #: optional tracer installed by the runner; a seeded policy's
        #: wildcard and completion choices are recorded here when present
        self.tracer = None
        #: per-run tallies of the run-to-block engine: scheduling
        #: decisions and rank suspensions (published by
        #: :func:`repro.runtime.spmd.publish_run`; zero elsewhere)
        self.steps = 0
        self.blocks = 0

    def set_clock_source(self, clock_of: Callable[[int], float]) -> None:
        """Install the per-rank virtual-clock accessor.

        Contract: only the run-to-block engine consults it — its
        :class:`Canonical` policy to run ranks in virtual-time order, a
        :class:`Seeded` one to timestamp its pick log and match events.
        :class:`ThreadedBackend` **ignores it entirely**: free-running OS
        threads interleave in wall-clock order.  (The contexts keep the
        virtual clocks themselves correct on every backend.)
        """
        self._clock_of = clock_of

    def probe_match(self, rank: int, source: int, tag: int, ctx: int) -> bool:
        """Non-blocking: is a matching message available to *rank* now?

        Backends with out-of-band transport (the process-parallel backend's
        delivery queues) override this to ingest pending deliveries before
        asking the mailbox.
        """
        return self.mailboxes[rank].has_match(source, tag, ctx)

    # -- posted receives (the nonblocking layer) --------------------------
    # The run-to-block engine mutates mailboxes only from the single
    # running rank, so the base implementations need no locking; the
    # threaded backend overrides them to serialise under the destination
    # rank's condition lock.
    def post_receive(self, rank: int, post) -> None:
        """Post receive request *post* on *rank*'s mailbox: it binds now to
        a pending match or to the next matching delivery."""
        self.mailboxes[rank].post(post)

    def post_ready(self, rank: int, post) -> bool:
        """True when posted receive *post* has a message bound (non-blocking)."""
        return post.message is not None

    def choose_completion(self, rank: int, candidates: list[tuple[int, int]]) -> int:
        """Pick which of several simultaneously-completable requests a
        ``waitany``/``waitall`` observes first.

        *candidates* is the canonical-order list of ``(source, tag)``
        pairs; the return value is a position in it.  The default (the
        threaded and process-parallel behaviour) is the first — virtual
        clocks are charged canonically regardless, so this choice only
        affects observation order.  The run-to-block engine asks its
        choice policy.
        """
        return 0


class Canonical:
    """The deterministic engine's choices: the one canonical interleaving.

    Resumes the runnable rank furthest behind in virtual time, ties by
    rank; a wildcard receive takes the earliest-arriving candidate
    (:meth:`Mailbox.take_match <repro.runtime.mailbox.Mailbox.take_match>`'s
    choice); a wait observes the first completion.  The choices are a
    function of the program, so none is logged or traced.
    """

    schedule = None  # no pick log

    def __init__(self) -> None:
        #: (clock, rank) entries for wakeable ranks; lazily invalidated
        self._heap: list[tuple[float, int]] = []

    def wake(self, engine: DeterministicBackend, rank: int) -> None:
        heapq.heappush(self._heap, (engine._clock_of(rank), rank))

    def pick(self, engine: DeterministicBackend) -> int | None:
        """The runnable rank furthest behind in virtual time, which makes
        the engine a conservative discrete-event simulation: wildcard
        receives observe the message population a real run would have.

        A wakeable rank's clock cannot have moved since it was pushed
        (blocked ranks do not advance), so the heap's (clock, rank) order
        is the min-clock lowest-rank selection over all runnable ranks.
        Every wakeable rank is runnable (see :class:`DeterministicBackend`),
        so the first one popped is the pick.
        """
        heap = self._heap
        wakeable = engine._wakeable
        while heap:
            _, rank = heapq.heappop(heap)
            if rank in wakeable:  # else a lazily invalidated entry
                wakeable.discard(rank)
                return rank
        return None

    def message(self, candidates: list[Message]) -> Message:
        return _earliest(candidates)

    def completion(self, count: int) -> int:
        return 0


class Seeded:
    """Schedule fuzzing: every choice drawn from ``random.Random(seed)``.

    Each step resumes a uniformly random runnable rank, logged with its
    clock; a wildcard receive takes a random candidate and a wait
    observes a random completion first.  The candidates are
    :class:`Canonical`'s (each sender's oldest match, so non-overtaking
    holds), so every seed is a legal interleaving, and a reproducible
    one: same seed ⇒ same draws ⇒ same results and traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        #: one (rank, virtual clock at pick time) pair per step — the
        #: replay/reproducibility log
        self.schedule: list[tuple[int, float]] = []

    def wake(self, engine: DeterministicBackend, rank: int) -> None:
        pass  # picks draw from the wakeable set itself

    def pick(self, engine: DeterministicBackend, runnable: list[int] | None = None) -> int | None:
        """A random rank of *runnable* (default: the wakeable set), sorted
        so the draw is a function of the seed and the set alone."""
        if runnable is None:
            runnable = sorted(engine._wakeable)
        if not runnable:
            return None
        choice = self.rng.choice(runnable)
        engine._wakeable.discard(choice)
        self.schedule.append((choice, engine._clock_of(choice)))
        return choice

    def message(self, candidates: list[Message]) -> Message:
        return self.rng.choice(candidates) if len(candidates) > 1 else candidates[0]

    def completion(self, count: int) -> int:
        return self.rng.randrange(count)


class DeterministicBackend(Backend):
    """The run-to-block engine: one rank at a time, choices by *policy*.

    The set of *wakeable* ranks changes only when a rank blocks or a
    delivery satisfies a blocked rank's wait (runnability is monotone
    while blocked: only the owner removes messages from its mailbox), so
    the policy picks from it without re-evaluating every wait each step:
    a rank is wakeable exactly while it is ready to start or blocked on a
    wait that holds.

    *policy* makes the three choices (default :class:`Canonical`).  A
    :class:`FaultPlan` needs a :class:`Seeded` one; its delayed messages
    are released eagerly when no rank could otherwise run, so fault
    injection never manufactures a false deadlock.
    """

    def __init__(
        self, nprocs: int, policy: Canonical | Seeded | None = None, faults: FaultPlan | None = None
    ):
        super().__init__(nprocs)
        self.policy = Canonical() if policy is None else policy
        self.schedule = self.policy.schedule
        if faults is not None and self.schedule is None:
            raise ReproError("a FaultPlan draws from a Seeded policy's stream")
        self.faults = faults
        #: whether the plan holds messages back (see :meth:`_hold`)
        self._delays = faults is not None and faults.delay_prob > 0.0
        self._status = [_Status.READY] * nprocs
        #: per blocked rank: its receive pattern or posts, and its label
        self._waiting: list[tuple] = [()] * nprocs
        self._label: list[tuple] = [()] * nprocs
        #: per rank: the tag of the delivery that last satisfied its wait
        self._woke_tag: list[int] = [0] * nprocs
        #: one bare lock per rank, held at rest: ``release()`` hands the
        #: rank its token to run, the rank's own ``acquire()`` consumes it
        self._resume = [threading.Lock() for _ in range(nprocs)]
        for lock in self._resume:
            lock.acquire()
        self._to_scheduler = threading.Event()
        self._abort = False
        self._failures: dict[int, BaseException] = {}
        #: ranks currently believed runnable
        self._wakeable: set[int] = set()
        #: fault state: picks so far, (source, dest) -> FIFO of
        #: (release_step, msg) still in flight, ranks already crashed
        self._step = 0
        self._delayed: dict[tuple[int, int], list[tuple[int, Message]]] = {}
        self._crashed: set[int] = set()

    # -- wake bookkeeping -------------------------------------------------
    def _wake(self, rank: int) -> None:
        """Mark *rank* runnable (it is READY, or its wait holds)."""
        if rank in self._wakeable:
            return
        self._wakeable.add(rank)
        self.policy.wake(self, rank)

    def _handoff(self, rank: int | None = None, waiting: tuple = (), label: tuple = ()) -> None:
        """Hand the CPU directly to the next runnable rank — after
        blocking *rank* on *waiting* (described by *label*), when given.

        The thread giving up the CPU runs the pick itself and resumes its
        successor in one context switch; a blocking rank returns once a
        delivery satisfied its wait and it was picked again (at once, with
        no switch at all, when it picks itself).  With no runnable rank,
        wakes the scheduler thread, which owns run completion, failure
        unwinding, and deadlock reporting.
        """
        if self._abort:
            # Unwinding: several aborted rank threads reach here at once;
            # nothing is runnable, so don't touch the policy's state.
            if rank is not None:
                raise _Aborted()
            self._to_scheduler.set()
            return
        if rank is not None:
            # Callers block only after failing to satisfy the wait, so the
            # rank is not wakeable until a delivery satisfies it.
            self.blocks += 1
            self._waiting[rank] = waiting
            self._label[rank] = label
            self._status[rank] = _Status.BLOCKED
        # _pick_next, with its no-plan case inline: one handoff per block
        nxt = self.policy.pick(self) if self.faults is None else self._pick_next()
        if nxt is None:
            self._to_scheduler.set()
        else:
            self.steps += 1
            self._status[nxt] = _Status.RUNNING
            if nxt != rank:
                self._resume[nxt].release()
        if rank is None:
            return
        if nxt != rank:
            self._resume[rank].acquire()
            if self._abort:
                raise _Aborted()
        self._waiting[rank] = ()  # hold no request, and its payload, past the wait
        if self.faults is not None:
            # Resumed because the wait holds or because the crash came
            # due while blocked; the crash wins.
            self._check_crash(rank)

    # -- transport --------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """Place *msg* in its destination's mailbox and wake the
        destination if that satisfies its wait — or, under a plan's
        delay, hold it back a random number of steps."""
        # Only the single running rank mutates mailboxes, so no locking.
        if self._delays and self._hold(msg):
            return
        rank = msg.dest
        post = self.mailboxes[rank].put(msg)
        if self._status[rank] is _Status.BLOCKED and rank not in self._wakeable:
            waiting = self._waiting[rank]
            if self._label[rank][0] == "recv":
                # msg.matches(*waiting), inline: a queued message that
                # matches the blocked receive's pattern
                source, tag, ctx = waiting
                satisfied = (
                    post is None
                    and msg.ctx == ctx
                    and (source == ANY_SOURCE or source == msg.source)
                    and (tag == ANY_TAG or tag == msg.tag)
                )
            else:
                satisfied = post is not None and post in waiting
            if satisfied:
                self._woke_tag[rank] = msg.tag
                self._wakeable.add(rank)
                self.policy.wake(self, rank)

    def wait_for_match(
        self, rank: int, source: int, tag: int, ctx: int, shown_source: int | None = None
    ) -> Message:
        """Block *rank* until a message matches (source, tag, ctx), then
        take it.  *shown_source* is *source* as the caller's communicator
        numbers it, for the report of a wait that never ends.

        An exact receive takes its channel's head; a wildcard receive
        takes the candidate its policy chooses (:meth:`_choose_match`),
        except that a named-source receive which had to wait takes the
        head of the channel whose delivery woke it.
        """
        if self.faults is not None:
            self._check_crash(rank)
        mailbox = self.mailboxes[rank]
        exact = source != ANY_SOURCE and tag != ANY_TAG
        if exact:
            msg = mailbox.take_match(source, tag, ctx)
        else:
            # scanned here, so a wildcard receive that must wait makes no
            # choice at all
            candidates = mailbox.candidates(source, tag, ctx)
            msg = self._choose_match(rank, candidates, source, tag) if candidates else None
        if msg is not None:
            return msg
        # _recv_label, inline: the label is built only for a wait
        label = ("recv", source if shown_source is None else shown_source, tag, ctx)
        self._handoff(rank, (source, tag, ctx), label)
        if exact:
            msg = mailbox.take_match(source, tag, ctx)
        elif source != ANY_SOURCE:
            # A named source: nothing of its was pending at the block, and
            # one sender's messages arrive in send order, so the delivery
            # that woke the rank heads its oldest match.  No rescan.
            msg = mailbox.take_match(source, self._woke_tag[rank], ctx)
            if self.schedule is not None:
                self._record_match(rank, source, msg.tag, (msg,), False, True)
        else:
            msg = self._choose_match(rank, mailbox.candidates(source, tag, ctx), source, tag)
        assert msg is not None, "scheduler resumed rank without a matching message"
        return msg

    def _choose_match(self, rank: int, candidates: list[Message], source: int, tag: int) -> Message:
        """Take the message the policy chooses among a wildcard receive's
        non-empty *candidates* (each sender's oldest matching message)."""
        # One candidate is every policy's choice, made without a draw.
        chosen = candidates[0] if len(candidates) == 1 else self.policy.message(candidates)
        # A candidate heads its channel: the exact take of its own key.
        self.mailboxes[rank].take_match(chosen.source, chosen.tag, chosen.ctx)
        if self.schedule is not None:
            self._record_match(
                rank, chosen.source, chosen.tag, candidates,
                source == ANY_SOURCE, tag == ANY_TAG,
            )  # fmt: skip
        return chosen

    def wait_any_post(self, rank: int, posts: tuple, label: tuple) -> list:
        """Block *rank* until at least one of its posted receive requests
        *posts* has a message bound; returns the bound subset in the
        given order.  *label* is the wait's :func:`describe_wait` label."""
        if self.faults is not None:
            self._check_crash(rank)
        for post in posts:
            if post.message is not None:
                break
        else:
            self._handoff(rank, posts, label)
        ready = []
        for post in posts:  # a loop, not a comprehension: no frame of its own
            if post.message is not None:
                ready.append(post)
        assert ready, "scheduler resumed rank without a fulfilled posted receive"
        return ready

    def choose_completion(self, rank: int, candidates: list[tuple[int, int]]) -> int:
        if len(candidates) <= 1:
            return 0
        pos = self.policy.completion(len(candidates))
        if self.schedule is not None:
            self._record_match(rank, *candidates[pos], candidates)
        return pos

    def _record_match(
        self, rank: int, source: int, tag: int, candidates: list,
        wildcard_source: bool = False, wildcard_tag: bool = False,
    ) -> None:  # fmt: skip
        """Trace a seeded choice as a :class:`~repro.trace.events.MatchEvent`
        — what :mod:`repro.verify.races` scans: a wildcard receive's take
        among candidate messages, or (neither field a wildcard) a wait's
        completion among ``(source, tag)`` pairs.  Canonical choices are a
        function of the program and are not recorded."""
        if self.schedule is None or self.tracer is None:
            return
        wildcard = wildcard_source or wildcard_tag
        self.tracer.match(
            rank=rank, clock=self._clock_of(rank), source=source, tag=tag,
            wildcard_source=wildcard_source, wildcard_tag=wildcard_tag,
            candidates=tuple(m.source for m in candidates) if wildcard
            else tuple(sorted({src for src, _ in candidates})),
            completion=not wildcard,
        )  # fmt: skip

    # -- scheduling loop ---------------------------------------------------
    def run(self, bodies: list[Callable[[], None]]) -> None:
        """Execute one body per rank to completion; raise on failure.

        Ranks hand off to each other directly (:meth:`_handoff`); this
        thread sleeps until a handoff finds no runnable rank, then decides
        completion / failure / deadlock."""
        threads = [
            threading.Thread(
                target=self._rank_main,
                args=(rank, bodies[rank]),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            for rank in range(self.nprocs)
        ]
        for t in threads:
            t.start()
        try:
            for rank in range(self.nprocs):
                self._wake(rank)
            self._handoff()  # kick the first rank
            while True:
                self._to_scheduler.wait()
                self._to_scheduler.clear()
                nxt = self._pick_next()
                if nxt is not None:
                    # A terminal signal raced a wake; resume and keep going.
                    self.steps += 1
                    self._status[nxt] = _Status.RUNNING
                    self._resume[nxt].release()
                    continue
                if self._failures or all(
                    s in (_Status.DONE, _Status.FAILED) for s in self._status
                ):
                    break
                self._raise_deadlock(threads)
        finally:
            if self._failures or any(s == _Status.BLOCKED for s in self._status):
                self._abort_all(threads)
            for t in threads:
                t.join(timeout=10.0)
        if self._failures:
            rank = min(self._failures)
            raise RankFailedError(rank, self._failures[rank]) from self._failures[rank]

    def _raise_deadlock(self, threads: list[threading.Thread]) -> None:
        self._abort_all(threads)
        waiting = {
            r: describe_wait(self._label[r])
            for r in range(self.nprocs)
            if self._status[r] == _Status.BLOCKED
        }
        detail = "; ".join(f"rank {r}: {d}" for r, d in waiting.items())
        _DEADLOCKS.inc()
        raise DeadlockError(f"no rank can make progress ({detail})", waiting=waiting)

    def _pick_next(self) -> int | None:
        """The policy's pick among the runnable ranks, or ``None``.

        Under a :class:`FaultPlan` each pick is a step: due delayed messages
        are released first, and a blocked rank whose crash is due counts as
        runnable, so it raises instead of hanging on its receive.
        """
        if self.faults is None:
            return self.policy.pick(self)
        self._step += 1
        for key in list(self._delayed):
            while key in self._delayed and self._delayed[key][0][0] <= self._step:
                self._release(key)
        runnable = self._runnable_ranks()
        while not runnable and self._delayed:
            # Release the earliest message in flight rather than declare a
            # deadlock while injected delays still hold messages.
            self._release(min(self._delayed, key=lambda key: self._delayed[key][0][0]))
            runnable = self._runnable_ranks()
        crash = self.faults.crash_rank
        if (
            not runnable
            and crash is not None
            and crash not in self._crashed
            and self._status[crash] not in (_Status.DONE, _Status.FAILED)
        ):
            # Everyone is blocked but a crash of a live rank is still due:
            # let the idle time pass so the fault (not a spurious deadlock)
            # resolves the wait.
            self._step = max(self._step, self.faults.crash_at_step)
            runnable = self._runnable_ranks()
        return self.policy.pick(self, runnable)

    def _rank_main(self, rank: int, body: Callable[[], None]) -> None:
        batch_thread()
        self._resume[rank].acquire()
        try:
            if not self._abort:
                body()
            self._status[rank] = _Status.DONE
        except _Aborted:
            self._status[rank] = _Status.DONE
        except BaseException as exc:  # noqa: BLE001 - reported via RankFailedError
            self._failures[rank] = exc
            self._status[rank] = _Status.FAILED
        finally:
            self._handoff()  # the next rank, or the scheduler thread

    def _abort_all(self, threads: list[threading.Thread]) -> None:
        self._abort = True
        for lock in self._resume:
            try:
                lock.release()
            except RuntimeError:
                pass  # token still there: the deadlock path aborts twice

    # -- fault injection --------------------------------------------------
    def _hold(self, msg: Message) -> bool:
        """Whether to hold *msg* back instead of delivering it now.

        A held message waits 1..``max_delay_steps`` scheduler steps in its
        (source, dest) channel's FIFO.  A later message on a channel with
        a held predecessor must queue behind it (non-overtaking), even if
        it rolled "no delay".  :meth:`_release` passes a channel's head
        back through :meth:`deliver`, which is the one case that leaves
        the FIFO here and is delivered.
        """
        key = (msg.source, msg.dest)
        queue = self._delayed.get(key)
        if queue and queue[0][1] is msg:  # released
            queue.pop(0)
            if not queue:
                del self._delayed[key]
            return False
        plan = self.faults
        rng = self.policy.rng
        if queue or rng.random() < plan.delay_prob:
            release = self._step + 1 + rng.randrange(max(1, plan.max_delay_steps))
            if queue:
                release = max(release, queue[-1][0])
            self._delayed.setdefault(key, []).append((release, msg))
            return True
        return False

    def _runnable_ranks(self) -> list[int]:
        ranks = set(self._wakeable)
        crash = self.faults.crash_rank
        if crash is not None and self._status[crash] == _Status.BLOCKED and self._crash_due(crash):
            ranks.add(crash)
        return sorted(ranks)

    def _release(self, key: tuple[int, int]) -> None:
        """Deliver the oldest delayed message of channel *key*."""
        self.deliver(self._delayed[key][0][1])

    def _crash_due(self, rank: int) -> bool:
        plan = self.faults
        return (
            plan.crash_rank == rank
            and self._step >= plan.crash_at_step
            and rank not in self._crashed
        )

    def _check_crash(self, rank: int) -> None:
        if self._crash_due(rank):
            self._crashed.add(rank)
            raise InjectedFaultError(
                f"injected crash of rank {rank} at scheduler step {self._step}"
            )


class ThreadedBackend(Backend):
    """Free-running threads with condition-variable mailboxes.

    ``deadlock_timeout`` bounds how long a receive may wait without any
    message arriving for it before the run is declared deadlocked.

    This backend ignores :meth:`Backend.set_clock_source`: ranks
    interleave in host wall-clock order, not virtual-time order (see the
    contract on that method).
    """

    def __init__(self, nprocs: int, deadlock_timeout: float = 30.0):
        super().__init__(nprocs)
        self.deadlock_timeout = deadlock_timeout
        self._locks = [threading.Lock() for _ in range(nprocs)]
        self._conds = [threading.Condition(self._locks[i]) for i in range(nprocs)]
        self._failed = threading.Event()
        self._failures: dict[int, BaseException] = {}

    def deliver(self, msg: Message) -> None:
        cond = self._conds[msg.dest]
        with cond:
            self.mailboxes[msg.dest].put(msg)
            cond.notify_all()

    def wait_for_match(
        self, rank: int, source: int, tag: int, ctx: int, shown_source: int | None = None
    ) -> Message:
        with self._conds[rank]:
            self._await(rank, (source, tag, ctx), _recv_label(source, tag, ctx, shown_source))
            return self.mailboxes[rank].take_match(source, tag, ctx)

    def wait_any_post(self, rank: int, posts: tuple, label: tuple) -> list:
        with self._conds[rank]:
            self._await(rank, posts, label)
            return [post for post in posts if post.message is not None]

    def _await(self, rank: int, waiting: tuple, label: tuple) -> None:
        """Sleep on *rank*'s condition (held by the caller) until its wait
        holds; raise :class:`DeadlockError` after ``deadlock_timeout``."""
        cond = self._conds[rank]
        mailbox = self.mailboxes[rank]
        start = time.monotonic()
        while not _wait_holds(mailbox, waiting, label):
            if self._failed.is_set():
                raise _Aborted()
            # Wait out the full remaining budget: a delivery or failure
            # notifies, so idle waits burn no wake cycles.
            waited = time.monotonic() - start
            remaining = self.deadlock_timeout - waited
            if remaining <= 0.0:
                _DEADLOCKS.inc()
                describe = describe_wait(label)
                raise DeadlockError(
                    f"rank {rank} waited {waited:.1f}s for {describe}; "
                    "presumed deadlock",
                    waiting={rank: describe},
                )
            cond.wait(remaining)

    # Posted-receive operations serialise with deliveries under the
    # destination rank's condition lock (the mailbox itself is unlocked).
    def post_receive(self, rank: int, post) -> None:
        with self._conds[rank]:
            self.mailboxes[rank].post(post)

    def post_ready(self, rank: int, post) -> bool:
        with self._conds[rank]:
            return post.message is not None

    def probe_match(self, rank: int, source: int, tag: int, ctx: int) -> bool:
        with self._conds[rank]:
            return self.mailboxes[rank].has_match(source, tag, ctx)

    def run(self, bodies: list[Callable[[], None]]) -> None:
        threads = [
            threading.Thread(
                target=self._rank_main,
                args=(rank, bodies[rank]),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            for rank in range(self.nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self._failures:
            rank = min(self._failures)
            exc = self._failures[rank]
            if isinstance(exc, DeadlockError):
                raise exc
            raise RankFailedError(rank, exc) from exc

    def _rank_main(self, rank: int, body: Callable[[], None]) -> None:
        try:
            body()
        except _Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported via RankFailedError
            self._failures[rank] = exc
            self._failed.set()
            # Wake every waiting rank so the run can unwind.
            for cond in self._conds:
                with cond:
                    cond.notify_all()
