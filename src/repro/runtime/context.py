"""Per-rank execution context: point-to-point messaging and the virtual clock.

A :class:`RankContext` is what each rank's program body receives.  It knows
the rank/size, the machine model, and maintains the rank's virtual clock:

- ``charge(flops)`` advances the clock by the machine's compute time;
- ``send`` advances the sender's clock by the Hockney message cost
  ``alpha + beta * nbytes`` and stamps the message with its arrival time;
- ``recv`` advances the receiver's clock to at least the arrival time
  (waiting in virtual time exactly when the message was not yet there).

Clocks are pure functions of the communication pattern and the charged
work, so deterministic programs report identical virtual times regardless
of scheduling backend or host machine speed.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

import numpy as np

from repro.errors import CommError
from repro.machines.model import MachineModel
from repro.runtime.message import ANY_SOURCE, ANY_TAG, COLL_TAG_BASE, MAX_USER_TAG, Message
from repro.runtime.request import Request
from repro.runtime.scheduler import Backend
from repro.trace.tracer import Tracer
from repro.util.nbytes import _OVERHEAD_BYTES, _SCALAR_BYTES, _nbytes

#: the message path builds its envelopes and requests with these C-level
#: constructors, so no Python frame runs per object
_new_message = tuple.__new__
_new_request = object.__new__

#: the canonical order of completed receives: by their messages' arrival,
#: source and send sequence
_arrival_order = attrgetter("message.arrival", "message.source", "message.seq")

#: exact payload types sent as they are, by their wire size (``_nbytes``'s)
_SCALAR_SIZE: dict[type, int] = {
    type(None): 0,
    bool: _SCALAR_BYTES,
    int: _SCALAR_BYTES,
    float: _SCALAR_BYTES,
    complex: _SCALAR_BYTES,
}


def _array_frozen(array: np.ndarray) -> bool:
    """True when *array* (and everything it views) is read-only.

    A read-only view over a writeable base is *not* frozen: the owner of
    the base could still mutate the shared memory, so it must be copied
    like any writeable buffer.
    """
    base: Any = array
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return base is None or isinstance(base, bytes)


def _freeze_measure(payload: Any) -> tuple[Any, int]:
    """Detach *payload* from its sender and measure its wire size, in one
    traversal.

    Returns ``(frozen, nbytes)`` where ``nbytes`` is exactly
    ``repro.util.nbytes._nbytes``'s (the envelope overhead is added by
    the caller).  ``frozen`` is an immutable equivalent of the payload,
    of the payload's own type, sharing what it can — send-by-value
    without the eager deep copy: ndarrays are copied **once** and marked
    read-only at first injection; a payload that is already frozen (every
    forwarded hop of a ``bcast``, the ring-passed slabs of an
    ``allgather``) is shared zero-copy, because neither sender nor
    receiver can mutate it.  Mutable containers are rebuilt (cheap —
    pointers only) so a sender appending to a sent list cannot reach the
    receiver; their array leaves are shared frozen.  A memoryview becomes
    a read-only view of a private copy.  Anything else is deep-copied.
    """
    # Exact types first, by table and ``type() is``: scalars, arrays,
    # the plain tuples and lists of ints and floats a parcel is mostly
    # made of, and bytes.  Subclasses and everything else take the
    # isinstance chain below.
    t = type(payload)
    size = _SCALAR_SIZE.get(t)
    if size is not None:
        return payload, size
    if isinstance(payload, np.ndarray):
        nbytes = int(payload.nbytes)
        if not payload.flags.writeable and _array_frozen(payload):
            return payload, nbytes
        frozen = payload.copy()
        frozen.flags.writeable = False
        return frozen, nbytes
    if t is tuple or t is list:
        items = []
        total = 0
        for item in payload:
            ti = type(item)
            if ti is int or ti is float:
                total += _SCALAR_BYTES + 2
            else:
                item, size = _freeze_measure(item)
                total += size + 2
            items.append(item)
        return (tuple(items) if t is tuple else items), total
    if t is bytes:
        return payload, len(payload)
    # NumPy scalars before Python's: np.float64 and np.complex128 subclass
    # float and complex, but their size is their own.
    if isinstance(payload, np.generic):
        return payload, int(payload.nbytes)
    if isinstance(payload, (bool, int, float, complex)):
        return payload, _SCALAR_BYTES
    if isinstance(payload, (tuple, list)):
        # A subclass (a namedtuple, say) arrives as its own type.
        items = []
        total = 0
        for item in payload:
            frozen, nbytes = _freeze_measure(item)
            items.append(frozen)
            total += nbytes + 2
        if isinstance(payload, tuple):
            out = tuple.__new__(t, items)
        else:
            out = list.__new__(t)
            list.extend(out, items)
        state = getattr(payload, "__dict__", None)
        if state:
            out.__dict__.update(copy.deepcopy(state))
        return out, total
    if isinstance(payload, dict):
        # A subclass keeps its type and its own state (a defaultdict's
        # factory, say); only the values are replaced.
        out = {} if t is dict else copy.copy(payload)
        total = 0
        for key, value in payload.items():
            frozen, nbytes = _freeze_measure(value)
            dict.__setitem__(out, key, frozen)
            total += _nbytes(key) + nbytes + 2
        return out, total
    if isinstance(payload, (str, bytes, frozenset)):
        return payload, _nbytes(payload)
    if isinstance(payload, memoryview):
        frozen = memoryview(payload.tobytes())
        try:
            frozen = frozen.cast(payload.format, payload.shape)
        except (TypeError, ValueError):
            pass  # a format cast cannot take: the view stays bytes
        return frozen, _nbytes(payload)
    return copy.deepcopy(payload), _nbytes(payload)


def message_costs(machine: MachineModel, size: int) -> tuple[float, ...]:
    """``(congestion, alpha, beta, send_alpha, send_beta, recv_alpha,
    recv_beta)``: the terms of :meth:`MachineModel.message_time` /
    ``send_overhead`` / ``recv_overhead`` on *size* nodes.

    :meth:`RankContext._post` and :meth:`RankContext._finish_recv`
    compute ``(alpha + beta * nbytes) * congestion`` (and the send and
    receive analogues) from them, skipping the model's size check and
    congestion product per message.  Each product groups terms exactly as
    the model's own expressions associate them, so the inlined arithmetic
    is bitwise identical to calling the model.
    """
    m = machine
    return (
        1.0 + m.congestion_per_node * max(size - 2, 0),
        m.alpha,
        m.beta,
        m.SEND_ALPHA_FRACTION * m.alpha,
        m.SEND_BETA_FRACTION * m.beta,
        m.RECV_ALPHA_FRACTION * m.alpha,
        m.RECV_BETA_FRACTION * m.beta,
    )


@dataclass
class _Endpoint:
    """Per-rank state shared by every communicator view of the rank.

    ``next_req`` doubles as the rank's count of requests posted, and
    ``waits`` holds one sample per request completed: the virtual time
    the completion blocked.  ``tallies`` counts the other per-operation
    instruments of the run (reduction applies, redistributions, mesh ops,
    one-deep phases, par-loop, pipeline and payload-transport counts), and
    ``samples`` holds the values their histograms observe, both keyed by
    the instrument's :class:`~repro.obs.metrics.Metric` declaration.  All
    are per-run tallies, published by
    :func:`repro.runtime.spmd.publish_run`.
    """

    clock: float = 0.0
    send_seq: int = 0
    next_ctx: int = field(default=1)
    next_req: int = 0
    waits: list[float] = field(default_factory=list)
    tallies: defaultdict = field(default_factory=lambda: defaultdict(int))
    samples: defaultdict = field(default_factory=lambda: defaultdict(list))


class RankContext:
    """One rank's view of the virtual machine (possibly a group view).

    What a view needs per message is an attribute set when the view is
    made (:meth:`_bind_view`, from ``__init__`` and from
    :meth:`repro.comm.Comm.split`): its rank in the world numbering and
    the machine's per-message cost constants for its size.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        backend: Backend,
        machine: MachineModel,
        tracer: Tracer | None = None,
    ):
        self.machine = machine
        self._backend = backend
        self._tracer = tracer
        # Endpoint state shared by every communicator view of this rank
        # (sub-communicators created by split() alias the same node, so
        # virtual time and send ordering are per-rank, not per-group).
        self._endpoint = _Endpoint()
        #: this rank's tallies of per-operation instruments (see
        #: :class:`_Endpoint`); shared by every view of the rank
        self.tallies = self._endpoint.tallies
        self.samples = self._endpoint.samples
        #: communication context id; messages only match within a context
        self._ctx = 0
        self._bind_view(rank, size, None)

    def _bind_view(self, rank: int, size: int, group: list[int] | None) -> None:
        """Set this view's numbering and its per-message cost constants
        (:func:`message_costs` at this size)."""
        #: this rank's id within this communicator, in ``[0, size)``
        self.rank = rank
        #: number of ranks in this communicator
        self.size = size
        #: member global ranks, or None for the world communicator
        self._group = group
        #: this rank's id in the world communicator
        self.global_rank = rank if group is None else group[rank]
        self._costs = message_costs(self.machine, size)

    # -- group plumbing -------------------------------------------------------
    @property
    def clock(self) -> float:
        """Virtual time on this rank, in seconds (shared across groups;
        :meth:`charge`, :meth:`advance` and the messaging calls move it)."""
        return self._endpoint.clock

    def _to_global(self, rank: int) -> int:
        return rank if self._group is None else self._group[rank]

    # -- queries -----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankContext rank={self.rank}/{self.size} t={self.clock:.6g}s>"

    def check_peer(self, peer: int) -> None:
        """Validate a peer rank id.  The messaging calls test the range
        inline and call this only to raise."""
        if not 0 <= peer < self.size:
            raise CommError(
                f"rank {peer} out of range for a {self.size}-rank computation"
            )

    def _validate_send_tag(self, tag: int) -> None:
        """Reject an invalid send tag.  The sends call this only for a tag
        that is negative or in ``[MAX_USER_TAG, COLL_TAG_BASE)``; every
        other tag is valid for every context.  Subclasses that restrict
        the tag space (the communicator's user-tag window) override it."""
        if tag < 0:
            raise CommError(f"tags must be >= 0 (got {tag}); negatives are wildcards")

    # -- compute accounting --------------------------------------------------
    def charge(
        self,
        flops: float,
        label: str = "",
        working_set_bytes: float | None = None,
    ) -> None:
        """Account *flops* of useful work to this rank's virtual clock.

        Applications call this with analytic work terms (e.g. ``n * log2(n)``
        comparisons for a sort); the machine model converts work to time,
        adding a paging penalty when ``working_set_bytes`` exceeds node
        memory.
        """
        ep = self._endpoint
        start = ep.clock
        ep.clock = start + self.machine.compute_time(flops, working_set_bytes)
        if self._tracer is not None:
            self._tracer.compute(self.rank, flops, label, start, ep.clock)

    def advance(self, seconds: float) -> None:
        """Advance the virtual clock by a raw time amount (rarely needed)."""
        if seconds < 0:
            raise CommError(f"cannot advance clock by negative time {seconds}")
        self._endpoint.clock += seconds

    # -- point-to-point ------------------------------------------------------
    def send(
        self, dest: int, payload: Any, tag: int = 0, *, nbytes: int | None = None
    ) -> None:
        """Send *payload* to rank *dest* with the given *tag*.

        Buffered semantics: the call deposits the message and returns; the
        sender's clock pays the full transfer cost (store-and-forward
        model) and the message becomes visible to the receiver at the
        sender's post-send clock.

        The payload is detached from the sender at send time.  Ranks
        share one address space here, but the modelled machine has
        distributed memory: a sender mutating its buffer after the send
        must never affect the receiver (nor may a receiver's mutation
        reach back).  NumPy views are especially hazardous without this —
        a contiguous slab of a local array "sent" by reference would
        deliver whatever the array holds when the receiver is finally
        scheduled.  Detachment is copy-on-write: arrays are copied once
        and frozen read-only (a receiver that wants to mutate takes
        ``np.asarray(x).copy()``), and already-frozen payloads
        (collective forwards) are shared zero-copy.

        ``nbytes`` overrides the measured payload size when the caller
        already knows it — collectives forwarding a received message
        reuse its envelope's ``nbytes``.  It must equal
        ``nbytes_of(payload)``; virtual costs depend on it.
        """
        self._post(dest, payload, tag, nbytes, True)

    def _post(
        self, dest: int, payload: Any, tag: int, nbytes: int | None, blocking: bool
    ) -> Request | None:
        """Post one message: validate, detach, charge, deliver, trace.

        A blocking send pays the whole Hockney transfer, so its clock ends
        at the arrival stamp; a nonblocking one pays only the post
        overhead and returns the request whose completion waits out the
        wire (:meth:`_finish_send`).
        """
        if not 0 <= dest < self.size:
            self.check_peer(dest)
        if tag < 0 or MAX_USER_TAG <= tag < COLL_TAG_BASE:
            self._validate_send_tag(tag)
        size = _SCALAR_SIZE.get(type(payload))
        if size is None:
            payload, size = _freeze_measure(payload)
        if nbytes is None:
            nbytes = size + _OVERHEAD_BYTES
        congestion, alpha, beta, send_a, send_b, _, _ = self._costs
        ep = self._endpoint
        start = ep.clock
        arrival = start + (alpha + beta * nbytes) * congestion
        ep.clock = arrival if blocking else start + (send_a + send_b * nbytes) * congestion
        ep.send_seq += 1
        rank = self.global_rank
        global_dest = dest if self._group is None else self._group[dest]
        self._backend.deliver(
            _new_message(
                Message,
                (rank, global_dest, tag, payload, nbytes, arrival, ep.send_seq, self._ctx),
            )
        )
        tracer = self._tracer
        if blocking:
            if tracer is not None:
                tracer.comm(rank, "send", global_dest, tag, nbytes, start, arrival)
            return None
        req_id = ep.next_req
        ep.next_req += 1
        if tracer is not None:
            tracer.comm(
                rank, "send", global_dest, tag, nbytes, start, ep.clock, arrival=arrival
            )
            tracer.request(
                rank, ep.clock, "isend", "post", req_id, global_dest, tag, nbytes
            )
        request = _new_request(Request)
        request.kind = "send"
        request.owner = self
        request.req_id = req_id
        request.peer = dest
        request.tag = tag
        request.nbytes = nbytes
        request.complete_at = arrival
        request.done = False
        request.message = None
        return request

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive and return the payload of a matching message (blocking)."""
        return self.recv_msg(source, tag).payload

    def recv_msg(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        """Receive a matching message, returning the full envelope.

        The returned envelope's ``source`` is expressed in this
        communicator's (local) rank numbering.
        """
        global_source = source  # validated and mapped as in irecv and probe
        if source != ANY_SOURCE:
            if not 0 <= source < self.size:
                self.check_peer(source)
            if self._group is not None:
                global_source = self._group[source]
        msg = self._backend.wait_for_match(
            self.global_rank, global_source, tag, self._ctx, source
        )
        return self._finish_recv(msg, None)

    def _finish_recv(self, msg: Message, request: Request | None) -> Message:
        """Ingest *msg* on this rank; returns it with a local ``source``.

        The clock waits for the arrival (a blocked rank's clock does not
        move, so the wait is measured from the clock at the call), then
        pays the receiver's ingest overhead.  A request completion also
        tallies its wait, traces the arrival and the request's completion,
        and stores the envelope on *request*; a blocking receive
        (``request=None``) traces only its ``recv`` event, tallies no
        wait and fills no request.
        """
        congestion, _, _, _, _, recv_a, recv_b = self._costs
        ep = self._endpoint
        pre = ep.clock
        arrival = msg.arrival
        nbytes = msg.nbytes
        ep.clock = (arrival if arrival > pre else pre) + (recv_a + recv_b * nbytes) * congestion
        tracer = self._tracer
        if request is None:
            if tracer is not None:
                tracer.comm(self.global_rank, "recv", msg.source, msg.tag, nbytes, pre, ep.clock)
        else:
            ep.waits.append(arrival - pre if arrival > pre else 0.0)
            if tracer is not None:
                rank = self.global_rank
                tracer.comm(
                    rank, "recv", msg.source, msg.tag, nbytes, pre, ep.clock,
                    arrival=arrival,
                )
                tracer.request(
                    rank, ep.clock, "irecv", "complete", request.req_id,
                    msg.source, msg.tag, nbytes,
                )
        if self._group is not None:
            msg = msg._replace(source=self._group.index(msg.source))
        if request is not None:
            request.nbytes = nbytes
            request.message = msg
            request.done = True
        return msg

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True when a matching message is already waiting (non-blocking)."""
        global_source = source  # validated and mapped as in recv_msg
        if source != ANY_SOURCE:
            if not 0 <= source < self.size:
                self.check_peer(source)
            if self._group is not None:
                global_source = self._group[source]
        return self._backend.probe_match(self.global_rank, global_source, tag, self._ctx)

    # -- nonblocking point-to-point -----------------------------------------
    #
    # Cost model: ``isend`` charges only the sender-side post overhead and
    # records the wire-completion time on the request; ``irecv`` is free to
    # post.  Completion (``wait``/``waitall``/``waitany``) advances the
    # clock to at least the transfer's finish time, so compute performed
    # between post and wait is absorbed into ``max(compute, transfer)`` —
    # the compute/communication overlap the archetypes exploit.  An isend
    # (or irecv) followed immediately by its wait costs exactly the
    # blocking call, by construction.
    #
    # Each message event has one charge method, and every call that causes
    # the event goes through it: :meth:`_post` (``send``, ``isend``),
    # :meth:`_finish_send` (a send request's completion) and
    # :meth:`_finish_recv` (``recv_msg`` and a receive request's
    # completion).  A completion is charged by the request's owner — the
    # view that posted it, whose size sets the congestion and whose group
    # numbers the peers — even when another view of the rank waits on it.
    #
    # ``waitall`` observes completions in whatever order the backend
    # reports (the fuzzer perturbs this) but *charges* them in a canonical
    # order, so virtual clocks stay schedule-independent.  ``waitany`` is
    # inherently order-sensitive, like a wildcard receive, and is charged
    # at the observed completion.  ``sendrecv`` calls ``irecv``, ``isend``
    # and ``waitall``.

    def isend(
        self, dest: int, payload: Any, tag: int = 0, *, nbytes: int | None = None
    ) -> Request:
        """Post a nonblocking send; complete it with ``wait``/``waitall``.

        The payload is detached at post time (send-by-value, as for
        :meth:`send`) and delivered with the same arrival stamp a blocking
        send would produce; only the post overhead is charged here.
        ``nbytes`` as for :meth:`send`.
        """
        return self._post(dest, payload, tag, nbytes, False)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Post a nonblocking receive pattern; costs nothing until waited.

        Posting pins the match: the pattern binds to the message a
        blocking receive would take now (or the next matching delivery,
        oldest post first), and a bound message can
        no longer be stolen by other receives — MPI posted-receive
        semantics.  The request is itself the mailbox post.
        """
        global_source = source  # validated and mapped as in recv_msg
        if source != ANY_SOURCE:
            if not 0 <= source < self.size:
                self.check_peer(source)
            if self._group is not None:
                global_source = self._group[source]
        ep = self._endpoint
        req_id = ep.next_req
        ep.next_req += 1
        request = _new_request(Request)
        request.kind = "recv"
        request.owner = self
        request.req_id = req_id
        request.peer = source
        request.tag = tag
        request.source = global_source
        request.ctx = self._ctx
        request.nbytes = 0
        request.done = False
        request.message = None
        rank = self.global_rank
        self._backend.post_receive(rank, request)
        if self._tracer is not None:
            self._tracer.request(
                rank, ep.clock, "irecv", "post", req_id, global_source, tag, 0
            )
        return request

    def _check_request(self, request: Request) -> None:
        if request.owner._endpoint is not self._endpoint:
            raise CommError(
                f"request #{request.req_id} belongs to rank "
                f"{request.owner.global_rank}, not rank {self.global_rank}"
            )

    def _finish_send(self, request: Request) -> None:
        """Complete a send request on this rank: wait out the wire if it
        has not drained, tally the wait, trace the completion."""
        ep = self._endpoint
        pre = ep.clock
        finish = request.complete_at
        if finish > pre:
            ep.clock = finish
        request.done = True
        ep.waits.append(finish - pre if finish > pre else 0.0)
        if self._tracer is not None:
            self._tracer.request(
                self.global_rank, ep.clock, "isend", "complete", request.req_id,
                self._to_global(request.peer), request.tag, request.nbytes,
            )

    def wait(self, request: Request) -> Any:
        """Complete one request; returns the payload for receives."""
        self._check_request(request)
        if request.done:
            return request.payload if request.kind == "recv" else None
        if request.kind == "send":
            request.owner._finish_send(request)
            return None
        if request.message is None:
            label = ("wait", request.req_id, request.peer, request.tag, self._ctx)
            self._backend.wait_any_post(self.global_rank, (request,), label)
        request.owner._finish_recv(request.message, request)
        return request.message.payload

    def waitall(self, requests: list[Request]) -> list[Any]:
        """Complete every request; returns payloads (None at send slots).

        Completions are *observed* in backend order — the schedule fuzzer
        perturbs which fulfilled receive is drained first — but *charged*
        canonically (sends in list order, then receives sorted by arrival),
        so the virtual clock is independent of the observation order.

        ``choose_completion`` is consulted only when more than one receive
        is fulfillable: with a single candidate every backend returns
        position 0 without consuming randomness or tracing.
        """
        ep = self._endpoint
        pending: list[Request] = []
        for r in requests:
            if r.owner._endpoint is not ep:
                self._check_request(r)
            if r.kind == "recv" and not r.done:
                pending.append(r)
        fulfilled: list[Request] = []
        if pending:
            backend = self._backend
            rank = self.global_rank
            label = ("waitall", len(requests), self._ctx)
            while pending:
                ready = backend.wait_any_post(rank, tuple(pending), label)
                if len(ready) == 1:
                    r = ready[0]
                else:
                    candidates = []
                    for p in ready:
                        candidates.append((p.message.source, p.message.tag))
                    r = ready[backend.choose_completion(rank, candidates)]
                pending.remove(r)
                fulfilled.append(r)
        for r in requests:
            if r.kind == "send" and not r.done:
                r.owner._finish_send(r)
        if len(fulfilled) > 1:
            fulfilled.sort(key=_arrival_order)
        for r in fulfilled:
            r.owner._finish_recv(r.message, r)
        values = []
        for r in requests:  # a loop, not a comprehension: no frame of its own
            values.append(r.message.payload if r.kind == "recv" else None)
        return values

    def waitany(self, requests: list[Request]) -> tuple[int, Any]:
        """Complete exactly one incomplete request; returns (index, payload).

        Which request completes first is schedule-dependent (the fuzzer
        perturbs it), so — like a wildcard receive — the charge is applied
        at the observed completion rather than canonically.
        """
        for request in requests:
            self._check_request(request)
        incomplete = [(i, r) for i, r in enumerate(requests) if not r.done]
        if not incomplete:
            raise CommError("waitany requires at least one incomplete request")
        rank = self.global_rank
        ready = [
            (i, r)
            for i, r in incomplete
            if r.kind == "send" or self._backend.post_ready(rank, r)
        ]
        if not ready:
            label = ("waitany", len(incomplete), self._ctx)
            got = self._backend.wait_any_post(
                rank, tuple(r for _, r in incomplete), label
            )
            ready = [(i, r) for i, r in incomplete if r in got]
        candidates = []
        for _, r in ready:
            if r.kind == "send":
                candidates.append((r.owner._to_global(r.peer), r.tag))
            else:
                candidates.append((r.message.source, r.message.tag))
        pos = self._backend.choose_completion(rank, candidates)
        index, request = ready[pos]
        if request.kind == "send":
            request.owner._finish_send(request)
            return index, None
        request.owner._finish_recv(request.message, request)
        return index, request.payload

    def test(self, request: Request) -> bool:
        """True when *request* can complete without blocking the schedule.

        A true result means ``wait`` would not suspend the rank; it may
        still advance the virtual clock (the transfer finishing later in
        virtual time than "now" models post/wire pipelining).
        """
        self._check_request(request)
        if request.done:
            return True
        if request.kind == "send":
            return self._endpoint.clock >= request.complete_at
        return self._backend.post_ready(self.global_rank, request)

    # -- exchange helper -------------------------------------------------------
    def sendrecv(
        self,
        dest: int | None,
        payload: Any,
        source: int | None,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> Any:
        """Send to *dest* and receive from *source* as one deadlock-free,
        overlapped exchange; returns the received payload.

        Either peer may be ``None`` to skip that direction (the boundary
        of a non-periodic shifted exchange), in which case a skipped
        receive returns ``None``.

        It is ``irecv(source, recv_tag)``, ``isend(dest, payload,
        send_tag)`` and a ``waitall`` on the two.
        """
        recv_tag = send_tag if recv_tag is None else recv_tag
        reqs = [] if source is None else [self.irecv(source, recv_tag)]
        if dest is not None:
            reqs.append(self.isend(dest, payload, send_tag))
        values = self.waitall(reqs)
        return None if source is None else values[0]
