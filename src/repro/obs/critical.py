"""Critical-path analysis of a traced SPMD run.

The runtime's virtual clocks already encode a happens-before order:

- events on one rank are totally ordered (each begins where the
  previous one ended, modulo explicit untraced ``advance`` calls);
- a receive happens after the send it matched (the message's arrival
  time is the sender's post-send clock, and the receiver's clock is
  advanced to at least that arrival before the ingest overhead).

This module reconstructs that DAG from a :class:`~repro.trace.tracer.Tracer`'s
event logs — pairing each recv with its send by per-channel FIFO order,
which is exactly the mailbox's matching order for a single channel — and
walks it backwards from the event that ends last.  At every step the
*binding* predecessor is the one whose end time actually constrained the
current event's completion: for a receive that waited, the matched send;
otherwise the rank-local predecessor.  The resulting chain of exclusive
contributions tiles ``[0, makespan]`` exactly, so the reported path
length always equals the run's virtual makespan — the property the test
suite asserts on multiple archetype applications.

Caveat: pairing is by (source, dest, tag) channel and ignores the
communication context of sub-communicators created by ``split()``; two
contexts reusing one tag on the same channel can mispair.  All shipped
applications and collectives are unaffected (contexts never interleave
same-tag traffic on one channel).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.trace.events import CommEvent, ComputeEvent, Event, MatchEvent
from repro.trace.tracer import (
    ARRIVAL, COMPUTE, END, KIND, NBYTES, PEER, RECV, ROW, SEND, START, TAG, Tracer,
)  # fmt: skip


def message_arrival(recv_arrival: float, send_arrival: float, send_end: float) -> float:
    """When a message reached the receiver's mailbox (virtual time).

    Prefers the arrival stamp recorded on either event (nonblocking
    transfers end their send event at the post overhead, well before
    the wire drains); a blocking send's end *is* the arrival.
    """
    if recv_arrival >= 0.0:
        return recv_arrival
    if send_arrival >= 0.0:
        return send_arrival
    return send_end


@dataclass(frozen=True)
class MessagePair:
    """A matched send/recv pair (one message's two trace events)."""

    send_rank: int
    send_index: int
    send: CommEvent
    recv_rank: int
    recv_index: int
    recv: CommEvent

    @property
    def arrival(self) -> float:
        """When the message reached the receiver's mailbox (see
        :func:`message_arrival`)."""
        return message_arrival(self.recv.arrival, self.send.arrival, self.send.end)

    @property
    def wait(self) -> float:
        """Virtual time the receiver spent waiting for this message."""
        return min(max(self.arrival - self.recv.start, 0.0), self.recv.duration)


def pair_rows(tracer: Tracer) -> list[tuple[int, int, int, int, float]]:
    """Match send rows to recv rows by per-channel FIFO order.

    Channels are (source, dest, tag) triples.  Within a channel the
    mailbox takes messages in send order (a FIFO per channel, whatever
    their arrivals), so pairing the k-th send with the k-th recv
    reconstructs the actual matching.  Returns ``(send_rank,
    send_index, recv_rank, recv_index, arrival)`` per message (see
    :func:`message_arrival`), in receive order: by receiving rank, then
    position in its log.  Unmatched events (none in a completed run)
    are skipped.
    """
    logs = tracer.logs
    pending: dict[tuple[int, int, int], deque[tuple[int, int]]] = {}
    for rank, log in enumerate(logs):
        for index, (kind, peer, tag) in enumerate(
            zip(log[KIND::ROW], log[PEER::ROW], log[TAG::ROW])
        ):
            if kind == SEND:
                pending.setdefault((rank, peer, tag), deque()).append((rank, index))
    pairs: list[tuple[int, int, int, int, float]] = []
    for rank, log in enumerate(logs):
        for index, (kind, peer, tag, arrival) in enumerate(
            zip(log[KIND::ROW], log[PEER::ROW], log[TAG::ROW], log[ARRIVAL::ROW])
        ):
            if kind == RECV:
                queue = pending.get((peer, rank, tag))
                if queue:
                    send_rank, send_index = queue.popleft()
                    send = send_index * ROW
                    send_log = logs[send_rank]
                    arrival = message_arrival(
                        arrival, send_log[send + ARRIVAL], send_log[send + END]
                    )
                    pairs.append((send_rank, send_index, rank, index, arrival))
    return pairs


def pair_messages(tracer: Tracer) -> list[MessagePair]:
    """:func:`pair_rows` with each pair's two events built."""
    return [
        MessagePair(
            send_rank, send_index, tracer.event(send_rank, send_index),
            recv_rank, recv_index, tracer.event(recv_rank, recv_index),
        )  # fmt: skip
        for send_rank, send_index, recv_rank, recv_index, _ in pair_rows(tracer)
    ]


def _event_kind(ev: Event) -> str:
    if isinstance(ev, ComputeEvent):
        return "compute"
    if isinstance(ev, MatchEvent):
        return "match"
    if isinstance(ev, CommEvent):
        return ev.kind
    return "event"


def _event_label(ev: Event) -> str:
    if isinstance(ev, ComputeEvent):
        return ev.label or "(unlabelled compute)"
    if isinstance(ev, MatchEvent):
        return f"match(source={ev.source}, tag={ev.tag})"
    if isinstance(ev, CommEvent):
        peer = "sends to" if ev.kind == "send" else "receives from"
        return f"{peer} rank {ev.peer} (tag {ev.tag}, {ev.nbytes} B)"
    return type(ev).__name__


@dataclass(frozen=True)
class PathSegment:
    """One event's exclusive contribution to the critical path.

    ``start`` is where the binding predecessor released this event (not
    necessarily the event's own start: a receive that waited contributes
    only its post-arrival ingest overhead, because the wait overlaps the
    sender's chain).  Consecutive segments tile the timeline exactly.
    """

    rank: int
    kind: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathReport:
    """The longest virtual-time chain through a traced run."""

    makespan: float
    segments: list[PathSegment] = field(default_factory=list)

    @property
    def length(self) -> float:
        """Total path length; equals :attr:`makespan` by construction."""
        return sum(seg.duration for seg in self.segments)

    @property
    def breakdown(self) -> dict[str, float]:
        """Path time by segment kind (compute / send / recv / match)."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.kind] = out.get(seg.kind, 0.0) + seg.duration
        return out

    @property
    def rank_switches(self) -> int:
        """How many times the path hops between ranks (message edges)."""
        return sum(
            1 for a, b in zip(self.segments, self.segments[1:]) if a.rank != b.rank
        )

    def render(self, top: int = 12) -> str:
        """Human-readable report: totals, breakdown, heaviest segments."""
        lines = [
            f"critical path: {self.length:.6g}s over {len(self.segments)} events, "
            f"{self.rank_switches} rank switch(es) (makespan {self.makespan:.6g}s)"
        ]
        total = self.length or 1.0
        for kind, seconds in sorted(
            self.breakdown.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {kind:>8}: {seconds:.6g}s ({seconds / total:6.1%})")
        heavy = sorted(self.segments, key=lambda s: -s.duration)[:top]
        if heavy:
            lines.append(f"  heaviest segments (top {len(heavy)}):")
            for seg in heavy:
                lines.append(
                    f"    rank {seg.rank:>3} {seg.kind:>7} "
                    f"[{seg.start:.6g}s .. {seg.end:.6g}s] "
                    f"{seg.duration:.6g}s  {seg.label}"
                )
        return "\n".join(lines)


def critical_path(tracer: Tracer) -> CriticalPathReport:
    """Walk the happens-before DAG backwards from the last event to end.

    At each event the binding predecessor is the one with the latest end
    time among (a) the previous event on the same rank and (b) for a
    receive, the matched send — the constraint that actually determined
    when the event could complete.  Each event contributes the interval
    from its binding predecessor's end to its own end, so the segment
    durations telescope to the makespan.  The walk reads the columns;
    only the events on the path are built.
    """
    makespan = tracer.makespan()
    report = CriticalPathReport(makespan=makespan)
    if makespan <= 0.0:
        return report

    ends = [log[END::ROW] for log in tracer.logs]
    send_of = {
        (recv_rank, recv_index): (send_rank, send_index, arrival)
        for send_rank, send_index, recv_rank, recv_index, arrival in pair_rows(tracer)
    }

    # Terminal: the event that ends last (ties broken by lowest rank).
    terminal: tuple[int, int] | None = None
    for rank, rank_ends in enumerate(ends):
        for index, end in enumerate(rank_ends):
            if terminal is None or end > ends[terminal[0]][terminal[1]]:
                terminal = (rank, index)
    assert terminal is not None

    segments: list[PathSegment] = []
    rank, index = terminal
    while True:
        ev = tracer.event(rank, index)
        pred: tuple[int, int] | None = None
        if index > 0:
            pred = (rank, index - 1)
        sender = send_of.get((rank, index))
        if sender is not None:
            # The send binds when the message's *arrival* is later than
            # the local predecessor's end (i.e. the receiver actually
            # waited on the wire).  For nonblocking sends the send event
            # ends at the post overhead, so compare against the arrival
            # stamp; a blocking send's end is its arrival.
            send_rank, send_index, arrival = sender
            if pred is None or arrival > ends[pred[0]][pred[1]]:
                pred = (send_rank, send_index)
        released = ends[pred[0]][pred[1]] if pred is not None else 0.0
        segments.append(
            PathSegment(
                rank=ev.rank,
                kind=_event_kind(ev),
                label=_event_label(ev),
                start=released,
                end=ev.end,
            )
        )
        if pred is None:
            break
        rank, index = pred
    segments.reverse()
    report.segments = segments
    return report


@dataclass(frozen=True)
class RankActivity:
    """Where one rank's virtual timeline went."""

    rank: int
    compute: float
    send: float
    recv: float
    #: portion of recv time spent waiting for messages not yet arrived
    wait: float
    #: gaps between traced events plus lead-in/tail-out to the makespan
    idle: float

    @property
    def busy(self) -> float:
        return self.compute + self.send + (self.recv - self.wait)


def rank_activity(tracer: Tracer) -> list[RankActivity]:
    """Per-rank busy/wait/idle breakdown against the trace makespan."""
    makespan = tracer.makespan()
    logs = tracer.logs
    waits: dict[tuple[int, int], float] = {}
    for _, _, recv_rank, recv_index, arrival in pair_rows(tracer):
        row, log = recv_index * ROW, logs[recv_rank]
        start, end = log[row + START], log[row + END]
        waits[recv_rank, recv_index] = min(max(arrival - start, 0.0), end - start)
    out: list[RankActivity] = []
    for rank, log in enumerate(logs):
        compute = send = recv = wait = 0.0
        idle = 0.0
        cursor = 0.0
        for index, (kind, start, end) in enumerate(
            zip(log[KIND::ROW], log[START::ROW], log[END::ROW])
        ):
            idle += max(start - cursor, 0.0)
            cursor = max(cursor, end)
            if kind == COMPUTE:
                compute += end - start
            elif kind == SEND:
                send += end - start
            elif kind == RECV:
                recv += end - start
                wait += waits.get((rank, index), 0.0)
        idle += max(makespan - cursor, 0.0)
        out.append(
            RankActivity(
                rank=rank, compute=compute, send=send, recv=recv, wait=wait, idle=idle
            )
        )
    return out


def comm_matrix(tracer: Tracer) -> tuple[list[list[int]], list[list[int]]]:
    """Rank x rank communication matrices from the send rows.

    Returns ``(messages, bytes)``: ``messages[src][dst]`` is how many
    messages *src* sent to *dst*, ``bytes[src][dst]`` the payload total.
    """
    n = tracer.nprocs
    messages = [[0] * n for _ in range(n)]
    volume = [[0] * n for _ in range(n)]
    for rank, log in enumerate(tracer.logs):
        for kind, peer, nbytes in zip(log[KIND::ROW], log[PEER::ROW], log[NBYTES::ROW]):
            if kind == SEND and 0 <= peer < n:
                messages[rank][peer] += 1
                volume[rank][peer] += nbytes
    return messages, volume


def render_comm_matrix(tracer: Tracer) -> str:
    """ASCII rank x rank matrix: ``messages/bytes`` per cell."""
    messages, volume = comm_matrix(tracer)
    n = tracer.nprocs
    cells = [
        [f"{messages[i][j]}/{volume[i][j]}" if messages[i][j] else "." for j in range(n)]
        for i in range(n)
    ]
    width = max((len(c) for row in cells for c in row), default=1)
    width = max(width, len(str(n - 1)))
    header = "src\\dst " + " ".join(str(j).rjust(width) for j in range(n))
    lines = [header]
    for i in range(n):
        lines.append(
            f"{i:>7} " + " ".join(cells[i][j].rjust(width) for j in range(n))
        )
    lines.append("(cells: messages/bytes)")
    return "\n".join(lines)
