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
from repro.trace.tracer import Tracer


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
        """When the message reached the receiver's mailbox (virtual time).

        Prefers the arrival stamp recorded on either event (nonblocking
        transfers end their send event at the post overhead, well before
        the wire drains); a blocking send's end *is* the arrival.
        """
        if self.recv.arrival >= 0.0:
            return self.recv.arrival
        if self.send.arrival >= 0.0:
            return self.send.arrival
        return self.send.end

    @property
    def wait(self) -> float:
        """Virtual time the receiver spent waiting for this message."""
        return min(max(self.arrival - self.recv.start, 0.0), self.recv.duration)


def pair_messages(tracer: Tracer) -> list[MessagePair]:
    """Match send events to recv events by per-channel FIFO order.

    Channels are (source, dest, tag) triples.  Within a channel the
    mailbox takes messages in send order (a FIFO per channel, whatever
    their arrivals), so pairing the k-th send with the k-th recv
    reconstructs the actual matching.
    Unmatched events (none in a completed run) are skipped.
    """
    pending: dict[tuple[int, int, int], deque[tuple[int, int, CommEvent]]] = {}
    for rank in range(tracer.nprocs):
        for index, ev in enumerate(tracer.events_for(rank)):
            if isinstance(ev, CommEvent) and ev.kind == "send":
                key = (ev.rank, ev.peer, ev.tag)
                pending.setdefault(key, deque()).append((rank, index, ev))
    pairs: list[MessagePair] = []
    for rank in range(tracer.nprocs):
        for index, ev in enumerate(tracer.events_for(rank)):
            if isinstance(ev, CommEvent) and ev.kind == "recv":
                queue = pending.get((ev.peer, ev.rank, ev.tag))
                if queue:
                    send_rank, send_index, send = queue.popleft()
                    pairs.append(
                        MessagePair(send_rank, send_index, send, rank, index, ev)
                    )
    return pairs


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


def trace_makespan(tracer: Tracer) -> float:
    """The latest event end time across all ranks (0.0 for an empty trace)."""
    return max(
        (ev.end for rank in range(tracer.nprocs) for ev in tracer.events_for(rank)),
        default=0.0,
    )


def critical_path(tracer: Tracer) -> CriticalPathReport:
    """Walk the happens-before DAG backwards from the last event to end.

    At each event the binding predecessor is the one with the latest end
    time among (a) the previous event on the same rank and (b) for a
    receive, the matched send — the constraint that actually determined
    when the event could complete.  Each event contributes the interval
    from its binding predecessor's end to its own end, so the segment
    durations telescope to the makespan.
    """
    makespan = trace_makespan(tracer)
    report = CriticalPathReport(makespan=makespan)
    if makespan <= 0.0:
        return report

    events = [tracer.events_for(rank) for rank in range(tracer.nprocs)]
    send_of: dict[int, tuple[int, int]] = {
        id(pair.recv): (pair.send_rank, pair.send_index)
        for pair in pair_messages(tracer)
    }

    # Terminal: the event that ends last (ties broken by lowest rank).
    terminal: tuple[int, int] | None = None
    for rank in range(tracer.nprocs):
        for index, ev in enumerate(events[rank]):
            if terminal is None or ev.end > events[terminal[0]][terminal[1]].end:
                terminal = (rank, index)
    assert terminal is not None

    segments: list[PathSegment] = []
    rank, index = terminal
    while True:
        ev = events[rank][index]
        pred: tuple[int, int] | None = None
        if index > 0:
            pred = (rank, index - 1)
        if isinstance(ev, CommEvent) and ev.kind == "recv":
            sender = send_of.get(id(ev))
            if sender is not None:
                send_ev = events[sender[0]][sender[1]]
                # The send binds when the message's *arrival* is later
                # than the local predecessor's end (i.e. the receiver
                # actually waited on the wire).  For nonblocking sends the
                # send event ends at the post overhead, so compare against
                # the arrival stamp; a blocking send's end is its arrival.
                arrival = ev.arrival
                if arrival < 0.0:
                    arrival = (
                        send_ev.arrival if send_ev.arrival >= 0.0 else send_ev.end
                    )
                if pred is None or arrival > events[pred[0]][pred[1]].end:
                    pred = sender
        released = events[pred[0]][pred[1]].end if pred is not None else 0.0
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
    makespan = trace_makespan(tracer)
    wait_by_rank = [0.0] * tracer.nprocs
    waits: dict[int, float] = {}
    for pair in pair_messages(tracer):
        waits[id(pair.recv)] = pair.wait
    out: list[RankActivity] = []
    for rank in range(tracer.nprocs):
        compute = send = recv = wait = 0.0
        idle = 0.0
        cursor = 0.0
        for ev in tracer.events_for(rank):
            idle += max(ev.start - cursor, 0.0)
            cursor = max(cursor, ev.end)
            if isinstance(ev, ComputeEvent):
                compute += ev.duration
            elif isinstance(ev, CommEvent):
                if ev.kind == "send":
                    send += ev.duration
                else:
                    recv += ev.duration
                    wait += waits.get(id(ev), 0.0)
        idle += max(makespan - cursor, 0.0)
        wait_by_rank[rank] = wait
        out.append(
            RankActivity(
                rank=rank, compute=compute, send=send, recv=recv, wait=wait, idle=idle
            )
        )
    return out


def comm_matrix(tracer: Tracer) -> tuple[list[list[int]], list[list[int]]]:
    """Rank x rank communication matrices from the send events.

    Returns ``(messages, bytes)``: ``messages[src][dst]`` is how many
    messages *src* sent to *dst*, ``bytes[src][dst]`` the payload total.
    """
    n = tracer.nprocs
    messages = [[0] * n for _ in range(n)]
    volume = [[0] * n for _ in range(n)]
    for rank in range(n):
        for ev in tracer.events_for(rank):
            if isinstance(ev, CommEvent) and ev.kind == "send" and 0 <= ev.peer < n:
                messages[ev.rank][ev.peer] += 1
                volume[ev.rank][ev.peer] += ev.nbytes
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
