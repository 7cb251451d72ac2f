"""Trace analysis: per-rank and aggregate summaries of an SPMD execution."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.events import CommEvent, ComputeEvent
from repro.trace.tracer import Tracer


@dataclass
class RankSummary:
    """Aggregate statistics for one rank's trace."""

    rank: int
    compute_time: float = 0.0
    send_time: float = 0.0
    recv_time: float = 0.0
    #: virtual time with no event in progress: gaps between this rank's
    #: events plus the tail from its last event to the run's makespan
    idle_time: float = 0.0
    flops: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    @property
    def comm_time(self) -> float:
        return self.send_time + self.recv_time


@dataclass
class TraceSummary:
    """Whole-run statistics derived from a :class:`Tracer`."""

    ranks: list[RankSummary] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return sum(r.messages_sent for r in self.ranks)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.ranks)

    @property
    def total_bytes_received(self) -> int:
        return sum(r.bytes_received for r in self.ranks)

    @property
    def total_idle_time(self) -> float:
        return sum(r.idle_time for r in self.ranks)

    @property
    def total_flops(self) -> float:
        return sum(r.flops for r in self.ranks)

    @property
    def max_comm_time(self) -> float:
        return max((r.comm_time for r in self.ranks), default=0.0)

    def comm_fraction(self) -> float:
        """Fraction of the busiest-rank timeline spent communicating."""
        busiest = max(
            (r.comm_time + r.compute_time for r in self.ranks), default=0.0
        )
        return 0.0 if busiest == 0 else self.max_comm_time / busiest


def phase_breakdown(tracer: Tracer) -> dict[str, float]:
    """Total charged compute time per label across all ranks.

    Labels are the strings applications pass to ``charge``/grid ops
    (``"solve"``, ``"merge:combine"``, ``"lf-update"``, ...), so the
    breakdown maps directly onto the archetype's phases.
    """
    out: dict[str, float] = {}
    for rank in range(tracer.nprocs):
        for ev in tracer.events_for(rank):
            if isinstance(ev, ComputeEvent):
                key = ev.label or "(unlabelled)"
                out[key] = out.get(key, 0.0) + ev.duration
    return out


def render_gantt(
    tracer: Tracer, width: int = 72, compute_char: str = "#", comm_char: str = "."
) -> str:
    """ASCII Gantt chart of the run: one row per rank, virtual time on
    the x-axis; ``#`` marks charged compute, ``.`` communication
    (including waits), space idle-at-end."""
    end = max(
        (ev.end for rank in range(tracer.nprocs) for ev in tracer.events_for(rank)),
        default=0.0,
    )
    if end <= 0:
        return "(empty trace)"
    lines = [f"virtual time 0 .. {end:.4g}s ({compute_char}=compute, {comm_char}=comm)"]
    for rank in range(tracer.nprocs):
        row = [" "] * width
        for ev in tracer.events_for(rank):
            lo = int(ev.start / end * (width - 1))
            hi = max(int(ev.end / end * (width - 1)), lo)
            mark = compute_char if isinstance(ev, ComputeEvent) else comm_char
            for x in range(lo, hi + 1):
                # compute wins over comm when events round to one cell
                if row[x] != compute_char:
                    row[x] = mark
        lines.append(f"rank {rank:>3} |{''.join(row)}|")
    return "\n".join(lines)


def summarize(tracer: Tracer) -> TraceSummary:
    """Reduce a tracer's event lists to a :class:`TraceSummary`.

    Idle time is derived from the gaps the event lists leave open: the
    lead-in before a rank's first event, gaps between consecutive
    events, and the tail from its last event to the run's makespan (the
    latest end time across all ranks).
    """
    makespan = max(
        (ev.end for rank in range(tracer.nprocs) for ev in tracer.events_for(rank)),
        default=0.0,
    )
    summary = TraceSummary()
    for rank in range(tracer.nprocs):
        rs = RankSummary(rank=rank)
        cursor = 0.0
        for ev in tracer.events_for(rank):
            rs.idle_time += max(ev.start - cursor, 0.0)
            cursor = max(cursor, ev.end)
            if isinstance(ev, ComputeEvent):
                rs.compute_time += ev.duration
                rs.flops += ev.flops
            elif isinstance(ev, CommEvent):
                if ev.kind == "send":
                    rs.send_time += ev.duration
                    rs.messages_sent += 1
                    rs.bytes_sent += ev.nbytes
                else:
                    rs.recv_time += ev.duration
                    rs.messages_received += 1
                    rs.bytes_received += ev.nbytes
        rs.idle_time += max(makespan - cursor, 0.0)
        summary.ranks.append(rs)
    return summary
