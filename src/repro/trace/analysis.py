"""Trace analysis: per-rank and aggregate summaries of an SPMD execution."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.tracer import (
    AUX, COMPUTE, END, KIND, NBYTES, RECV, ROW, SEND, START, Tracer,
)  # fmt: skip


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
    for log in tracer.logs:
        for kind, start, end, label in zip(
            log[KIND::ROW], log[START::ROW], log[END::ROW], log[AUX::ROW]
        ):
            if kind == COMPUTE:
                key = label or "(unlabelled)"
                out[key] = out.get(key, 0.0) + (end - start)
    return out


def render_gantt(
    tracer: Tracer, width: int = 72, compute_char: str = "#", comm_char: str = "."
) -> str:
    """ASCII Gantt chart of the run: one row per rank, virtual time on
    the x-axis; ``#`` marks charged compute, ``.`` communication
    (including waits), space idle-at-end."""
    end = tracer.makespan()
    if end <= 0:
        return "(empty trace)"
    lines = [f"virtual time 0 .. {end:.4g}s ({compute_char}=compute, {comm_char}=comm)"]
    for rank, log in enumerate(tracer.logs):
        row = [" "] * width
        for kind, ev_start, ev_end in zip(log[KIND::ROW], log[START::ROW], log[END::ROW]):
            lo = int(ev_start / end * (width - 1))
            hi = max(int(ev_end / end * (width - 1)), lo)
            mark = compute_char if kind == COMPUTE else comm_char
            for x in range(lo, hi + 1):
                # compute wins over comm when events round to one cell
                if row[x] != compute_char:
                    row[x] = mark
        lines.append(f"rank {rank:>3} |{''.join(row)}|")
    return "\n".join(lines)


def summarize(tracer: Tracer) -> TraceSummary:
    """Reduce a tracer's logs to a :class:`TraceSummary`.

    Idle time is derived from the gaps the logs leave open: the lead-in
    before a rank's first event, gaps between consecutive events, and
    the tail from its last event to the run's makespan (the latest end
    time across all ranks).  Reads the kind, start, end and nbytes
    columns; no event object is built.
    """
    makespan = tracer.makespan()
    summary = TraceSummary()
    for rank, log in enumerate(tracer.logs):
        cursor = 0.0
        compute_time = send_time = recv_time = idle_time = flops = 0.0
        sent = received = bytes_sent = bytes_received = 0
        for kind, start, end, amount in zip(
            log[KIND::ROW], log[START::ROW], log[END::ROW], log[NBYTES::ROW]
        ):
            idle_time += max(start - cursor, 0.0)
            cursor = max(cursor, end)
            if kind == COMPUTE:
                compute_time += end - start
                flops += amount
            elif kind == SEND:
                send_time += end - start
                sent += 1
                bytes_sent += amount
            elif kind == RECV:
                recv_time += end - start
                received += 1
                bytes_received += amount
        summary.ranks.append(
            RankSummary(
                rank=rank,
                compute_time=compute_time,
                send_time=send_time,
                recv_time=recv_time,
                idle_time=idle_time + max(makespan - cursor, 0.0),
                flops=flops,
                messages_sent=sent,
                messages_received=received,
                bytes_sent=bytes_sent,
                bytes_received=bytes_received,
            )
        )
    return summary
