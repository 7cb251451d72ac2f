"""Chrome trace-event JSON export (Perfetto-viewable).

Converts a :class:`~repro.trace.tracer.Tracer`'s event logs to the
Trace Event Format understood by https://ui.perfetto.dev and
``chrome://tracing``:

- one track (``tid``) per rank, all under one process (``pid`` 0);
- a complete slice (``"ph": "X"``) per compute / send / recv event,
  with category ``compute`` / ``send`` / ``recv`` and the event's
  details (label, peer, tag, bytes, flops) in ``args``;
- explicit ``idle`` slices filling the gaps between a rank's events and
  the tail up to the run's makespan, so load imbalance is visible at a
  glance;
- a flow arrow (``"ph": "s"`` → ``"ph": "f"``) per message, drawn from
  the send slice to the matched recv slice (the finish point is the
  message's *arrival* — for nonblocking transfers that is after the
  send slice ends, the wire draining while the sender computes);
- instant events (``"ph": "i"``) for wildcard match decisions and
  request lifecycle marks (isend/irecv posts and completions).

Virtual seconds map to trace microseconds (the format's native unit).
:func:`validate_chrome_trace` checks the structural rules this module
relies on — the CI smoke gate (``make obs-smoke``) runs it on a fresh
export, and the test suite runs it on both valid and broken documents.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.critical import pair_rows
from repro.trace.tracer import (
    COMPUTE, END, IRECV, ISEND, KIND_NAMES, MATCH, ROW, SEND, START, Tracer, rows,
)  # fmt: skip

#: virtual seconds -> trace-event timestamp units (microseconds)
_US = 1e6

#: gaps shorter than this (seconds) are not worth an idle slice
_MIN_IDLE = 1e-12


class ChromeTraceError(ValueError):
    """An export does not conform to the trace-event structure we emit."""


def _slice(
    rank: int, name: str, cat: str, start: float, end: float, args: dict | None = None
) -> dict:
    out = {
        "ph": "X",
        "pid": 0,
        "tid": rank,
        "name": name,
        "cat": cat,
        "ts": start * _US,
        "dur": max(end - start, 0.0) * _US,
    }
    if args:
        out["args"] = args
    return out


def chrome_trace(tracer: Tracer) -> dict:
    """Build the trace document (a JSON-serialisable dict).

    Reads the tracer's columns directly; no event object is built.
    """
    makespan = tracer.makespan()
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro virtual machine"},
        }
    ]
    for rank in range(tracer.nprocs):
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "name": "thread_name",
                "args": {"name": f"rank {rank}"},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "name": "thread_sort_index",
                "args": {"sort_index": rank},
            }
        )

    for rank, log in enumerate(tracer.logs):
        cursor = 0.0
        for kind, start, end, peer, tag, nbytes, arrival, aux in rows(log):
            if start - cursor > _MIN_IDLE:
                events.append(_slice(rank, "idle", "idle", cursor, start))
            cursor = max(cursor, end)
            if kind == COMPUTE:
                events.append(
                    _slice(rank, aux or "compute", "compute", start, end, {"flops": nbytes})
                )
            elif kind == MATCH:
                events.append(
                    {
                        "ph": "i",
                        "pid": 0,
                        "tid": rank,
                        "name": f"match source={peer} tag={tag}",
                        "cat": "match",
                        "ts": start * _US,
                        "s": "t",
                        "args": {"candidates": list(aux)},
                    }
                )
            elif kind == ISEND or kind == IRECV:
                events.append(
                    {
                        "ph": "i",
                        "pid": 0,
                        "tid": rank,
                        "name": f"{KIND_NAMES[kind]} {aux} #{arrival}",
                        "cat": "request",
                        "ts": start * _US,
                        "s": "t",
                        "args": {
                            "peer": peer,
                            "tag": tag,
                            "nbytes": nbytes,
                            "req_id": arrival,
                        },
                    }
                )
            else:
                name = f"send -> {peer}" if kind == SEND else f"recv <- {peer}"
                events.append(
                    _slice(
                        rank,
                        name,
                        KIND_NAMES[kind],
                        start,
                        end,
                        {"peer": peer, "tag": tag, "nbytes": nbytes},
                    )
                )
        if makespan - cursor > _MIN_IDLE:
            events.append(_slice(rank, "idle", "idle", cursor, makespan))

    logs = tracer.logs
    for flow_id, (send_rank, send_index, recv_rank, recv_index, arrival) in enumerate(
        pair_rows(tracer), start=1
    ):
        # Arrow from inside the send slice to inside the recv slice: the
        # binding point is the message's arrival stamp (for nonblocking
        # sends that is after the send slice — the wire drains while the
        # sender computes), clamped into the recv slice for receives that
        # did not wait.
        recv, recv_log = recv_index * ROW, logs[recv_rank]
        arrival = min(max(arrival, recv_log[recv + START]), recv_log[recv + END])
        events.append(
            {
                "ph": "s",
                "pid": 0,
                "tid": send_rank,
                "name": "msg",
                "cat": "msg",
                "id": flow_id,
                "ts": logs[send_rank][send_index * ROW + START] * _US,
            }
        )
        events.append(
            {
                "ph": "f",
                "pid": 0,
                "tid": recv_rank,
                "name": "msg",
                "cat": "msg",
                "id": flow_id,
                "bp": "e",
                "ts": arrival * _US,
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.chrome",
            "nprocs": tracer.nprocs,
            "virtual_makespan_seconds": makespan,
        },
    }


#: phases this exporter may emit, and the keys each requires
_REQUIRED_KEYS = {
    "X": ("pid", "tid", "name", "cat", "ts", "dur"),
    "M": ("pid", "tid", "name", "args"),
    "s": ("pid", "tid", "name", "cat", "id", "ts"),
    "f": ("pid", "tid", "name", "cat", "id", "ts"),
    "i": ("pid", "tid", "name", "cat", "ts"),
}


def validate_chrome_trace(data: Any) -> list[str]:
    """Structural check of a trace document; returns a list of problems.

    An empty list means the document satisfies the trace-event rules
    this exporter relies on: the JSON-object container form, complete
    slices with non-negative durations, known metadata records, and
    fully paired flow arrows (every ``s`` has exactly one ``f`` with the
    same id, at a timestamp not before the start).
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"top level must be a JSON object, got {type(data).__name__}"]
    trace_events = data.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["'traceEvents' must be a list"]
    flow_starts: dict[Any, float] = {}
    flow_finishes: dict[Any, float] = {}
    for i, ev in enumerate(trace_events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _REQUIRED_KEYS:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        missing = [k for k in _REQUIRED_KEYS[ph] if k not in ev]
        if missing:
            problems.append(f"{where}: phase {ph!r} missing keys {missing}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev[key], int):
                problems.append(f"{where}: {key!r} must be an integer")
        if ph != "M" and not isinstance(ev["ts"], (int, float)):
            problems.append(f"{where}: 'ts' must be a number")
        if ph == "X":
            dur = ev["dur"]
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'dur' must be a non-negative number")
        if ph == "M" and not isinstance(ev["args"], dict):
            problems.append(f"{where}: metadata 'args' must be an object")
        if ph == "s":
            if ev["id"] in flow_starts:
                problems.append(f"{where}: duplicate flow start id {ev['id']!r}")
            flow_starts[ev["id"]] = ev["ts"]
        if ph == "f":
            if ev["id"] in flow_finishes:
                problems.append(f"{where}: duplicate flow finish id {ev['id']!r}")
            flow_finishes[ev["id"]] = ev["ts"]
    for fid, ts in flow_finishes.items():
        if fid not in flow_starts:
            problems.append(f"flow finish id {fid!r} has no matching start")
        elif ts < flow_starts[fid]:
            problems.append(f"flow id {fid!r} finishes before it starts")
    for fid in flow_starts:
        if fid not in flow_finishes:
            problems.append(f"flow start id {fid!r} has no matching finish")
    return problems


def export_chrome_trace(tracer: Tracer, path: str | Path) -> dict:
    """Validate and write the trace document to *path*; returns it.

    Raises :class:`ChromeTraceError` (without writing) if the generated
    document fails its own schema check — a guard against exporter
    regressions reaching Perfetto as silently broken files.
    """
    data = chrome_trace(tracer)
    problems = validate_chrome_trace(data)
    if problems:
        raise ChromeTraceError(
            "generated trace fails schema validation: " + "; ".join(problems[:5])
        )
    path = Path(path)
    with path.open("w") as fh:
        json.dump(data, fh, indent=1)
    return data
