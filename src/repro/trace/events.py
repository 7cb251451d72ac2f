"""Event records emitted by the runtime when tracing is enabled."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Event:
    """Base event: something that happened on a rank at a virtual time."""

    rank: int
    #: virtual time at which the event began (seconds)
    start: float
    #: virtual time at which the event completed (seconds)
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CommEvent(Event):
    """A point-to-point communication action.

    ``kind`` is ``"send"`` or ``"recv"``; ``peer`` is the other rank;
    ``nbytes`` the estimated payload size; ``tag`` the message tag.
    For a ``recv``, ``start`` is when the rank began waiting and ``end``
    when the message had been consumed, so ``duration`` includes idle
    (wait) time.
    """

    kind: str = "send"
    peer: int = -1
    tag: int = 0
    nbytes: int = 0
    #: virtual arrival time of the message (receiver side), when known.
    #: For a nonblocking send the slice covers only the post overhead, so
    #: ``end`` understates when the wire transfer finished; ``arrival``
    #: carries the true completion for wait/critical-path accounting.
    #: ``-1.0`` means not recorded (pre-request-layer events).
    arrival: float = -1.0


@dataclass(frozen=True)
class MatchEvent(Event):
    """A nondeterministic matching decision (recorded under a seeded policy).

    ``source``/``tag`` identify the message actually taken;
    ``wildcard_source``/``wildcard_tag`` say which pattern fields of the
    receive were wildcards; ``candidates`` is the sorted tuple of distinct
    source ranks whose oldest pending message could legally have matched
    at decision time.  ``len(candidates) > 1`` with a wildcard source is a
    *wildcard race*: the program's behaviour may depend on arrival order.
    ``start == end`` (the decision is instantaneous in virtual time).

    ``completion=True`` marks the other flavour of legal nondeterminism:
    a ``waitany``/``waitall`` over several fulfilled nonblocking requests
    picked one completion order among many.  Those are recorded for
    observability but are *not* wildcard races (the pattern fields are
    concrete); :func:`repro.verify.races.scan_completion_races` reports
    them separately.
    """

    source: int = -1
    tag: int = -1
    wildcard_source: bool = False
    wildcard_tag: bool = False
    candidates: tuple[int, ...] = ()
    completion: bool = False


@dataclass(frozen=True)
class RequestEvent(Event):
    """Lifecycle marker of a nonblocking communication request.

    ``kind`` is ``"isend"`` or ``"irecv"``; ``op`` is ``"post"`` or
    ``"complete"``; ``req_id`` ties the two markers of one request
    together (unique per rank).  ``start == end`` — the marker is an
    instant; the virtual time the request occupied lives between its two
    markers, overlapping whatever the rank computed in between.
    """

    kind: str = "isend"
    op: str = "post"
    req_id: int = -1
    peer: int = -1
    tag: int = 0
    nbytes: int = 0


@dataclass(frozen=True)
class ComputeEvent(Event):
    """A charged compute region; ``flops`` is the useful work accounted."""

    flops: float = 0.0
    label: str = ""
