"""Event collection: one append-only column store per rank.

A :class:`Tracer` keeps one flat list per rank, ``logs[rank]``, holding
fixed-width rows of :data:`ROW` slots laid end to end.  Recording an
event is one ``list.extend``; a column is a strided slice
(``log[START::ROW]``), so readers such as
:func:`~repro.trace.analysis.summarize` and
:func:`~repro.obs.chrome.chrome_trace` walk plain lists of numbers and
never build an object per event.  The log pickles as a few flat lists,
which is what the process engine ships home and the serve cache stores.

Row layout (slot offsets ``KIND`` .. ``AUX``):

==============  ======  =====  ======  ===  ======  =======  ===========
kind            start   end    peer    tag  nbytes  arrival  aux
==============  ======  =====  ======  ===  ======  =======  ===========
``SEND/RECV``   start   end    peer    tag  nbytes  arrival  ``None``
``ISEND/IRECV`` clock   clock  peer    tag  nbytes  req_id   op
``COMPUTE``     start   end    --      --   flops   --       label
``MATCH``       clock   clock  source  tag  flags   --       candidates
==============  ======  =====  ======  ===  ======  =======  ===========

``ISEND``/``IRECV`` rows are request lifecycle marks (``op`` is
``"post"`` or ``"complete"``); a ``MATCH`` row's flags are the bits
:data:`WILDCARD_SOURCE`, :data:`WILDCARD_TAG` and :data:`COMPLETION`.
Slots marked ``--`` hold ``None``.  Values are stored as the runtime
passed them (an ``int`` flop count stays an ``int``), so the
:class:`~repro.trace.events.Event` objects that :meth:`Tracer.events_for`
builds on demand are equal, field for field and in ``repr``, to the ones
the runtime would have built itself.

The deterministic scheduler runs at most one rank at a time, so appends
need no locking there; the concurrent engines append only to the calling
rank's own list, which is also safe (each list has one writer).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.trace.events import CommEvent, ComputeEvent, Event, MatchEvent, RequestEvent

#: kind codes (the ``KIND`` slot); :data:`KIND_NAMES` maps them back
SEND, RECV, ISEND, IRECV, COMPUTE, MATCH = range(6)
KIND_NAMES = ("send", "recv", "isend", "irecv", "compute", "match")
_CODES = {name: code for code, name in enumerate(KIND_NAMES)}

#: slot offsets within a row, and the row width
KIND, START, END, PEER, TAG, NBYTES, ARRIVAL, AUX = range(8)
ROW = 8

#: flag bits of a ``MATCH`` row's ``NBYTES`` slot
WILDCARD_SOURCE, WILDCARD_TAG, COMPLETION = 1, 2, 4


class Tracer:
    """Collects events for an SPMD run of ``nprocs`` ranks."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        #: one flat row-major log per rank (see the module docstring)
        self.logs: list[list] = [[] for _ in range(nprocs)]

    @classmethod
    def from_logs(cls, logs: list[list]) -> Tracer:
        """A tracer over per-rank logs recorded elsewhere (a worker
        process, a cache file)."""
        tracer = cls(len(logs))
        tracer.logs = logs
        return tracer

    def comm(
        self,
        rank: int,
        kind: str,
        peer: int,
        tag: int,
        nbytes: int,
        start: float,
        end: float,
        arrival: float = -1.0,
    ) -> None:
        self.logs[rank].extend(
            (_CODES[kind], start, end, peer, tag, nbytes, arrival, None)
        )

    def compute(self, rank: int, flops: float, label: str, start: float, end: float) -> None:
        self.logs[rank].extend((COMPUTE, start, end, None, None, flops, None, label))

    def match(
        self,
        rank: int,
        clock: float,
        source: int,
        tag: int,
        wildcard_source: bool,
        wildcard_tag: bool,
        candidates: tuple[int, ...],
        completion: bool = False,
    ) -> None:
        flags = (
            wildcard_source * WILDCARD_SOURCE
            | wildcard_tag * WILDCARD_TAG
            | completion * COMPLETION
        )
        self.logs[rank].extend(
            (MATCH, clock, clock, source, tag, flags, None, candidates)
        )

    def request(
        self,
        rank: int,
        clock: float,
        kind: str,
        op: str,
        req_id: int,
        peer: int,
        tag: int,
        nbytes: int,
    ) -> None:
        self.logs[rank].extend((_CODES[kind], clock, clock, peer, tag, nbytes, req_id, op))

    def adopt(self, rank: int, log: list) -> None:
        """Install *rank*'s log wholesale.

        Used by the process-parallel backend to merge logs that were
        recorded in a worker process back into the parent's tracer;
        per-rank logs are independent, so adoption is a plain slot
        assignment.
        """
        self.logs[rank] = log

    def makespan(self) -> float:
        """The latest event end time across all ranks (0.0 when empty)."""
        return max(
            (end for log in self.logs for end in log[END::ROW]), default=0.0
        )

    def event(self, rank: int, index: int) -> Event:
        """*rank*'s *index*-th event as an :class:`Event`, built on demand."""
        return _event(rank, self.logs[rank][index * ROW : (index + 1) * ROW])

    def events_for(self, rank: int) -> list[Event]:
        """*rank*'s events as :class:`Event` objects, built on demand."""
        return [_event(rank, row) for row in rows(self.logs[rank])]

    @property
    def events(self) -> list[list[Event]]:
        """Every rank's :meth:`events_for`, indexed by rank."""
        return [self.events_for(rank) for rank in range(self.nprocs)]

    def all_events(self) -> list[Event]:
        merged: list[Event] = []
        for rank in range(self.nprocs):
            merged.extend(self.events_for(rank))
        merged.sort(key=lambda e: (e.start, e.rank))
        return merged


def rows(log: list) -> Iterator[tuple]:
    """A log's rows as ``ROW``-tuples, in record order."""
    return zip(*[iter(log)] * ROW)


def _event(rank: int, row: Sequence) -> Event:
    kind, start, end, peer, tag, nbytes, arrival, aux = row
    if kind == COMPUTE:
        return ComputeEvent(rank, start, end, nbytes, aux)
    if kind == MATCH:
        return MatchEvent(
            rank, start, end, peer, tag, bool(nbytes & WILDCARD_SOURCE),
            bool(nbytes & WILDCARD_TAG), aux, bool(nbytes & COMPLETION),
        )  # fmt: skip
    if kind <= RECV:
        return CommEvent(rank, start, end, KIND_NAMES[kind], peer, tag, nbytes, arrival)
    return RequestEvent(rank, start, end, KIND_NAMES[kind], aux, arrival, peer, tag, nbytes)
