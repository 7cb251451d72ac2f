"""Per-rank mailboxes with MPI-style (source, tag, ctx) matching.

One matching rule, the one MPI states: a receive's *candidates* are each
sender's oldest pending message that matches its pattern — messages from
one sender are never overtaken by later ones (non-overtaking), however
their virtual arrivals compare.  ``isend`` makes that distinction real:
it charges only the post overhead, so a large message followed by a
small one on the same channel *arrives* after it.  Among the candidates
(one per sender) :meth:`Mailbox.take_match` takes the earliest-arriving,
ties broken by source, which is what a receive on the modelled machine
would see; the fuzzed backend instead draws a seeded-random one from
:meth:`Mailbox.candidates`.  Synchronisation is the backend's job; the
mailbox itself is a plain data structure.

Pending messages wait in one FIFO per exact ``(source, tag, ctx)``
channel, in delivery order; every engine delivers a channel in send
order.  An exact receive reads one channel head; a wildcard receive
reads the heads of the channels its pattern covers.

Posted receives (the nonblocking layer's half of matching): a rank may
*post* a receive ahead of time with :meth:`Mailbox.post`.  A post is any
object with ``source``, ``tag`` and ``ctx`` fields and a ``message``
field that starts ``None`` — at run time the receive
:class:`~repro.runtime.request.Request` itself.  A post binds at once to
the candidate a blocking receive would take, if one exists; otherwise it
stays *open* and the next delivered matching message binds to the oldest
matching open post — MPI's posted-receive-queue semantics.  Binding sets
the post's ``message`` and closes it.  Bound messages never enter the
pending queues, so a concurrent blocking receive cannot steal a message
already claimed by a posted request, and completing a post takes nothing
out of the mailbox.

:class:`_LinearMailbox` is the single-list linear-scan reference the
property tests pit :class:`Mailbox` against; nothing constructs it at
run time.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any

from repro.errors import ReproError
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message

_arrival = attrgetter("arrival")


def _earliest(candidates: list[Message]) -> Message:
    """The earliest-arriving of *candidates* (``min`` keeps the first of
    equals, so source order breaks ties)."""
    return min(candidates, key=_arrival)


class Mailbox:
    """Pending-message store for one rank: a FIFO per channel.

    Channel keys hold real sources and tags (both ``>= 0``), so a pattern
    with a wildcard is never a key: looking a pattern up in the channel
    table finds a queue exactly when the pattern is exact and a message
    waits on it.
    """

    def __init__(self) -> None:
        #: pending messages per (source, tag, ctx), delivery order; a
        #: channel that empties is dropped
        self._pending: dict[tuple[int, int, int], deque[Message]] = {}
        self._len = 0
        #: open posts (no message bound yet), post order
        self._open: list[Any] = []
        #: per-run tallies (see :meth:`tally`): posts made, deliveries
        #: bound straight to an open post, and the pending depth after
        #: each queued one
        self._posted = 0
        self._bound = 0
        self._depths: list[int] = []

    def __len__(self) -> int:
        return self._len

    def tally(self) -> tuple[int, int, int, list[int]]:
        """This mailbox's counts so far: ``(enqueued, matched, posted,
        depth samples)``.

        Every delivery either binds to a post (matched at once) or is
        queued (one depth sample); a queued message leaves only by a
        matching take.  So ``enqueued`` and ``matched`` follow from two
        tallies and what is still pending.
        """
        enqueued = self._bound + len(self._depths)
        return enqueued, enqueued - self._len, self._posted, self._depths

    # -- delivery ----------------------------------------------------------
    def put(self, msg: Message) -> Any:
        """Deliver a message: bind it to the oldest matching open post and
        return that post, else queue it on its channel and return ``None``."""
        for i, post in enumerate(self._open):
            if (
                post.ctx == msg.ctx
                and (post.source == ANY_SOURCE or post.source == msg.source)
                and (post.tag == ANY_TAG or post.tag == msg.tag)
            ):
                del self._open[i]
                post.message = msg
                self._bound += 1
                return post
        key = (msg.source, msg.tag, msg.ctx)
        queue = self._pending.get(key)
        if queue is None:
            queue = self._pending[key] = deque()
        queue.append(msg)
        self._len += 1
        self._depths.append(self._len)
        return None

    # -- matching ----------------------------------------------------------
    def _matching_queues(self, source: int, tag: int, ctx: int):
        for (src, tg, cx), queue in self._pending.items():
            if cx == ctx and source in (ANY_SOURCE, src) and tag in (ANY_TAG, tg):
                yield queue

    def has_match(self, source: int, tag: int, ctx: int = 0) -> bool:
        """True when a pending message matches the (source, tag, ctx) pattern."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            return (source, tag, ctx) in self._pending
        return next(self._matching_queues(source, tag, ctx), None) is not None

    def candidates(self, source: int, tag: int, ctx: int = 0) -> list[Message]:
        """The messages a receive for the pattern may legally take: each
        sender's oldest matching pending message (non-overtaking), in
        source order."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            queue = self._pending.get((source, tag, ctx))
            return [queue[0]] if queue else []
        oldest: dict[int, Message] = {}
        for (src, tg, cx), queue in self._pending.items():  # _matching_queues, inline
            if cx == ctx and source in (ANY_SOURCE, src) and tag in (ANY_TAG, tg):
                head = queue[0]
                best = oldest.get(src)
                if best is None or head.seq < best.seq:
                    oldest[src] = head
        if len(oldest) < 2:
            return list(oldest.values())
        return [oldest[src] for src in sorted(oldest)]

    def take(self, msg: Message) -> Message:
        """Remove candidate *msg* — the head of its channel — and return it."""
        queue = self._pending.get((msg.source, msg.tag, msg.ctx))
        if not queue or queue[0] is not msg:
            raise ReproError("mailbox take of a message that is not a candidate")
        return self.take_match(msg.source, msg.tag, msg.ctx)

    def take_match(self, source: int, tag: int, ctx: int = 0) -> Message | None:
        """Remove and return the earliest-arriving candidate (ties broken
        by source), or ``None``."""
        key = (source, tag, ctx)
        queue = self._pending.get(key)
        if queue is not None:  # an exact pattern: its channel's head
            msg = queue.popleft()
            if not queue:
                del self._pending[key]
            self._len -= 1
            return msg
        if source != ANY_SOURCE and tag != ANY_TAG:
            return None
        candidates = self.candidates(source, tag, ctx)
        return self.take(_earliest(candidates)) if candidates else None

    # -- posted receives ---------------------------------------------------
    def post(self, post: Any) -> None:
        """Post a receive: bind *post* to the candidate a blocking receive
        would take now, or leave it open for the next matching delivery
        (oldest open post first)."""
        self._posted += 1
        key = (post.source, post.tag, post.ctx)
        queue = self._pending.get(key)
        if queue is not None:  # an exact pattern: take_match's channel head
            post.message = queue.popleft()
            if not queue:
                del self._pending[key]
            self._len -= 1
            return
        if post.source == ANY_SOURCE or post.tag == ANY_TAG:
            post.message = self.take_match(*key)
            if post.message is not None:
                return
        self._open.append(post)

    def posts_pending(self) -> int:
        """How many posted receives are still open (diagnostics)."""
        return len(self._open)

    def snapshot(self) -> list[Message]:
        """Copy of the pending messages, channel by channel (diagnostics only)."""
        return [msg for queue in self._pending.values() for msg in queue]


class _LinearMailbox(Mailbox):
    """Linear-scan mailbox over one delivery-order list: the reference
    implementation the channel-indexed mailbox's property tests compare
    selections against."""

    def __init__(self) -> None:
        self._list: list[Message] = []
        self._open: list[Any] = []

    def __len__(self) -> int:
        return len(self._list)

    def put(self, msg: Message) -> Any:
        for i, post in enumerate(self._open):
            if msg.matches(post.source, post.tag, post.ctx):
                del self._open[i]
                post.message = msg
                return post
        self._list.append(msg)
        return None

    def has_match(self, source: int, tag: int, ctx: int = 0) -> bool:
        return any(m.matches(source, tag, ctx) for m in self._list)

    def candidates(self, source: int, tag: int, ctx: int = 0) -> list[Message]:
        oldest: dict[int, Message] = {}
        for m in self._list:  # delivery order: the first seen is the oldest
            if m.matches(source, tag, ctx) and m.source not in oldest:
                oldest[m.source] = m
        return [oldest[src] for src in sorted(oldest)]

    def take(self, msg: Message) -> Message:
        del self._list[next(i for i, m in enumerate(self._list) if m is msg)]
        return msg

    def take_match(self, source: int, tag: int, ctx: int = 0) -> Message | None:
        candidates = self.candidates(source, tag, ctx)
        return self.take(_earliest(candidates)) if candidates else None

    def post(self, post: Any) -> None:
        post.message = self.take_match(post.source, post.tag, post.ctx)
        if post.message is None:
            self._open.append(post)

    def snapshot(self) -> list[Message]:
        return list(self._list)
