"""Per-rank mailboxes with MPI-style (source, tag) matching.

Matching returns the pending message with the earliest *virtual arrival
time* (ties broken by source then per-source sequence number), which is
what a receive on the modelled machine would see.  Same-source same-tag
messages have monotonically increasing arrivals, so MPI's non-overtaking
guarantee holds.  Synchronisation is the backend's job; the mailbox
itself is a plain data structure.

Posted receives (the nonblocking layer's half of matching): a rank may
*post* a (source, tag, ctx) pattern ahead of time with :meth:`post`.  A
post binds immediately to the best pending match if one exists;
otherwise the next delivered matching message binds to the oldest
matching unposted record — MPI's posted-receive-queue semantics.  Bound
messages leave the pending queue, so a concurrent blocking receive can
never steal a message already claimed by a posted request.

Next to the delivery-order slot list, :class:`Mailbox` keeps one queue
per exact ``(source, tag, ctx)`` channel.  The exact-match operations
the scheduler polls every step — ``has_match``/``take_match`` with no
wildcard — are O(1) (amortised) instead of a linear scan, and removal
tombstones a slot instead of paying an O(n) ``del deque[i]``.  Wildcard
matching and the fuzzed backend's ``match_indices`` scan the
delivery-order view.

:class:`_LinearMailbox` is the single-deque linear-scan reference the
property tests pit :class:`Mailbox` against; nothing constructs it at
run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from repro.errors import ReproError
from repro.obs.metrics import (
    COUNT_BUCKETS,
    counter_handle,
    histogram_handle,
)
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message

_ENQUEUED = counter_handle(
    "runtime.mailbox.enqueued", help="messages delivered to mailboxes"
)
_MATCHED = counter_handle(
    "runtime.mailbox.matched", help="messages removed by a matching receive"
)
_DEPTH = histogram_handle(
    "runtime.mailbox.depth",
    buckets=COUNT_BUCKETS,
    help="pending-queue depth observed at each delivery",
)
_POSTED = counter_handle(
    "runtime.mailbox.posted", help="receive patterns posted (irecv)"
)


@dataclass
class _PostedRecv:
    """One posted (nonblocking) receive awaiting or holding its message."""

    post_id: int
    source: int
    tag: int
    ctx: int
    msg: Message | None = None


class _Channel:
    """Slot indices of one exact (source, tag, ctx) channel.

    ``indices`` holds positions into the mailbox's slot list, in
    delivery order.  ``sorted`` records whether the channel's
    ``(arrival, seq)`` keys have stayed nondecreasing in delivery order —
    true for every message a monotone virtual clock can produce — in
    which case the head is the earliest-arriving candidate and a take is
    O(1).  Out-of-order arrivals (possible only through hand-built
    messages) drop the flag and fall back to a scan of this channel
    alone.
    """

    __slots__ = ("indices", "sorted", "last_key")

    def __init__(self) -> None:
        self.indices: deque[int] = deque()
        self.sorted = True
        self.last_key = (float("-inf"), -1)

    def append(self, index: int, msg: Message) -> None:
        self.indices.append(index)
        key = (msg.arrival, msg.seq)
        if key < self.last_key:
            self.sorted = False
        else:
            self.last_key = key


class Mailbox:
    """Pending-message store for one rank (channel-indexed)."""

    def __init__(self) -> None:
        #: delivery-order message slots; a taken message leaves a ``None``
        #: tombstone so sibling indices stay stable (no O(n) deletes)
        self._slots: list[Message | None] = []
        self._live = 0
        self._dead = 0
        self._channels: dict[tuple[int, int, int], _Channel] = {}
        # Posted receives in post order (dicts preserve insertion order);
        # delivery binds to the oldest matching unfulfilled post first.
        self._posts: dict[int, _PostedRecv] = {}
        self._next_post_id = 0

    def __len__(self) -> int:
        return self._live

    # -- delivery ----------------------------------------------------------
    def put(self, msg: Message) -> None:
        """Deliver a message: bind it to the oldest matching unfulfilled
        posted receive, else append to the pending queue (delivery order
        == matching order)."""
        _ENQUEUED.inc()
        for post in self._posts.values():
            if post.msg is None and msg.matches(post.source, post.tag, post.ctx):
                post.msg = msg
                _MATCHED.inc()
                return
        index = len(self._slots)
        self._slots.append(msg)
        self._live += 1
        key = (msg.source, msg.tag, msg.ctx)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = _Channel()
        channel.append(index, msg)
        _DEPTH.observe(self._live)

    # -- matching ----------------------------------------------------------
    def _channel_head(self, channel: _Channel) -> int | None:
        """Index of the channel's oldest live entry (drops tombstones)."""
        indices = channel.indices
        while indices:
            index = indices[0]
            if self._slots[index] is not None:
                return index
            indices.popleft()
        return None

    def _channel_best(self, channel: _Channel) -> int | None:
        """Index of the channel's earliest-arriving live entry."""
        head = self._channel_head(channel)
        if head is None or channel.sorted:
            return head
        best, best_key = None, None
        for index in channel.indices:
            msg = self._slots[index]
            if msg is None:
                continue
            key = (msg.arrival, msg.seq)
            if best_key is None or key < best_key:
                best, best_key = index, key
        return best

    def has_match(self, source: int, tag: int, ctx: int = 0) -> bool:
        """True when a pending message matches the (source, tag, ctx) pattern."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            channel = self._channels.get((source, tag, ctx))
            return channel is not None and self._channel_head(channel) is not None
        return any(
            m is not None and m.matches(source, tag, ctx) for m in self._slots
        )

    def take_match(self, source: int, tag: int, ctx: int = 0) -> Message | None:
        """Remove and return the earliest-*arriving* matching message
        (virtual time; deterministic tie-break), or ``None``."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            channel = self._channels.get((source, tag, ctx))
            if channel is None:
                return None
            best = self._channel_best(channel)
            if best is None:
                return None
            return self._take_slot(best, channel)
        best, best_key = None, None
        for index, m in enumerate(self._slots):
            if m is not None and m.matches(source, tag, ctx):
                key = (m.arrival, m.source, m.seq)
                if best_key is None or key < best_key:
                    best, best_key = index, key
        if best is None:
            return None
        return self._take_slot(best)

    def match_indices(self, source: int, tag: int, ctx: int = 0) -> list[int]:
        """Indices (in delivery order) of all pending messages matching the
        (source, tag, ctx) pattern.  Backends with non-default matching
        policies (e.g. the fuzzed backend's wildcard perturbation) use this
        to enumerate the legal choices before taking one with
        :meth:`take_at`.  Indices stay valid until the next take."""
        return [
            i
            for i, m in enumerate(self._slots)
            if m is not None and m.matches(source, tag, ctx)
        ]

    def peek_at(self, index: int) -> Message:
        """The pending message at *index* without removing it."""
        msg = self._slots[index]
        if msg is None:
            raise ReproError(f"mailbox slot {index} already taken")
        return msg

    def take_at(self, index: int) -> Message:
        """Remove and return the pending message at *index*."""
        msg = self._slots[index]
        if msg is None:
            raise ReproError(f"mailbox slot {index} already taken")
        return self._take_slot(index)

    def _take_slot(self, index: int, channel: _Channel | None = None) -> Message:
        msg = self._slots[index]
        self._slots[index] = None
        self._live -= 1
        self._dead += 1
        if channel is not None and channel.indices and channel.indices[0] == index:
            channel.indices.popleft()
        _MATCHED.inc()
        if self._dead > 64 and self._dead > self._live:
            self._compact()
        return msg

    def _compact(self) -> None:
        """Drop tombstones and rebuild the channel index (amortised O(1))."""
        self._slots = [m for m in self._slots if m is not None]
        self._dead = 0
        self._channels = {}
        for index, msg in enumerate(self._slots):
            key = (msg.source, msg.tag, msg.ctx)
            channel = self._channels.get(key)
            if channel is None:
                channel = self._channels[key] = _Channel()
            channel.append(index, msg)

    # -- posted receives ---------------------------------------------------
    def post(self, source: int, tag: int, ctx: int = 0) -> int:
        """Post a receive pattern; returns its post id.

        If a matching message is already pending, the post binds to the
        earliest-arriving one immediately (the same selection a blocking
        receive would make); otherwise it binds to the next matching
        delivery, in post order.
        """
        post = _PostedRecv(self._next_post_id, source, tag, ctx)
        self._next_post_id += 1
        msg = self.take_match(source, tag, ctx)
        if msg is not None:
            post.msg = msg
        self._posts[post.post_id] = post
        _POSTED.inc()
        return post.post_id

    def post_ready(self, post_id: int) -> bool:
        """True when the posted receive has its message bound."""
        return self._posts[post_id].msg is not None

    def peek_post(self, post_id: int) -> Message:
        """The message bound to a fulfilled posted receive, not removed."""
        post = self._posts[post_id]
        if post.msg is None:
            raise ReproError(f"posted receive {post_id} peeked before fulfilment")
        return post.msg

    def take_post(self, post_id: int) -> Message:
        """Remove a fulfilled posted receive and return its message."""
        post = self._posts.pop(post_id)
        if post.msg is None:
            raise ReproError(f"posted receive {post_id} taken before fulfilment")
        return post.msg

    def posts_pending(self) -> int:
        """How many posted receives are still unfulfilled (diagnostics)."""
        return sum(1 for post in self._posts.values() if post.msg is None)

    def snapshot(self) -> list[Message]:
        """Copy of the pending queue (diagnostics only)."""
        return [m for m in self._slots if m is not None]


class _LinearMailbox(Mailbox):
    """Linear-scan mailbox over a single delivery-order deque: the
    reference implementation the indexed mailbox's property tests compare
    selections against."""

    def __init__(self) -> None:
        self._pending: deque[Message] = deque()
        self._posts: dict[int, _PostedRecv] = {}
        self._next_post_id = 0

    def __len__(self) -> int:
        return len(self._pending)

    def put(self, msg: Message) -> None:
        _ENQUEUED.inc()
        for post in self._posts.values():
            if post.msg is None and msg.matches(post.source, post.tag, post.ctx):
                post.msg = msg
                _MATCHED.inc()
                return
        self._pending.append(msg)
        _DEPTH.observe(len(self._pending))

    def has_match(self, source: int, tag: int, ctx: int = 0) -> bool:
        return any(m.matches(source, tag, ctx) for m in self._pending)

    def take_match(self, source: int, tag: int, ctx: int = 0) -> Message | None:
        best_i = -1
        best_key: tuple[float, int, int] | None = None
        for i, m in enumerate(self._pending):
            if m.matches(source, tag, ctx):
                key = (m.arrival, m.source, m.seq)
                if best_key is None or key < best_key:
                    best_i, best_key = i, key
        if best_i < 0:
            return None
        msg = self._pending[best_i]
        del self._pending[best_i]
        _MATCHED.inc()
        return msg

    def match_indices(self, source: int, tag: int, ctx: int = 0) -> list[int]:
        return [i for i, m in enumerate(self._pending) if m.matches(source, tag, ctx)]

    def peek_at(self, index: int) -> Message:
        return self._pending[index]

    def take_at(self, index: int) -> Message:
        msg = self._pending[index]
        del self._pending[index]
        _MATCHED.inc()
        return msg

    def snapshot(self) -> list[Message]:
        return list(self._pending)
