"""Message envelope and matching wildcards."""

from __future__ import annotations

from typing import Any, NamedTuple

#: Wildcard: match a message from any source rank.
ANY_SOURCE = -1
#: Wildcard: match a message with any tag.
ANY_TAG = -1
#: Send tags below this value are user tags.
MAX_USER_TAG = 1 << 20
#: Collective tags start here; a communicator rejects sends tagged in
#: ``[MAX_USER_TAG, COLL_TAG_BASE)``.
COLL_TAG_BASE = 1 << 24


class Message(NamedTuple):
    """A message in flight or waiting in a mailbox.

    ``arrival`` is the virtual time at which the message becomes visible
    to the receiver (the sender's clock after paying the transfer cost).
    Arrivals are *not* monotone in send order: an ``isend`` charges only
    its post overhead, so a small message sent after a large one arrives
    first.  ``seq`` is a per-sender sequence number, increasing in send
    order; a wildcard-tag receive uses it to find each sender's oldest
    pending message, and that message is the only one of the sender's it
    may take (non-overtaking: two messages from the same source that
    match one receive are received in send order, whatever their
    arrivals).  ``ctx`` is the communication context of the
    sending communicator: receives only match messages of their own
    context, isolating sub-communicators (MPI-style groups) from the
    world communicator and from each other even under wildcard receives.

    An envelope is immutable (``_replace`` makes a changed copy).  The
    send path builds one with ``tuple.__new__(Message, fields)``, which
    runs no Python code; its fields read through C-level accessors.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    arrival: float
    seq: int = 0
    ctx: int = 0

    def matches(self, source: int, tag: int, ctx: int = 0) -> bool:
        """Does this message satisfy a receive for (source, tag) in *ctx*?"""
        return (
            ctx == self.ctx
            and (source == ANY_SOURCE or source == self.source)
            and (tag == ANY_TAG or tag == self.tag)
        )
