"""Request handles for nonblocking point-to-point communication.

A :class:`Request` is what ``isend``/``irecv`` return: a handle on an
in-flight transfer that the owning rank later completes with ``wait``,
``waitall``, or ``waitany``.  The handle records everything the virtual
clock needs to charge the overlap-aware cost path:

- a *send* request charged only the post overhead at ``isend`` time and
  carries ``complete_at``, the virtual time the wire transfer finishes;
  waiting on it advances the clock to at least that time (so an isend
  followed immediately by a wait costs exactly one blocking send, and
  compute performed in between is absorbed by the ``max``);
- a *recv* request is a posted receive pattern; waiting on it advances
  the clock to at least the message's arrival plus the receiver ingest
  overhead — again, compute performed between post and wait shrinks the
  idle portion.

A receive request is also its own posted receive: the mailbox matches on
its ``source`` (world numbering), ``tag`` and ``ctx`` and binds the
message straight onto its ``message`` field, so completing it takes
nothing out of the mailbox.

Requests belong to the context that created them; completing one from a
different rank raises.  ``request.wait()`` is shorthand for
``ctx.wait(request)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import CommError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import RankContext


class Request:
    """Handle on one in-flight nonblocking send or receive.

    :meth:`RankContext.isend <repro.runtime.context.RankContext.isend>`
    and :meth:`~repro.runtime.context.RankContext.irecv` build a request
    field by field on ``object.__new__(Request)``: no Python frame runs
    per request.  A send sets ``kind``, ``owner``, ``req_id``, ``peer``,
    ``tag``, ``nbytes``, ``complete_at``, ``done`` and ``message``
    (``None``); a receive sets ``source`` and ``ctx`` in place of
    ``complete_at``.
    """

    __slots__ = (
        #: ``"send"`` or ``"recv"``
        "kind",
        #: the context that created (and must complete) this request
        "owner",
        #: rank-unique id tying the post/complete trace markers together
        "req_id",
        #: peer rank in the owner communicator's numbering (or ANY_SOURCE)
        "peer",
        "tag",
        #: payload size; for receives, filled in at completion
        "nbytes",
        #: sends only: virtual time the wire transfer completes
        "complete_at",
        #: receives only: the pattern the mailbox matches — the source in
        #: world numbering (or ANY_SOURCE) and the communication context
        "source",
        "ctx",
        "done",
        #: receives only: the bound envelope once a message matched; after
        #: completion its source is in the owner communicator's numbering
        "message",
    )

    @property
    def payload(self) -> Any:
        """The received payload (completed receive requests only)."""
        if self.kind != "recv":
            raise CommError("send requests carry no payload")
        if not self.done or self.message is None:
            raise CommError("request not yet completed; wait on it first")
        return self.message.payload

    def wait(self) -> Any:
        """Complete this request on its owning rank (see ``ctx.wait``)."""
        return self.owner.wait(self)

    def test(self) -> bool:
        """Non-blocking completion probe (see ``ctx.test``)."""
        return self.owner.test(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "in-flight"
        return (
            f"<Request {self.kind} #{self.req_id} peer={self.peer} "
            f"tag={self.tag} {state}>"
        )
