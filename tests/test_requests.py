"""Nonblocking request API: isend/irecv/wait/waitall/waitany/sendrecv.

The PR 3 tentpole: posted receives in the mailbox, request objects in
the communicator, and virtual clocks that charge ``max(compute, comm)``
when transfers overlap computation.  The invariants these tests pin:

- payload correctness and posted-receive (MPI) matching semantics;
- a blocking send is virtual-time-identical to isend + immediate wait;
- overlapped transfers charge only what the compute does not hide;
- ``waitall``'s charging is canonical (schedule-independent), so the
  deterministic and threaded backends agree on every clock — and the
  chaos-marked tests extend that to fuzzed completion orders.
"""

import numpy as np
import pytest

from repro import spmd_run
from repro.comm import Request
from repro.errors import CommError
from repro.machines.catalog import IBM_SP, IDEAL
from tests.conftest import run_both_backends


class TestBasics:
    def test_isend_irecv_roundtrip(self):
        def body(comm):
            if comm.rank == 0:
                req = comm.isend(1, {"x": 41}, tag=3)
                assert isinstance(req, Request)
                assert comm.wait(req) is None
                return True
            req = comm.irecv(source=0, tag=3)
            value = comm.wait(req)
            return value == {"x": 41}

        assert all(run_both_backends(2, body).values)

    def test_wait_is_idempotent(self):
        def body(comm):
            other = 1 - comm.rank
            sreq = comm.isend(other, comm.rank)
            rreq = comm.irecv(source=other)
            first = comm.wait(rreq)
            again = comm.wait(rreq)
            comm.wait(sreq)
            comm.wait(sreq)
            return first == other and again == other

        assert all(run_both_backends(2, body).values)

    def test_payload_guards(self):
        def body(comm):
            other = 1 - comm.rank
            sreq = comm.isend(other, 7)
            rreq = comm.irecv(source=other)
            with pytest.raises(CommError):
                _ = sreq.payload  # send requests carry no payload
            with pytest.raises(CommError):
                _ = rreq.payload  # not yet completed
            comm.waitall([sreq, rreq])
            return rreq.payload == 7

        assert all(run_both_backends(2, body).values)

    def test_foreign_request_rejected(self):
        """Waiting on another rank's request is a usage error."""
        shared: dict[int, Request] = {}

        def body(comm):
            if comm.rank == 0:
                shared[0] = comm.irecv(source=1, tag=9)
            comm.barrier()
            ok = True
            if comm.rank == 1:
                try:
                    comm.wait(shared[0])
                    ok = False
                except CommError:
                    pass
                comm.send(0, "now", tag=9)
            if comm.rank == 0:
                ok = comm.wait(shared[0]) == "now"
            return ok

        assert all(run_both_backends(2, body).values)

    def test_test_reports_completion(self):
        def body(comm):
            if comm.rank == 0:
                req = comm.isend(1, 123)
                comm.wait(req)
                assert comm.test(req)
                return True
            req = comm.irecv(source=0)
            comm.wait(req)
            assert comm.test(req)
            return req.payload == 123

        assert all(run_both_backends(2, body).values)

    def test_payload_snapshot_at_post(self):
        """isend copies the payload: later mutation must not leak."""

        def body(comm):
            if comm.rank == 0:
                buf = np.arange(4.0)
                req = comm.isend(1, buf)
                buf[:] = -1.0
                comm.wait(req)
                return True
            return bool(np.array_equal(comm.recv(source=0), np.arange(4.0)))

        assert all(run_both_backends(2, body).values)


class TestWaitAllAny:
    def test_waitall_returns_in_request_order(self):
        def body(comm):
            if comm.rank == 0:
                reqs = [comm.isend(1, k, tag=k) for k in range(4)]
                comm.waitall(reqs)
                return True
            reqs = [comm.irecv(source=0, tag=k) for k in reversed(range(4))]
            values = comm.waitall(reqs)
            return values == [3, 2, 1, 0]

        assert all(run_both_backends(2, body).values)

    def test_waitall_mixes_sends_and_recvs(self):
        def body(comm):
            other = 1 - comm.rank
            reqs = [comm.irecv(source=other), comm.isend(other, comm.rank * 10)]
            values = comm.waitall(reqs)
            return values == [other * 10, None]

        assert all(run_both_backends(2, body).values)

    def test_waitany_returns_a_completed_index(self):
        def body(comm):
            if comm.rank == 0:
                reqs = [comm.isend(1, "a", tag=0), comm.isend(1, "b", tag=1)]
                comm.waitall(reqs)
                return True
            reqs = [comm.irecv(source=0, tag=0), comm.irecv(source=0, tag=1)]
            index, value = comm.waitany(reqs)
            assert value == ("a", "b")[index]
            rest = [r for r in reqs if not r.done]
            got = comm.waitall(rest)
            return len(rest) == 1 and got[0] in ("a", "b")

        assert all(run_both_backends(2, body).values)

    def test_waitany_names_send_peers_in_the_world_numbering(self):
        """A send posted on a split view and completed by ``waitany`` on the
        world view offers its peer's global rank as the completion
        candidate, so the traced choice names the real peer."""
        from repro.trace.events import MatchEvent

        def body(comm):
            sub = comm.split(comm.rank % 2)
            if comm.rank == 1:
                reqs = [sub.isend(1, "to 3"), comm.isend(0, "to 0")]
                comm.waitany(reqs)
                comm.waitall(reqs)
            elif comm.rank == 3:
                return sub.recv(0)
            elif comm.rank == 0:
                return comm.recv(1)
            return None

        res = spmd_run(4, body, backend="fuzzed", seed=0, trace=True)
        assert res.values == ["to 0", None, None, "to 3"]
        choices = [
            ev for ev in res.tracer.events_for(1)
            if isinstance(ev, MatchEvent) and ev.completion
        ]
        assert [ev.candidates for ev in choices] == [(0, 3)]
        assert choices[0].source in (0, 3)

    @pytest.mark.chaos(seeds=8)
    def test_waitall_charging_is_schedule_independent(self):
        """Fuzzed completion orders must not move any virtual clock."""

        def body(comm):
            other = 1 - comm.rank
            reqs = [comm.irecv(source=other, tag=k) for k in range(3)]
            reqs += [comm.isend(other, k, tag=k) for k in range(3)]
            values = comm.waitall(reqs)
            return values[:3]

        res = run_both_backends(2, body, machine=IBM_SP)
        assert res.values == [[0, 1, 2], [0, 1, 2]]


class TestSendrecv:
    def test_pairwise_swap(self):
        def body(comm):
            other = 1 - comm.rank
            return comm.sendrecv(other, comm.rank * 11, other)

        assert run_both_backends(2, body).values == [11, 0]

    def test_shift_with_open_ends(self):
        """dest/source of None mean no send / no receive (MPI_PROC_NULL)."""

        def body(comm):
            dest = comm.rank + 1 if comm.rank + 1 < comm.size else None
            source = comm.rank - 1 if comm.rank > 0 else None
            return comm.sendrecv(dest, comm.rank, source)

        assert run_both_backends(3, body).values == [None, 0, 1]

    def test_distinct_tags(self):
        def body(comm):
            other = 1 - comm.rank
            # Both directions in flight on different tags of one channel.
            a = comm.sendrecv(other, "ping", other, send_tag=5, recv_tag=5)
            b = comm.sendrecv(other, comm.rank, other, send_tag=6, recv_tag=6)
            return a == "ping" and b == other

        assert all(run_both_backends(2, body).values)


def _exchange(view, dest, payload, source, fused):
    """One shifted exchange, as ``sendrecv`` or as the requests it stands for."""
    if fused:
        return view.sendrecv(dest, payload, source, send_tag=3)
    reqs = [] if source is None else [view.irecv(source, 3)]
    if dest is not None:
        reqs.append(view.isend(dest, payload, 3))
    values = view.waitall(reqs)
    return None if source is None else values[0]


def _shifts(comm, fused):
    """Right, left and periodic shifts on the world and on a split view;
    the skewed compute makes the completions wait."""
    comm.charge(1000.0 * (comm.rank % 3))
    got = []
    for view in (comm, comm.split(comm.rank % 2)):
        r, n = view.rank, view.size
        right = r + 1 if r + 1 < n else None
        left = r - 1 if r > 0 else None
        payload = np.arange(4.0) * comm.rank
        got.append(_exchange(view, right, payload, left, fused))
        got.append(_exchange(view, left, [comm.rank], right, fused))
        got.append(_exchange(view, (r + 1) % n, comm.rank, (r - 1) % n, fused))
    return got


class TestSendrecvIsRequests:
    """``sendrecv`` is ``irecv`` + ``isend`` + ``waitall``: same values,
    clocks, trace events, request ids and request tallies."""

    @staticmethod
    def _observe(fused, backend):
        from repro.obs.metrics import scoped_registry

        with scoped_registry() as metrics:
            res = spmd_run(
                4, _shifts, args=(fused,), machine=IBM_SP, backend=backend, trace=True
            )
            snapshot = metrics.snapshot()
        return (
            [float.hex(t) for t in res.times],
            [list(res.tracer.events_for(rank)) for rank in range(4)],
            {k: v for k, v in snapshot.items() if k.startswith("comm.requests.")},
            res.values,
        )

    @pytest.mark.parametrize("backend", ["deterministic", "fuzzed"])
    def test_sendrecv_equals_irecv_isend_waitall(self, backend):
        from repro.trace.events import RequestEvent

        clocks, events, tallies, values = self._observe(True, backend)
        want_clocks, want_events, want_tallies, want_values = self._observe(False, backend)
        assert clocks == want_clocks
        assert events == want_events
        assert tallies == want_tallies
        assert tallies["comm.requests.posted"]["value"] > 0
        ids = [ev.req_id for ev in events[1] if isinstance(ev, RequestEvent)]
        assert ids and ids == [
            ev.req_id for ev in want_events[1] if isinstance(ev, RequestEvent)
        ]
        for got, want in zip(values, want_values):
            assert len(got) == len(want) == 6
            for a, b in zip(got, want):
                assert (a is None and b is None) or np.array_equal(a, b)
        # the open ends were exercised: rank 0 receives nothing on its first
        # world shift, and the last rank of each split view nothing on its
        # second
        assert values[0][0] is None and values[3][4] is None


class TestPostedReceiveSemantics:
    def test_post_binds_before_blocking_wildcard(self):
        """A message bound to a posted receive cannot be stolen by a
        later blocking wildcard receive."""

        def body(comm):
            if comm.rank == 0:
                comm.send(1, "for-the-post", tag=1)
                comm.send(1, "for-the-wildcard", tag=2)
                return True
            req = comm.irecv(source=0, tag=1)
            # The wildcard matches only the unbound tag-2 message.
            stolen = comm.recv()
            posted = comm.wait(req)
            return stolen == "for-the-wildcard" and posted == "for-the-post"

        assert all(run_both_backends(2, body).values)

    def test_posts_match_in_fifo_order(self):
        """Two posts on one channel bind to messages in send order."""

        def body(comm):
            if comm.rank == 0:
                for k in range(3):
                    comm.send(1, k, tag=7)
                return True
            reqs = [comm.irecv(source=0, tag=7) for _ in range(3)]
            return comm.waitall(reqs) == [0, 1, 2]

        assert all(run_both_backends(2, body).values)


class TestOverlapAccounting:
    def test_blocking_send_equals_isend_wait(self):
        def blocking(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(1000))
            else:
                comm.recv(source=0)

        def nonblocking(comm):
            if comm.rank == 0:
                comm.wait(comm.isend(1, np.zeros(1000)))
            else:
                comm.wait(comm.irecv(source=0))

        a = spmd_run(2, blocking, machine=IBM_SP)
        b = spmd_run(2, nonblocking, machine=IBM_SP)
        assert a.times == b.times

    def test_compute_hides_wire_time(self):
        """With enough compute between post and wait, the sender's clock
        advances by post overhead + compute only — the wire is hidden."""
        flops = 1e7

        def overlapped(comm):
            if comm.rank == 0:
                req = comm.isend(1, np.zeros(10_000))
                comm.charge(flops, label="hidden")
                comm.wait(req)
            else:
                req = comm.irecv(source=0)
                comm.charge(flops, label="hidden")
                comm.wait(req)

        def sequential(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(10_000))
                comm.charge(flops, label="exposed")
            else:
                comm.charge(flops, label="exposed")
                comm.recv(source=0)

        a = spmd_run(2, overlapped, machine=IBM_SP)
        b = spmd_run(2, sequential, machine=IBM_SP)
        assert max(a.times) < max(b.times)

    def test_irecv_post_is_free(self):
        def body(comm):
            if comm.rank == 1:
                before = comm.clock
                req = comm.irecv(source=0)
                assert comm.clock == before  # posting a receive is free
                comm.wait(req)
                comm.recv(source=0, tag=9)
            else:
                comm.send(1, 1, tag=0)
                comm.send(1, 2, tag=9)

        spmd_run(2, body, machine=IBM_SP)

    def test_request_events_traced(self):
        from repro.trace.events import RequestEvent

        def body(comm):
            other = 1 - comm.rank
            comm.waitall([comm.isend(other, 1), comm.irecv(source=other)])

        res = spmd_run(2, body, machine=IDEAL, trace=True)
        kinds = {
            (ev.kind, ev.op)
            for rank in range(2)
            for ev in res.tracer.events_for(rank)
            if isinstance(ev, RequestEvent)
        }
        assert kinds == {
            ("isend", "post"),
            ("isend", "complete"),
            ("irecv", "post"),
            ("irecv", "complete"),
        }
