"""RankContext: point-to-point semantics and the virtual clock."""

import numpy as np
import pytest

from repro import spmd_run
from repro.errors import CommError
from repro.machines.model import MachineModel

#: deterministic machine with easily computed costs: 1 ms per message
#: envelope, 1 us per byte, 1 us per flop
TOY = MachineModel("toy", alpha=1e-3, beta=1e-6, flop_time=1e-6)


class TestSendRecv:
    def test_payload_types(self, backend):
        payloads = [1, 2.5, "s", None, (1, 2), [3, 4], {"k": 5}, np.arange(3)]

        def body(comm):
            if comm.rank == 0:
                for i, p in enumerate(payloads):
                    comm.send(1, p, tag=i)
                return None
            return [comm.recv(source=0, tag=i) for i in range(len(payloads))]

        res = spmd_run(2, body, backend=backend)
        got = res.values[1]
        assert got[:4] == [1, 2.5, "s", None]
        assert got[4] == (1, 2) and got[5] == [3, 4] and got[6] == {"k": 5}
        assert np.array_equal(got[7], np.arange(3))

    def test_send_by_value_protects_receiver(self):
        """A sender mutating its buffer after the send must not affect the
        receiver — the distributed-memory semantics of the modelled machine."""

        def body(comm):
            if comm.rank == 0:
                buf = np.zeros(8)
                comm.send(1, buf, tag=1)
                buf[:] = 99.0  # mutate after "transmission"
                return None
            return comm.recv(source=0, tag=1)

        res = spmd_run(2, body, backend="deterministic")
        assert np.array_equal(res.values[1], np.zeros(8))

    def test_send_by_value_for_views(self):
        """Contiguous views (the np.ascontiguousarray no-copy trap)."""

        def body(comm):
            if comm.rank == 0:
                arr = np.arange(20.0).reshape(4, 5)
                comm.send(1, np.ascontiguousarray(arr[1:2, :]), tag=1)
                arr[:] = -1.0
                return None
            return comm.recv(source=0, tag=1)

        res = spmd_run(2, body, backend="deterministic")
        assert np.array_equal(res.values[1], np.arange(5.0, 10.0).reshape(1, 5))

    def test_receiver_mutation_isolated(self):
        """A receiver working on its payload never reaches the sender.

        Received arrays may be read-only (COW contract), so the receiver
        copies before mutating; the sender's buffer must be untouched.
        """

        def body(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(1, [buf], tag=1)
                comm.barrier()
                return buf.copy()
            got = comm.recv(source=0, tag=1)
            mine = np.asarray(got[0]).copy()
            mine[:] = 7.0
            comm.barrier()
            return None

        res = spmd_run(2, body, backend="deterministic")
        assert np.array_equal(res.values[0], np.ones(4))

    def test_nonoverlapping_tags(self, backend):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, "late", tag=2)
                comm.send(1, "early", tag=1)
            else:
                assert comm.recv(source=0, tag=1) == "early"
                assert comm.recv(source=0, tag=2) == "late"
                return True

        res = spmd_run(2, body, backend=backend)
        assert res.values[1] is True

    def test_any_source(self, backend):
        def body(comm):
            if comm.rank == 0:
                got = {comm.recv()[0] for _ in range(comm.size - 1)}
                return got
            comm.send(0, (comm.rank,))
            return None

        res = spmd_run(4, body, backend=backend)
        assert res.values[0] == {1, 2, 3}

    def test_invalid_peer(self):
        with pytest.raises(Exception) as info:
            spmd_run(2, lambda comm: comm.send(5, "x"))
        assert "out of range" in str(info.value)

    def test_negative_tag_rejected(self):
        from repro.errors import RankFailedError

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, lambda comm: comm.send(1 - comm.rank, "x", tag=-3))
        assert isinstance(info.value.original, CommError)

    def test_probe(self):
        def body(comm):
            if comm.rank == 0:
                assert not comm.probe()
                comm.send(0, "self", tag=1)
                assert comm.probe(source=0, tag=1)
                assert not comm.probe(source=0, tag=2)
                return comm.recv()
            return None

        assert spmd_run(1, body).values[0] == "self"

    def test_probe_rejects_out_of_range_source(self):
        """``probe`` validates its peer like ``recv``/``irecv``, on the world
        communicator and on a ``split`` one."""

        def body(comm):
            for view in (comm, comm.split(comm.rank % 2)):
                for source in (view.size, -2):
                    with pytest.raises(CommError, match="out of range"):
                        view.probe(source=source)
            return True

        assert spmd_run(4, body).values == [True] * 4

    def test_sendrecv_exchange(self, backend):
        def body(comm):
            partner = comm.size - 1 - comm.rank
            return comm.sendrecv(partner, comm.rank, partner, send_tag=7)

        res = spmd_run(4, body, backend=backend)
        assert res.values == [3, 2, 1, 0]


class TestVirtualClock:
    def test_charge_advances_clock(self):
        res = spmd_run(1, lambda comm: comm.charge(1000), machine=TOY)
        assert res.times[0] == pytest.approx(1e-3)

    def test_send_cost(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(100, dtype=np.float64), tag=1)  # 816 bytes
            else:
                comm.recv(source=0, tag=1)

        res = spmd_run(2, body, machine=TOY)
        expected = 1e-3 + 816e-6
        assert res.times[0] == pytest.approx(expected)
        # Receiver syncs to the arrival time, then pays ingest overhead.
        ingest = TOY.recv_overhead(816)
        assert ingest > 0
        assert res.times[1] == pytest.approx(expected + ingest)

    def test_receiver_serialises_many_senders(self):
        """A gather hot-spot: the root pays per-message ingest overhead."""

        def body(comm):
            if comm.rank == 0:
                for _ in range(comm.size - 1):
                    comm.recv(tag=1)
            else:
                comm.send(0, "x", tag=1)

        t4 = spmd_run(4, body, machine=TOY).times[0]
        t16 = spmd_run(16, body, machine=TOY).times[0]
        assert t16 > t4 + 10 * TOY.recv_overhead(17)

    def test_late_receiver_does_not_wait(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, "x", tag=1)
            else:
                comm.charge(10_000)  # 10 ms of work; message arrives earlier
                comm.recv(source=0, tag=1)

        res = spmd_run(2, body, machine=TOY)
        # No waiting: just the rank's own work plus the ingest overhead.
        assert res.times[1] == pytest.approx(0.01 + TOY.recv_overhead(17))

    def test_clock_independent_of_backend(self):
        def body(comm):
            comm.charge(500 * (comm.rank + 1))
            comm.barrier()
            return comm.allgather(comm.rank)

        a = spmd_run(4, body, machine=TOY, backend="deterministic")
        b = spmd_run(4, body, machine=TOY, backend="threads")
        assert a.times == b.times

    def test_ideal_machine_zero_time(self):
        def body(comm):
            comm.charge(1e9)
            comm.barrier()

        res = spmd_run(4, body)
        # IDEAL charges 1 second per flop but zero comm.
        assert res.times[0] == pytest.approx(1e9)

    def test_advance(self):
        res = spmd_run(1, lambda comm: comm.advance(2.5))
        assert res.times[0] == pytest.approx(2.5)

    def test_advance_negative_rejected(self):
        from repro.errors import RankFailedError

        with pytest.raises(RankFailedError):
            spmd_run(1, lambda comm: comm.advance(-1.0))

    def test_congestion_applies_to_sends(self):
        import dataclasses

        congested = dataclasses.replace(TOY, congestion_per_node=0.5)

        def body(comm):
            if comm.rank == 0:
                comm.send(1, "x", tag=1)
            return None

        small = spmd_run(2, body, machine=congested).times[0]
        big = spmd_run(4, body, machine=congested).times[0]
        assert big == pytest.approx(small * 2.0)
