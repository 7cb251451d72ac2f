"""Runtime core: messages, mailboxes, schedulers, failure handling."""

import numpy as np
import pytest

from repro import DeadlockError, spmd_run
from repro.errors import RankFailedError, ReproError
from repro.runtime.mailbox import Mailbox
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message
from tests.conftest import run_both_backends


def _msg(source=0, dest=1, tag=0, payload=None, seq=0):
    return Message(
        source=source, dest=dest, tag=tag, payload=payload, nbytes=8, arrival=0.0, seq=seq
    )


class TestMessageMatching:
    def test_exact(self):
        m = _msg(source=2, tag=7)
        assert m.matches(2, 7)
        assert not m.matches(1, 7)
        assert not m.matches(2, 8)

    def test_wildcards(self):
        m = _msg(source=2, tag=7)
        assert m.matches(ANY_SOURCE, 7)
        assert m.matches(2, ANY_TAG)
        assert m.matches(ANY_SOURCE, ANY_TAG)


class TestMailbox:
    def test_fifo_within_match(self):
        mb = Mailbox()
        mb.put(_msg(payload="a", seq=1))
        mb.put(_msg(payload="b", seq=2))
        assert mb.take_match(0, 0).payload == "a"
        assert mb.take_match(0, 0).payload == "b"

    def test_matching_skips_nonmatching(self):
        mb = Mailbox()
        mb.put(_msg(source=1, tag=5, payload="x"))
        mb.put(_msg(source=2, tag=6, payload="y"))
        assert mb.take_match(2, 6).payload == "y"
        assert len(mb) == 1

    def test_no_match(self):
        mb = Mailbox()
        mb.put(_msg(tag=1))
        assert mb.take_match(0, 2) is None
        assert mb.has_match(0, 1)
        assert not mb.has_match(0, 2)

    def test_snapshot_copy(self):
        mb = Mailbox()
        mb.put(_msg())
        snap = mb.snapshot()
        snap.clear()
        assert len(mb) == 1


class TestSpmdRun:
    def test_single_rank(self):
        res = spmd_run(1, lambda comm: comm.rank)
        assert res.values == [0]
        assert res.nprocs == 1

    def test_returns_in_rank_order(self, backend):
        res = spmd_run(5, lambda comm: comm.rank * 10, backend=backend)
        assert res.values == [0, 10, 20, 30, 40]

    def test_args_passed(self):
        res = spmd_run(2, lambda comm, a, b: a + b + comm.rank, args=(1, 2))
        assert res.values == [3, 4]

    def test_kwargs_passed(self):
        res = spmd_run(2, lambda comm, x=0: x, kwargs={"x": 9})
        assert res.values == [9, 9]

    def test_invalid_nprocs(self):
        with pytest.raises(ReproError):
            spmd_run(0, lambda comm: None)

    def test_exceeds_machine(self):
        from repro import INTEL_DELTA

        with pytest.raises(ReproError, match="at most"):
            spmd_run(INTEL_DELTA.max_nodes + 1, lambda c: None, machine=INTEL_DELTA)

    def test_unknown_backend(self):
        with pytest.raises(ReproError, match="backend"):
            spmd_run(1, lambda c: None, backend="mpi")

    def test_elapsed_is_max_rank_time(self):
        def body(comm):
            comm.charge(1e6 * (comm.rank + 1))

        from repro import INTEL_DELTA

        res = spmd_run(3, body, machine=INTEL_DELTA)
        assert res.elapsed == max(res.times) == res.times[2]

    def test_speedup_over(self):
        def body(comm):
            comm.charge(1e6)

        from repro import INTEL_DELTA

        res = spmd_run(4, body, machine=INTEL_DELTA)
        assert res.speedup_over(2 * res.elapsed) == pytest.approx(2.0)


class TestDeterministicScheduling:
    def test_rank_order_interleaving(self):
        """Run-to-block: rank 0 runs to completion before rank 1 starts
        when there is no communication."""
        order = []

        def body(comm):
            order.append(comm.rank)

        spmd_run(4, body, backend="deterministic")
        assert order == [0, 1, 2, 3]

    def test_blocked_rank_yields_to_next(self):
        order = []

        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=1)
                order.append("r0-after-recv")
            else:
                order.append("r1-before-send")
                comm.send(0, "x", tag=1)

        spmd_run(2, body, backend="deterministic")
        assert order == ["r1-before-send", "r0-after-recv"]

    def test_reproducible_results(self):
        def body(comm):
            comm.send((comm.rank + 1) % comm.size, comm.rank, tag=3)
            return comm.recv(tag=3)

        a = spmd_run(5, body, backend="deterministic").values
        b = spmd_run(5, body, backend="deterministic").values
        assert a == b == [4, 0, 1, 2, 3]


class TestDeadlockDetection:
    def test_cycle_detected(self, backend):
        def body(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=5)

        kwargs = {"deadlock_timeout": 1.0} if backend == "threads" else {}
        with pytest.raises(DeadlockError):
            spmd_run(3, body, backend=backend, **kwargs)

    def test_waiting_diagnostics(self):
        def body(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=5)

        with pytest.raises(DeadlockError) as info:
            spmd_run(2, body, backend="deterministic")
        assert 0 in info.value.waiting and 1 in info.value.waiting
        assert "tag=5" in info.value.waiting[0]

    def test_partial_deadlock(self):
        """Some ranks finish; the rest block forever."""

        def body(comm):
            if comm.rank == 0:
                return "done"
            comm.recv(source=comm.rank, tag=9)

        with pytest.raises(DeadlockError):
            spmd_run(3, body, backend="deterministic")

    def test_self_send_satisfies_self_recv(self, backend):
        def body(comm):
            comm.send(comm.rank, "loop", tag=2)
            return comm.recv(source=comm.rank, tag=2)

        res = spmd_run(3, body, backend=backend)
        assert res.values == ["loop"] * 3


class TestFailurePropagation:
    def test_failure_raised(self, backend):
        def body(comm):
            if comm.rank == 2:
                raise ValueError("kaboom")
            comm.barrier()

        with pytest.raises(RankFailedError) as info:
            spmd_run(4, body, backend=backend)
        assert info.value.rank == 2
        assert isinstance(info.value.original, ValueError)

    def test_failure_before_any_comm(self):
        def body(comm):
            raise RuntimeError("early")

        with pytest.raises(RankFailedError) as info:
            spmd_run(3, body, backend="deterministic")
        assert info.value.rank == 0

    def test_lowest_failing_rank_reported(self):
        def body(comm):
            raise RuntimeError(f"r{comm.rank}")

        with pytest.raises(RankFailedError) as info:
            spmd_run(3, body, backend="deterministic")
        assert info.value.rank == 0


class TestBackendEquivalence:
    def test_ring_pipeline(self):
        def body(comm):
            acc = comm.rank
            for _ in range(3):
                comm.send((comm.rank + 1) % comm.size, acc, tag=1)
                acc += comm.recv(source=(comm.rank - 1) % comm.size, tag=1)
            return acc

        run_both_backends(6, body)

    def test_numpy_payload_roundtrip(self):
        def body(comm):
            data = np.arange(50) * comm.rank
            comm.send((comm.rank + 1) % comm.size, data, tag=4)
            return comm.recv(tag=4)

        run_both_backends(4, body)


class TestClockSourceContract:
    """Regression for the set_clock_source contract: the virtual-clock
    accessor drives scheduling only on the run-to-block backends.  The
    threaded backend interleaves in wall-clock order and must never
    consult it (its docstring now documents exactly that)."""

    @staticmethod
    def _ping(backend_obj):
        """Minimal two-rank exchange exercising a scheduling decision."""

        def body0():
            backend_obj.deliver(
                Message(
                    source=0, dest=1, tag=0, payload="x", nbytes=1, arrival=0.0, seq=1
                )
            )

        def body1():
            backend_obj.wait_for_match(1, 0, 0, 0)

        return [body0, body1]

    def test_deterministic_consults_accessor(self):
        from repro.runtime.scheduler import DeterministicBackend

        calls = []
        engine = DeterministicBackend(2)
        engine.set_clock_source(lambda rank: calls.append(rank) or 0.0)
        engine.run(self._ping(engine))
        assert calls, "deterministic backend never read the clock source"

    def test_fuzzed_consults_accessor(self):
        from repro.runtime.scheduler import DeterministicBackend, Seeded

        calls = []
        engine = DeterministicBackend(2, Seeded(0))
        engine.set_clock_source(lambda rank: calls.append(rank) or 0.0)
        engine.run(self._ping(engine))
        assert calls, "fuzzed backend never read the clock source"

    def test_threaded_ignores_accessor(self):
        from repro.runtime.scheduler import ThreadedBackend

        calls = []
        engine = ThreadedBackend(2, deadlock_timeout=5.0)
        engine.set_clock_source(lambda rank: calls.append(rank) or 0.0)
        engine.run(self._ping(engine))
        assert calls == [], "threaded backend consulted the (ignored) clock source"

    def test_deterministic_schedules_in_virtual_time_order(self):
        """The rank furthest behind in virtual time runs first: with
        rank 0's clock ahead of rank 1's, rank 1's body completes before
        rank 0's even though rank 0 has the lower id."""
        from repro.runtime.scheduler import DeterministicBackend

        order = []
        engine = DeterministicBackend(2)
        engine.set_clock_source(lambda rank: [5.0, 1.0][rank])
        engine.run([lambda: order.append(0), lambda: order.append(1)])
        assert order == [1, 0]
