"""Collective operations over point-to-point messaging."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import spmd_run
from repro.comm import LAND, LOR, MAX, MIN, PROD, SUM, make_op
from repro.errors import CommError, RankFailedError
from tests.conftest import run_both_backends

PROCS = [1, 2, 3, 4, 5, 7, 8, 13]


class TestBarrier:
    @pytest.mark.parametrize("p", PROCS)
    def test_completes(self, p):
        res = spmd_run(p, lambda comm: comm.barrier() or True)
        assert all(res.values)

    def test_synchronises_clocks(self):
        from repro.machines.model import MachineModel

        toy = MachineModel("toy", alpha=1e-3, beta=0, flop_time=1e-6)

        def body(comm):
            if comm.rank == 0:
                comm.charge(10_000)  # rank 0 lags 10 ms
            comm.barrier()
            return comm.clock

        res = spmd_run(4, body, machine=toy)
        # After the barrier every rank's clock is at least rank 0's work.
        assert all(t >= 0.01 for t in res.values)


class TestBcast:
    @pytest.mark.parametrize("p", PROCS)
    @pytest.mark.parametrize("root", [0, "last"])
    def test_value_everywhere(self, p, root):
        root = p - 1 if root == "last" else 0

        def body(comm):
            v = {"data": [1, 2, 3]} if comm.rank == root else None
            return comm.bcast(v, root=root)

        res = spmd_run(p, body)
        assert all(v == {"data": [1, 2, 3]} for v in res.values)

    def test_array_payload(self, backend):
        def body(comm):
            v = np.arange(100) if comm.rank == 0 else None
            return comm.bcast(v, root=0)

        res = spmd_run(5, body, backend=backend)
        for v in res.values:
            assert np.array_equal(v, np.arange(100))

    def test_bad_root(self):
        with pytest.raises(RankFailedError) as info:
            spmd_run(2, lambda comm: comm.bcast(1, root=5))
        assert isinstance(info.value.original, CommError)

    def test_receivers_get_copies(self):
        """Mutating the broadcast value on one rank must not leak.

        Received arrays may arrive read-only (the COW payload contract),
        so ranks copy before mutating; the copies must be independent.
        """

        def body(comm):
            v = comm.bcast(np.zeros(4) if comm.rank == 0 else None, root=0)
            v = np.asarray(v).copy()
            v[:] = comm.rank
            comm.barrier()
            return v

        res = spmd_run(3, body)
        for rank, v in enumerate(res.values):
            assert np.all(v == rank)


class TestReduce:
    @pytest.mark.parametrize("p", PROCS)
    def test_sum_to_root(self, p):
        res = spmd_run(p, lambda comm: comm.reduce(comm.rank + 1, SUM, root=0))
        assert res.values[0] == p * (p + 1) // 2
        assert all(v is None for v in res.values[1:])

    def test_nonzero_root(self):
        res = spmd_run(5, lambda comm: comm.reduce(comm.rank, SUM, root=3))
        assert res.values[3] == 10
        assert res.values[0] is None

    def test_elementwise_arrays(self):
        def body(comm):
            return comm.reduce(np.full(4, comm.rank, dtype=float), MAX, root=0)

        res = spmd_run(6, body)
        assert np.array_equal(res.values[0], np.full(4, 5.0))

    def test_custom_op(self):
        concat = make_op("concat", lambda a, b: a + b, commutative=False)
        res = spmd_run(4, lambda comm: comm.reduce(str(comm.rank), concat, root=0))
        assert res.values[0] == "0123"


class TestAllreduce:
    @pytest.mark.parametrize("p", PROCS)
    def test_sum_everywhere(self, p, backend):
        res = spmd_run(p, lambda comm: comm.allreduce(comm.rank + 1, SUM), backend=backend)
        assert res.values == [p * (p + 1) // 2] * p

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_min_max(self, p):
        res = spmd_run(p, lambda comm: (comm.allreduce(comm.rank, MIN), comm.allreduce(comm.rank, MAX)))
        assert all(v == (0, p - 1) for v in res.values)

    def test_logical_ops(self):
        def body(comm):
            return (
                comm.allreduce(comm.rank < 2, LAND),
                comm.allreduce(comm.rank == 2, LOR),
            )

        res = spmd_run(4, body)
        assert all(v == (False, True) for v in res.values)

    @pytest.mark.parametrize("p", [3, 4, 6, 7])
    def test_float_bitwise_identical_across_ranks(self, p):
        """Canonical combination order: all ranks agree to the last bit."""

        def body(comm):
            return comm.allreduce(0.1 * (comm.rank + 1) ** 3, SUM)

        res = spmd_run(p, body)
        assert len({v.hex() for v in res.values}) == 1

    @given(p=st.integers(1, 9), values=st.lists(st.integers(-100, 100), min_size=9, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_matches_sequential_reduction(self, p, values):
        def body(comm):
            return comm.allreduce(values[comm.rank], SUM)

        res = spmd_run(p, body)
        assert res.values == [sum(values[:p])] * p

    def test_product_arrays(self):
        def body(comm):
            return comm.allreduce(np.array([2.0, comm.rank + 1.0]), PROD)

        res = spmd_run(3, body)
        assert np.array_equal(res.values[0], np.array([8.0, 6.0]))


class TestGatherScatter:
    @pytest.mark.parametrize("p", PROCS)
    def test_gather(self, p):
        res = spmd_run(p, lambda comm: comm.gather(comm.rank * 2, root=0))
        assert res.values[0] == [2 * i for i in range(p)]
        assert all(v is None for v in res.values[1:])

    @pytest.mark.parametrize("p", PROCS)
    def test_scatter(self, p, backend):
        def body(comm):
            vals = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(vals, root=0)

        res = spmd_run(p, body, backend=backend)
        assert res.values == [f"item{i}" for i in range(p)]

    def test_scatter_gather_roundtrip(self):
        def body(comm):
            got = comm.scatter(list(range(comm.size)) if comm.rank == 0 else None)
            return comm.gather(got * got, root=0)

        res = spmd_run(6, body)
        assert res.values[0] == [i * i for i in range(6)]

    def test_scatter_wrong_length(self):
        def body(comm):
            return comm.scatter([1] if comm.rank == 0 else None, root=0)

        with pytest.raises(RankFailedError) as info:
            spmd_run(3, body)
        assert isinstance(info.value.original, CommError)

    @pytest.mark.parametrize("p", PROCS)
    def test_allgather(self, p, backend):
        res = spmd_run(p, lambda comm: comm.allgather(comm.rank**2), backend=backend)
        assert all(v == [i**2 for i in range(p)] for v in res.values)


class TestAlltoall:
    @pytest.mark.parametrize("p", PROCS)
    def test_transpose_semantics(self, p):
        def body(comm):
            return comm.alltoall([(comm.rank, j) for j in range(comm.size)])

        res = spmd_run(p, body)
        for i, received in enumerate(res.values):
            assert received == [(src, i) for src in range(p)]

    def test_varying_sizes(self, backend):
        """alltoallv: payload sizes differ per (source, dest) pair."""

        def body(comm):
            parcels = [np.arange(comm.rank * 10 + j) for j in range(comm.size)]
            got = comm.alltoall(parcels)
            return [g.size for g in got]

        res = spmd_run(4, body, backend=backend)
        for dest, sizes in enumerate(res.values):
            assert sizes == [src * 10 + dest for src in range(4)]

    def test_wrong_length_rejected(self):
        with pytest.raises(RankFailedError) as info:
            spmd_run(3, lambda comm: comm.alltoall([1, 2]))
        assert isinstance(info.value.original, CommError)


class TestScan:
    @pytest.mark.parametrize("p", PROCS)
    def test_inclusive_prefix_sum(self, p):
        res = spmd_run(p, lambda comm: comm.scan(comm.rank + 1, SUM))
        assert res.values == [sum(range(1, r + 2)) for r in range(p)]

    def test_noncommutative_op(self):
        concat = make_op("concat", lambda a, b: a + b, commutative=False)
        res = spmd_run(5, lambda comm: comm.scan(str(comm.rank), concat))
        assert res.values == ["0", "01", "012", "0123", "01234"]


class TestCollectiveSequences:
    @pytest.mark.chaos(seeds=8)
    def test_many_collectives_in_order(self, backend):
        """A realistic sequence exercises the collective tag discipline."""

        def body(comm):
            comm.barrier()
            s = comm.allreduce(comm.rank, SUM)
            g = comm.allgather(s)
            comm.barrier()
            v = comm.bcast(g[0] if comm.rank == 0 else None, root=0)
            return v

        p = 6
        res = spmd_run(p, body, backend=backend)
        assert res.values == [p * (p - 1) // 2] * p

    def test_user_tags_do_not_collide_with_collectives(self, backend):
        def body(comm):
            nxt = (comm.rank + 1) % comm.size
            comm.send(nxt, comm.rank, tag=0)
            total = comm.allreduce(1, SUM)
            prev = comm.recv(source=(comm.rank - 1) % comm.size, tag=0)
            return (total, prev)

        res = spmd_run(4, body, backend=backend)
        assert res.values == [(4, 3), (4, 0), (4, 1), (4, 2)]

    def test_user_tag_above_limit_rejected(self):
        from repro.comm.communicator import MAX_USER_TAG

        def body(comm):
            comm.send(comm.rank, "x", tag=MAX_USER_TAG + 5)

        with pytest.raises(RankFailedError) as info:
            spmd_run(1, body)
        assert isinstance(info.value.original, CommError)

    def test_send_tag_checks_defer_to_the_context(self):
        """Sends test a tag inline and ask the context's validator only
        about a negative tag or one in ``[MAX_USER_TAG, COLL_TAG_BASE)``:
        a bare context accepts that window (the communicator rejects it,
        above), and every send path rejects a negative tag."""
        from repro.comm.communicator import MAX_USER_TAG
        from repro.machines.catalog import IDEAL
        from repro.runtime.context import RankContext

        class Sink:
            def deliver(self, msg):
                pass

        ctx = RankContext(0, 2, Sink(), IDEAL)
        ctx.send(1, "x", tag=MAX_USER_TAG + 5)
        ctx.isend(1, "x", tag=MAX_USER_TAG + 5)
        for send in (
            lambda: ctx.send(1, "x", tag=-1),
            lambda: ctx.isend(1, "x", tag=-1),
            lambda: ctx.sendrecv(1, "x", None, send_tag=-1),
        ):
            with pytest.raises(CommError, match="negatives are wildcards"):
                send()

    def test_backend_equivalence_compound(self):
        def body(comm):
            data = np.arange(10) + comm.rank
            total = comm.allreduce(data, SUM)
            pieces = comm.alltoall([data[:j].copy() for j in range(comm.size)])
            return total.sum() + sum(p.sum() for p in pieces)

        run_both_backends(5, body)
