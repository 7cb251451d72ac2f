"""Coverage of corners the focused suites don't reach."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import spmd_run
from repro.comm import SUM, block_layout, redistribute
from repro.machines.model import MachineModel

TOY = MachineModel("toy", alpha=1e-4, beta=1e-7, flop_time=1e-7)


class TestDtypeFidelity:
    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint16, np.float32, np.complex64, np.complex128]
    )
    def test_collectives_preserve_dtype(self, dtype):
        def body(comm):
            v = np.ones(4, dtype=dtype) * (comm.rank + 1)
            total = comm.allreduce(v, SUM)
            gathered = comm.bcast(total if comm.rank == 0 else None)
            return gathered.dtype == dtype

        assert all(spmd_run(3, body).values)

    @given(
        dims=st.sampled_from([(2, 1, 2), (1, 4, 1), (2, 2, 1)]),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=10, deadline=None)
    def test_redistribute_3d_random_contents(self, dims, seed):
        rng = np.random.default_rng(seed)
        full = rng.normal(size=(4, 6, 4)) + 1j * rng.normal(size=(4, 6, 4))
        p = int(np.prod(dims))

        def body(comm):
            old = block_layout(full.shape, dims)
            new = block_layout(full.shape, (p, 1, 1))
            moved = redistribute(comm, full[old.slices(comm.rank)].copy(), old, new)
            return np.array_equal(moved, full[new.slices(comm.rank)])

        assert all(spmd_run(p, body).values)


class TestMessageOrdering:
    def test_same_source_same_tag_fifo(self):
        """Non-overtaking: two messages with identical (source, tag)
        arrive in send order even with arrival-order matching."""

        def body(comm):
            if comm.rank == 0:
                for k in range(10):
                    comm.send(1, k, tag=1)
                return None
            return [comm.recv(source=0, tag=1) for _ in range(10)]

        res = spmd_run(2, body, machine=TOY)
        assert res.values[1] == list(range(10))

    def test_wildcard_prefers_earliest_arrival(self):
        """With distinct senders, the wildcard receive takes the message
        that arrived first in virtual time, not delivery order."""

        def body(comm):
            if comm.rank == 2:
                # Rank 1's send happens later in virtual time because it
                # computes first.
                first = comm.recv()
                second = comm.recv()
                return (first, second)
            if comm.rank == 1:
                comm.charge(10**6)  # 0.1 s on TOY
                comm.send(2, "late")
            else:
                comm.send(2, "early")
            return None

        res = spmd_run(3, body, machine=TOY)
        assert res.values[2] == ("early", "late")

    def test_seq_monotonic_per_sender(self):
        from repro.runtime.message import Message

        def body(comm):
            if comm.rank == 0:
                comm.send(1, "a", tag=1)
                comm.send(1, "b", tag=2)
                return None
            m1 = comm.recv_msg(source=0, tag=1)
            m2 = comm.recv_msg(source=0, tag=2)
            assert isinstance(m1, Message)
            return m2.seq > m1.seq

        assert spmd_run(2, body).values[1] is True


class TestGridDtypes:
    def test_complex_grid_roundtrip(self):
        from repro.core.grid import DistGrid

        full = (np.arange(16.0) + 1j * np.arange(16.0)).reshape(4, 4)

        def body(comm):
            g = DistGrid.from_global(comm, full if comm.rank == 0 else None)
            back = g.gather(root=0)
            return back is None or np.array_equal(back, full)

        assert all(spmd_run(4, body).values)

    def test_ghost_two_stencil(self):
        """A 5-wide stencil (ghost=2) across rank boundaries."""
        from repro.core import MeshProgram
        from repro.kernels import READ, WRITE, Arg

        full = np.arange(64.0).reshape(8, 8)

        def prog(mesh):
            from repro.core.grid import DistGrid

            u = DistGrid.from_global(
                mesh.comm, full if mesh.comm.rank == 0 else None, dist="rows", ghost=2
            )
            out = u.like()
            mesh.parloop(
                lambda o, s: o.__setitem__(..., s[-2, 0] + s[2, 0]),
                Arg(out, WRITE),
                Arg(u, READ, halo=2),
                margin=2,
            )
            return out.gather(root=0)

        a = MeshProgram(prog).run(1).values[0]
        b = MeshProgram(prog).run(4).values[0]
        assert np.array_equal(a, b)
        assert a[3, 3] == full[1, 3] + full[5, 3]


class TestRunResultSurface:
    def test_repr_and_fields(self):
        res = spmd_run(2, lambda comm: comm.rank, machine=TOY)
        assert res.nprocs == 2
        assert res.machine is TOY
        assert res.elapsed >= 0.0

    def test_elapsed_empty_times(self):
        from repro.runtime.spmd import RunResult

        empty = RunResult(values=[], times=[], machine=TOY)
        assert empty.elapsed == 0.0

    def test_speedup_over_zero_elapsed(self):
        from repro.errors import ReproError
        from repro.runtime.spmd import RunResult

        res = RunResult(values=[None], times=[0.0], machine=TOY)
        with pytest.raises(ReproError):
            res.speedup_over(1.0)


class TestVersion1PoissonWithSource:
    def test_source_variant_matches_reference(self):
        """Version 1 (the declared program at P = 1) with a source term."""
        from repro.apps.poisson import poisson_archetype, reference_poisson

        f = lambda i, j: np.full(np.broadcast(i, j).shape, 2.0)  # noqa: E731
        v1 = poisson_archetype().run(1, 8, 8, f=f, tolerance=1e-3).values[0]
        u2, it2 = reference_poisson(8, 8, f=f, tolerance=1e-3)
        assert v1.iterations == it2
        assert np.allclose(v1.solution, u2, atol=1e-12)


class TestPayloadVariety:
    @given(
        payload=st.recursive(
            st.one_of(
                st.integers(-1000, 1000),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.text(max_size=10),
                st.none(),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=4), children, max_size=3),
                st.tuples(children, children),
            ),
            max_leaves=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_payloads_roundtrip(self, payload):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, payload, tag=1)
                return None
            return comm.recv(source=0, tag=1)

        res = spmd_run(2, body)
        assert res.values[1] == payload

    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_array_broadcast_exact(self, shape, seed):
        arr = np.random.default_rng(seed).normal(size=shape)

        def body(comm):
            got = comm.bcast(arr if comm.rank == 0 else None)
            return np.array_equal(got, arr)

        assert all(spmd_run(3, body).values)


class TestDocstringQuickstart:
    def test_package_docstring_example_works(self, rng):
        """The quickstart in repro/__init__ must actually run."""
        from repro import INTEL_DELTA
        from repro.apps.sorting import one_deep_mergesort

        data = rng.integers(0, 10**6, size=2_000)
        result = one_deep_mergesort().run(8, data, machine=INTEL_DELTA)
        assert np.array_equal(np.concatenate(result.values), np.sort(data))
