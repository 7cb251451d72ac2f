"""Cross-subsystem integration tests.

These exercise combinations the unit tests don't: archetypes running on
sub-communicators, traces of whole applications, chained archetype
programs, and the public package surface.
"""

import numpy as np
import pytest

from repro import spmd_run
from repro.comm.reductions import SUM


class TestMeshOnSubcommunicator:
    def test_distgrid_on_group(self):
        """The mesh archetype works unchanged on a sub-communicator."""
        from repro.core.meshspectral import MeshContext

        full = np.arange(36.0).reshape(6, 6)

        def body(comm):
            sub = comm.split(comm.rank % 2)
            mesh = MeshContext(sub)
            from repro.core.grid import DistGrid

            g = DistGrid.from_global(
                sub, full if sub.rank == 0 else None, dist="rows", ghost=1
            )
            g.exchange()
            total = mesh.grid_reduce(g, np.sum, SUM, identity=0.0)
            return float(total)

        res = spmd_run(4, body)
        assert all(v == pytest.approx(full.sum()) for v in res.values)

    def test_two_groups_different_grids(self):
        from repro.core.meshspectral import MeshContext

        def body(comm):
            sub = comm.split("a" if comm.rank < 2 else "b")
            mesh = MeshContext(sub)
            n = 4 if comm.rank < 2 else 8
            g = mesh.grid((n, n), fill=1.0)
            return mesh.grid_reduce(g, np.sum, SUM, identity=0.0)

        res = spmd_run(4, body)
        assert res.values[0] == res.values[1] == 16.0
        assert res.values[2] == res.values[3] == 64.0

    def test_onedeep_on_group(self, rng):
        from repro.core.onedeep import OneDeepDC
        from repro.apps.sorting.mergesort import _merge_phase
        from repro.util.partition import split_evenly

        data = rng.integers(0, 10**6, size=600)

        def body(comm):
            sub = comm.split(0 if comm.rank < 3 else 1)
            arch = OneDeepDC(
                solve=lambda x: np.sort(x, kind="stable"), merge=_merge_phase()
            )
            piece = arch.body(sub, split_evenly(data, sub.size))
            gathered = sub.gather(piece, root=0)
            if sub.rank == 0:
                return np.concatenate(gathered)
            return None

        res = spmd_run(6, body)
        assert np.array_equal(res.values[0], np.sort(data))  # group "a" root
        assert np.array_equal(res.values[3], np.sort(data))  # group "b" root


class TestChainedArchetypePrograms:
    def test_sort_then_fft(self, rng):
        """Two archetype stages in sequence on the same communicator."""
        from repro.core.onedeep import OneDeepDC
        from repro.apps.sorting.mergesort import _merge_phase
        from repro.apps.fft2d import fft2d_program
        from repro.core.meshspectral import MeshContext
        from repro.util.partition import split_evenly

        keys = rng.integers(0, 255, size=64)

        def body(comm):
            arch = OneDeepDC(
                solve=lambda x: np.sort(x, kind="stable"), merge=_merge_phase()
            )
            piece = arch.body(comm, split_evenly(keys, comm.size))
            sorted_keys = np.concatenate(comm.allgather(piece))
            image = sorted_keys.astype(complex).reshape(8, 8)
            return fft2d_program(MeshContext(comm), image)

        res = spmd_run(4, body)
        expected = np.fft.fft2(np.sort(keys).astype(complex).reshape(8, 8))
        assert np.allclose(res.values[0], expected, atol=1e-9)


class TestWholeApplicationTraces:
    def test_poisson_trace_accounts_for_all_phases(self):
        from repro.apps.poisson import poisson_archetype
        from repro.trace.analysis import phase_breakdown, summarize
        from repro.machines.catalog import IBM_SP

        res = poisson_archetype().run(
            4,
            32,
            32,
            machine=IBM_SP,
            tolerance=0.0,
            max_iters=3,
            gather_solution=False,
            trace=True,
        )
        breakdown = phase_breakdown(res.tracer)
        # The par-loop layer charges under each loop's declared label,
        # so the sweep shows up as "jacobi".
        assert "jacobi" in breakdown
        assert "diffmax" in breakdown
        s = summarize(res.tracer)
        # 3 iterations x (exchange + allreduce) on 4 ranks: plenty of
        # messages, and every byte sent was received.
        assert s.total_messages > 20
        assert sum(r.bytes_sent for r in s.ranks) == sum(
            r.bytes_received for r in s.ranks
        )

    def test_gantt_of_full_application(self, rng):
        from repro.apps.sorting import one_deep_mergesort
        from repro.trace.analysis import render_gantt
        from repro.machines.catalog import INTEL_DELTA

        data = rng.integers(0, 10**6, size=5000)
        res = one_deep_mergesort().run(4, data, machine=INTEL_DELTA, trace=True)
        art = render_gantt(res.tracer)
        assert art.count("rank") == 4


class TestPublicSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_comm_exports(self):
        import repro.comm as comm

        for name in comm.__all__:
            assert getattr(comm, name) is not None

    def test_bench_exports(self):
        import repro.bench as bench

        for name in bench.__all__:
            assert getattr(bench, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
