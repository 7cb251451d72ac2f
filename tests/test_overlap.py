"""Compute/communication overlap: A/B identity and makespan wins.

The overlapped stencil pipeline (post receives → compute deep cells →
waitall → compute shells) must be *bitwise identical* to the blocking
path for the star-stencil applications — the 5-point/curl/Lax-Friedrichs
stencils never read corner ghosts — while finishing no later in virtual
time.  The chaos-marked tests extend the identity across eight fuzzed
schedules.

The pipeline is the *accounting* walk: it decides the virtual clock, the
trace and the message order.  Bodies run once over the whole region after
the wait (``TestTwoWalks``).  Before the engine stopped executing bodies
tile by tile, the five par-loop applications were run on that walk at 4
ranks — deterministic schedule plus eight fuzzed seeds — and their
per-rank clocks (``float.hex``), value digest and a digest of the ordered
trace events were recorded in ``tests/data/overlap_walk_pins.json``;
``TestWalkPins`` holds the engine to them bit for bit.
"""

import json
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.apps import registry
from repro.core import MeshProgram
from repro.core.meshspectral import StencilView, split_deep_shell
from repro.errors import RankFailedError
from repro.kernels import READ, WRITE, Arg, RegionKernel
from repro.machines.catalog import IBM_SP, INTEL_DELTA
from repro.verify import fuzzed_schedule, value_digest

_PINS = json.loads(
    (Path(__file__).parent / "data" / "overlap_walk_pins.json").read_text()
)


def _run(program, p, *args, machine=IBM_SP, **kwargs):
    return MeshProgram(program).run(p, *args, machine=machine, **kwargs)


class TestDeepShellDecomposition:
    def test_tiles_are_disjoint_and_cover(self):
        region = (slice(0, 7), slice(0, 5))
        deep, shells = split_deep_shell(region, 2, (7, 5))
        mask = np.zeros((7, 5), dtype=int)
        mask[deep] += 1
        for sel in shells:
            mask[sel] += 1
        assert np.all(mask == 1)  # exact disjoint cover of the region
        assert deep == (slice(2, 5), slice(2, 3))

    def test_thin_section_has_empty_deep(self):
        region = (slice(0, 3), slice(0, 8))
        deep, shells = split_deep_shell(region, 2, (3, 8))
        assert deep[0].start == deep[0].stop  # no cell is 2 from both edges
        mask = np.zeros((3, 8), dtype=int)
        for sel in shells:
            mask[sel] += 1
        mask[deep] += 1
        assert np.all(mask == 1)

    def test_empty_region(self):
        region = (slice(0, 0), slice(0, 4))
        deep, shells = split_deep_shell(region, 1, (0, 4))
        mask = np.zeros((0, 4), dtype=int)
        mask[deep] += 1
        for sel in shells:
            mask[sel] += 1
        assert mask.size == 0


class TestStencilOpIdentity:
    @pytest.mark.chaos(seeds=8)
    @pytest.mark.parametrize("p", [2, 4])
    def test_overlap_flag_is_bitwise_invisible(self, p):
        full = np.linspace(0.0, 1.0, 81).reshape(9, 9)

        def prog(mesh, overlap):
            from repro.core.grid import DistGrid

            mesh.overlap = overlap
            u = DistGrid.from_global(
                mesh.comm, full if mesh.comm.rank == 0 else None, ghost=1
            )
            out = u.like()
            average = mesh.loop(
                lambda o, s: o.__setitem__(
                    ..., 0.25 * (s[-1, 0] + s[1, 0] + s[0, -1] + s[0, 1])
                ),
                Arg(out, WRITE),
                Arg(u, READ, halo=1),
                margin=1,
                flops_per_point=4.0,
            )
            copy_back = mesh.loop(lambda o, x: o.__setitem__(..., x), Arg(u, WRITE), Arg(out, READ))
            for _ in range(3):
                average()
                copy_back()
            return out.gather(root=0)

        a = _run(prog, p, True)
        b = _run(prog, p, False)
        assert np.array_equal(a.values[0], b.values[0])
        assert max(a.times) <= max(b.times)


class TestApplicationIdentity:
    @pytest.mark.chaos(seeds=8)
    def test_poisson(self):
        from repro.apps.poisson import poisson_program

        kwargs = dict(tolerance=0.0, max_iters=4)
        a = _run(poisson_program, 4, 32, 32, overlap=True, **kwargs)
        b = _run(poisson_program, 4, 32, 32, overlap=False, **kwargs)
        ra, rb = a.values[0], b.values[0]
        assert ra.iterations == rb.iterations
        assert ra.diffmax == rb.diffmax
        assert np.array_equal(ra.solution, rb.solution)
        assert max(a.times) <= max(b.times)

    @pytest.mark.chaos(seeds=8)
    def test_cfd(self):
        from repro.apps.cfd import cfd_program

        kwargs = dict(ic="smooth", gather=True)
        a = _run(cfd_program, 4, 24, 24, 2, overlap=True, machine=INTEL_DELTA, **kwargs)
        b = _run(cfd_program, 4, 24, 24, 2, overlap=False, machine=INTEL_DELTA, **kwargs)
        ra, rb = a.values[0], b.values[0]
        assert ra.time == rb.time
        assert np.array_equal(ra.density, rb.density)
        assert np.array_equal(ra.pressure, rb.pressure)
        assert max(a.times) <= max(b.times)

    @pytest.mark.chaos(seeds=8)
    def test_fdtd(self):
        from repro.apps.fdtd import fdtd_program

        a = _run(fdtd_program, 4, 8, 8, 8, 2, overlap=True)
        b = _run(fdtd_program, 4, 8, 8, 8, 2, overlap=False)
        ra, rb = a.values[0], b.values[0]
        assert ra.energy == rb.energy
        assert np.array_equal(ra.ez, rb.ez)
        assert max(a.times) <= max(b.times)

    def test_overlap_strictly_faster_on_real_machines(self):
        """On modelled hardware the overlapped makespan is strictly lower
        (the blocking path exposes the full wire time every sweep)."""
        from repro.apps.poisson import poisson_program

        for machine in (IBM_SP, INTEL_DELTA):
            a = _run(
                poisson_program, 4, 64, 64, overlap=True, machine=machine,
                tolerance=0.0, max_iters=3, gather_solution=False,
            )
            b = _run(
                poisson_program, 4, 64, 64, overlap=False, machine=machine,
                tolerance=0.0, max_iters=3, gather_solution=False,
            )
            assert max(a.times) < max(b.times), machine.name


class TestWalkPins:
    """A = the recorded per-tile walk, B = the engine."""

    @pytest.mark.parametrize(
        "pin", _PINS["rows"], ids=lambda pin: f"{pin['app']}-{pin['seed']}"
    )
    def test_reproduces_recorded_walk(self, pin):
        spec = registry.get(pin["app"])
        params = {"nprocs": _PINS["nprocs"], **_PINS["params"][pin["app"]]}
        seed = pin["seed"]
        with nullcontext() if seed is None else fuzzed_schedule(seed):
            res = spec.run(params, machine=_PINS["machine"], trace=True)
        # Clocks: exact float equality, not approx.
        assert [float(t).hex() for t in res.times] == pin["clocks"]
        assert value_digest(res.values) == pin["values"]
        events = [repr(e) for rank in res.tracer.events for e in rank]
        assert value_digest(events) == pin["trace"]


class TestTwoWalks:
    """Charged by tile, executed by region."""

    @pytest.mark.parametrize("declared", [True, False])
    def test_region_body_runs_once_over_the_whole_region_after_the_wait(
        self, declared
    ):
        def prog(mesh):
            u = mesh.grid((12, 12), ghost=1)
            u.fill_from(lambda i, j: 100.0 * i + j)
            out = u.like()
            calls = []

            def apply(region):
                calls.append(region)
                # Every ghost a neighbour feeds is already fresh: the
                # 4-point sum over the full region must find none of the
                # -1 poison planted below.
                s = StencilView(u, region)
                out.interior[region] = s[-1, 0] + s[1, 0] + s[0, -1] + s[0, 1]

            declaration = dict(flops_per_point=4.0)
            args = (RegionKernel(apply), Arg(u, READ, halo=1), Arg(out, WRITE))
            # declared above the poisoning or at the point of use: what a
            # run exchanges is state, read when it runs
            update = (
                mesh.loop(*args, **declaration)
                if declared
                else lambda: mesh.parloop(*args, **declaration)
            )
            for axis, (lo, hi) in enumerate(u.rect):
                # poison only ghosts that have a neighbour to refresh them
                sel = [slice(1, -1)] * 2
                if lo > 0:
                    sel[axis] = 0
                    u.local[tuple(sel)] = -1.0
                if hi < 12:
                    sel[axis] = -1
                    u.local[tuple(sel)] = -1.0
            update()
            owned = tuple(slice(0, n) for n in u.interior.shape)
            return calls == [owned], out.gather(root=0)

        res = _run(prog, 4)
        assert all(once for once, _ in res.values)
        i, j = np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij")
        full = np.pad(100.0 * i + j, 1)  # physical-edge ghosts stay 0
        expected = full[:-2, 1:-1] + full[2:, 1:-1] + full[1:-1, :-2] + full[1:-1, 2:]
        assert np.array_equal(res.values[0][1], expected)

    def test_accounting_walk_still_charges_deep_then_shells(self):
        """One body call, but the clock sees the tiles: a compute event
        for the deep cells before the exchange completes and one per
        shell after it, summing to the whole-region charge."""

        def prog(mesh):
            u = mesh.grid((12, 12), ghost=1, fill=1.0)
            mesh.parloop(
                RegionKernel(lambda region: None),
                Arg(u, READ, halo=1),
                Arg(u.like(), WRITE),
                flops_per_point=1.0,
                label="walk",
            )

        res = _run(prog, 4, trace=True)
        events = res.tracer.events[0]
        charges = [e for e in events if getattr(e, "label", None) == "walk"]
        # rank 0 owns a 6x6 corner section: deep 4x4, then 2 row shells
        # of 6 and 2 column shells of 4.
        assert [e.flops for e in charges] == [16.0, 6.0, 6.0, 4.0, 4.0]
        completes = [
            e.start for e in events if getattr(e, "op", None) == "complete"
        ]
        assert charges[0].end <= min(completes)
        assert charges[1].start >= max(completes)

    def test_raising_body_surfaces_as_rank_failure(self):
        def prog(mesh):
            u = mesh.grid((8, 8), ghost=1, fill=1.0)

            def apply(region):
                raise ValueError("body failed")

            mesh.parloop(
                RegionKernel(apply), Arg(u, READ, halo=1), Arg(u.like(), WRITE)
            )

        with pytest.raises(RankFailedError) as info:
            _run(prog, 4)
        assert isinstance(info.value.original, ValueError)
