"""The par-loop kernel layer: tile-budget identity and planning units.

The load-bearing invariant: the tile budget selects *how a group's
bodies walk the region* (how many row tiles, loop-interleaved) and
nothing else — groups, exchange packs, hoists, charges, and therefore
values, virtual clocks, and traces are identical at every budget.
:class:`TestFusionIdentity` checks exactly that on the five mesh
applications — the three views-kernel chains and the two region-kernel
codes (cfd, fdtd: single-loop groups and a 3-D grid); the unit classes
pin the planning rules the invariant rests on (fusion legality, exchange
hoisting, validity invalidation, tiling).
"""

import numpy as np
import pytest

from repro.apps import registry
from repro.core import MeshProgram
from repro.kernels import (
    READ,
    RW,
    WRITE,
    Arg,
    RegionKernel,
    build_groups,
)
from repro.kernels import runtime as kernel_runtime
from repro.obs.metrics import scoped_registry
from repro.verify.digest import value_digest

#: the mesh applications the tile-budget identity covers
AB_APPS = ("poisson", "smog", "spectralflow", "cfd", "fdtd")

#: tile budgets (bytes of group arrays per tile): one row per tile, and
#: past every region (each body runs once over its whole region)
ONE_ROW = 1
WHOLE_REGION = 1 << 62


def run_app(app: str, trace: bool = False):
    """One verification-scale run of *app* from the shared registry."""
    spec = registry.get(app)
    return spec.run(spec.verify_overrides, machine="ibm-sp", trace=trace)


def digest_of(result) -> str:
    return value_digest([result.times, result.values])


def flat_trace(result) -> list[str]:
    return [repr(e) for rank in result.tracer.events for e in rank]


class TestFusionIdentity:
    """A fused group computes the same at every tile budget: one-row
    tiles and a budget past every region (each body once over its whole
    region, in declaration order) give the default's digests,
    ``float.hex`` clocks and trace event reprs on all five mesh apps.

    The deterministic engine suffices.  A group's execution walk runs
    after all of its charges and waits and touches only this rank's
    local arrays, so the budget reaches no message, clock or schedule:
    the threaded, process and fuzzed engines would compare the same
    values again.
    """

    @pytest.mark.parametrize("app", AB_APPS)
    def test_digest_clock_trace_identity(self, app, monkeypatch):
        def observe(tile_bytes):
            monkeypatch.setattr("repro.kernels.runtime._TILE_BYTES", tile_bytes)
            with scoped_registry() as reg:
                res = run_app(app, trace=True)
                tiles = _kernel_counters(reg.snapshot())["tiles"]
            return ([float(t).hex() for t in res.times], digest_of(res), flat_trace(res)), tiles

        default, _ = observe(kernel_runtime._TILE_BYTES)
        one_row, row_tiles = observe(ONE_ROW)
        whole, region_tiles = observe(WHOLE_REGION)
        assert row_tiles > region_tiles, f"{app}: one-row tiles cut nothing"
        assert one_row == default, f"{app}: one-row tiles diverged"
        assert whole == default, f"{app}: whole-region walk diverged"


def _loops_for_grouping(mesh):
    """a -> b -> a chain over one region: READ a / WRITE a / READ a."""
    a = mesh.grid((8, 8), ghost=1, fill=1.0)
    b = mesh.grid((8, 8), ghost=1)
    c = mesh.grid((8, 8), ghost=1)

    def body(*views):
        pass

    read_a = mesh.loop(body, Arg(b, WRITE), Arg(a, READ, halo=1))
    write_a = mesh.loop(body, Arg(a, WRITE), Arg(c, READ))
    read_a_again = mesh.loop(body, Arg(c, WRITE), Arg(a, READ, halo=1))
    return [read_a, write_a, read_a_again]


class TestFusionLegality:
    def test_write_between_two_reads_breaks_fusion(self):
        """The ISSUE's canonical case: READ a / WRITE a / READ a must
        split into three groups — the middle write both invalidates the
        halo the first loop consumed and feeds the halo the third needs."""

        def prog(mesh):
            groups = build_groups(_loops_for_grouping(mesh))
            return [len(g.loops) for g in groups]

        res = MeshProgram(prog).run(1)
        assert res.values[0] == [1, 1, 1]

    def test_pointwise_chain_fuses(self):
        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            b = mesh.grid((8, 8), ghost=1)

            def body(*views):
                pass

            loops = [
                mesh.loop(body, Arg(b, WRITE), Arg(a, READ)),
                mesh.loop(body, Arg(a, WRITE), Arg(b, READ)),
                mesh.loop(body, Arg(a, RW), Arg(b, RW)),
            ]
            return [len(g.loops) for g in build_groups(loops)]

        res = MeshProgram(prog).run(1)
        assert res.values[0] == [3]

    def test_region_mismatch_breaks_fusion(self):
        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            b = mesh.grid((8, 8), ghost=1)

            def body(*views):
                pass

            loops = [
                mesh.loop(body, Arg(b, WRITE), Arg(a, READ), margin=0),
                mesh.loop(body, Arg(b, WRITE), Arg(a, READ), margin=1),
            ]
            return [len(g.loops) for g in build_groups(loops)]

        res = MeshProgram(prog).run(1)
        assert res.values[0] == [1, 1]

    def test_two_ghost_keys_on_one_dat_break_fusion(self):
        """A group refreshes and edge-fills before any body runs, so two
        halo reads of one dat fuse only under one ghost key: fused, the
        first loop would read the second's fill."""

        def prog(mesh, fused):
            u, a, b, copy, zero = _two_key_loops(mesh)
            if fused:
                with mesh.fuse():
                    copy()
                    zero()
            else:
                copy()
                zero()
            return a.gather(root=0), b.gather(root=0)

        fused = MeshProgram(prog).run(2, True).values[0]
        sequential = MeshProgram(prog).run(2, False).values[0]
        assert np.array_equal(fused[0], sequential[0])
        assert np.array_equal(fused[1], sequential[1])
        assert np.array_equal(fused[0][0], 1.0 + np.arange(6))  # the copied edge
        assert not fused[1][0].any()  # the zeroed one

    def test_one_ghost_key_on_one_dat_fuses_and_dedups(self):
        def prog(mesh):
            u = mesh.grid((6, 6), ghost=1, fill=1.0)
            outs = [mesh.grid((6, 6), ghost=1) for _ in range(2)]
            with mesh.fuse():
                for out in outs:
                    mesh.parloop(_row_above, Arg(out, WRITE), Arg(u, READ, halo=1, edges="copy"))

        with scoped_registry() as reg:
            MeshProgram(prog).run(2)
            counters = _kernel_counters(reg.snapshot())
        assert counters["groups"] == 2  # one per rank
        assert counters["loops_fused"] == 4
        assert counters["exchanges"] == 2

    def test_region_kernel_must_declare_a_write(self):
        """A region body slices its own grids: a loop that names no write
        has a write set nobody can see, and is refused by name."""
        from repro.errors import ArchetypeError

        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1)
            b = mesh.grid((8, 8), ghost=1)
            with pytest.raises(ArchetypeError, match="'blind-update' declares no write"):
                mesh.loop(
                    RegionKernel(lambda region: None),
                    Arg(b, READ),
                    Arg(a, READ, halo=1),
                    label="blind-update",
                )
            mesh.loop(RegionKernel(lambda region: None), Arg(b, RW), Arg(a, READ, halo=1))
            return True

        assert all(MeshProgram(prog).run(2).values)


def _row_above(out, u):
    out[...] = u[-1, 0]


def _two_key_loops(mesh):
    """``u`` (row i holds 1 + j) read one row up under ``edges="copy"``
    into ``a`` and under ``edges="zero"`` into ``b``: global row 0 of the
    result is the physical-edge ghost row, the copied edge or zeros."""
    u = mesh.grid((6, 6), ghost=1)
    u.fill_from(lambda i, j: 1.0 + j + 0.0 * i)
    a, b = u.like(), u.like()
    copy = mesh.loop(_row_above, Arg(a, WRITE), Arg(u, READ, halo=1, edges="copy"))
    zero = mesh.loop(_row_above, Arg(b, WRITE), Arg(u, READ, halo=1, edges="zero"))
    return u, a, b, copy, zero


def _kernel_counters(snapshot: dict) -> dict:
    return {
        k.split(".")[-1]: v["value"]
        for k, v in snapshot.items()
        if k.startswith("core.kernels.")
    }


class TestExchangeHoisting:
    def test_second_read_hoists(self):
        """Two consecutive stencil loops over a clean dat: the first
        exchanges, the second finds the halo still valid."""

        def body(out, a):
            out[...] = a[0, 0]

        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            b = mesh.grid((8, 8), ghost=1)
            c = mesh.grid((8, 8), ghost=1)
            mesh.parloop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1)
            mesh.parloop(body, Arg(c, WRITE), Arg(a, READ, halo=1), margin=1)

        with scoped_registry() as reg:
            MeshProgram(prog).run(2)
            counters = _kernel_counters(reg.snapshot())
        assert counters["exchanges"] == 2  # one per rank
        assert counters["exchanges_hoisted"] == 2

    def test_kernel_write_invalidates(self):
        """A declared write between the reads forces a re-exchange."""

        def body(out, a):
            out[...] = a[0, 0]

        def touch(a):
            a += 1.0

        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            b = mesh.grid((8, 8), ghost=1)
            mesh.parloop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1)
            mesh.parloop(touch, Arg(a, RW))
            mesh.parloop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1)

        with scoped_registry() as reg:
            MeshProgram(prog).run(2)
            counters = _kernel_counters(reg.snapshot())
        assert counters["exchanges"] == 4  # both reads exchange, per rank
        assert counters.get("exchanges_hoisted", 0) == 0

    def test_refresh_under_another_key_is_not_hoisted_over(self):
        """``grid.clean`` is one slot: after copy(); zero() the ghosts
        hold zero's fill, so the second copy() must refresh again, not
        find its own mark still standing."""

        def prog(mesh):
            u, a, b, copy, zero = _two_key_loops(mesh)
            copy()
            first = a.gather(root=0)
            zero()
            copy()
            return first, a.gather(root=0)

        with scoped_registry() as reg:
            first, again = MeshProgram(prog).run(2).values[0]
            counters = _kernel_counters(reg.snapshot())
        assert np.array_equal(first[0], 1.0 + np.arange(6))
        assert np.array_equal(again, first)
        assert counters["exchanges"] == 2 * 3 and "exchanges_hoisted" not in counters

    def test_periodic_then_edge_copy_refreshes_again(self):
        def prog(mesh):
            u = mesh.grid((6, 6), ghost=1)
            u.fill_from(lambda i, j: 1.0 * i + 0.0 * j)
            a, b = u.like(), u.like()
            wrapped = mesh.loop(_row_above, Arg(a, WRITE), Arg(u, READ, halo=1, periodic=True))
            copied = mesh.loop(_row_above, Arg(b, WRITE), Arg(u, READ, halo=1, edges="copy"))
            copied()
            wrapped()
            copied()
            return a.gather(root=0), b.gather(root=0)

        wrapped, copied = MeshProgram(prog).run(2).values[0]
        assert np.all(wrapped[0] == 5.0)  # row 0 reads row 5 round the torus
        assert np.all(copied[0] == 0.0)  # and its own edge under "copy"

    def test_hoist_across_fused_groups_matches_values(self):
        """Hoisting never changes values: a two-group fuse block where
        the second group's exchange hoists must equal the one-rank
        run."""

        def diff(out, a):
            out[...] = a[1, 0] - a[-1, 0]

        def avg(out, a):
            out[...] = 0.5 * (a[0, 1] + a[0, -1])

        def prog(mesh):
            a = mesh.grid((12, 12), ghost=1)
            a.fill_from(lambda i, j: np.sin(i * 1.0) + j)
            d = mesh.grid((12, 12), ghost=1)
            m = mesh.grid((12, 12), ghost=1)
            with mesh.fuse():
                mesh.parloop(diff, Arg(d, WRITE), Arg(a, READ, halo=1), margin=1)
                mesh.parloop(avg, Arg(m, WRITE), Arg(a, READ, halo=1), margin=0)
            return d.gather(root=0), m.gather(root=0)

        one = MeshProgram(prog).run(1).values[0]
        four = MeshProgram(prog).run(4).values[0]
        assert np.array_equal(one[0], four[0])
        assert np.array_equal(one[1], four[1])


class TestPlanningOnRegisteredApps:
    """Packing and hoisting engage on the *registered* mesh-spectral
    apps at verification scale, not only on hand-built loop chains."""

    @pytest.mark.parametrize(
        "app, engaged",
        [
            ("smog", ("dats_packed",)),
            ("spectralflow", ("dats_packed", "exchanges_hoisted")),
        ],
    )
    def test_counters_engage(self, app, engaged):
        with scoped_registry() as reg:
            run_app(app)
            counters = _kernel_counters(reg.snapshot())
        for name in engaged:
            assert counters.get(name, 0) > 0, (app, name, counters)


class TestTiling:
    @staticmethod
    def _tiny_tiles_vs_whole_region(app, monkeypatch):
        monkeypatch.setattr("repro.kernels.runtime._TILE_BYTES", 128)
        with scoped_registry() as reg:
            tiled = run_app(app)
            counters = _kernel_counters(reg.snapshot())
        monkeypatch.setattr("repro.kernels.runtime._TILE_BYTES", WHOLE_REGION)
        whole = run_app(app)
        assert counters["tiles"] > counters["groups"], "expected multi-tile groups"
        assert digest_of(tiled) == digest_of(whole)
        return counters

    def test_tiny_tiles_match_unfused(self, monkeypatch):
        """Forcing many row tiles exercises the tiled walk without
        changing a bit of the output against one whole-region call per
        loop."""
        counters = self._tiny_tiles_vs_whole_region("smog", monkeypatch)
        assert counters["loops_fused"] > 0

    def test_single_loop_groups_tile_too(self, monkeypatch):
        """Poisson's groups hold one loop each: tiled all the same, and
        nothing counts as interleaved."""
        counters = self._tiny_tiles_vs_whole_region("poisson", monkeypatch)
        assert counters.get("loops_fused", 0) == 0

    def test_region_inside_the_budget_is_one_call(self):
        """One tile per group at the default footprint: every body runs
        exactly once over its whole region, and a run whose groups are
        all single-loop interleaves nothing."""
        regions = []

        def prog(mesh):
            a = mesh.grid((24, 24), ghost=1, fill=1.0)
            b = mesh.grid((24, 24), ghost=1)

            def views_body(out, src):
                regions.append(out.shape)
                out[...] = src[0, 1]

            def region_body(region):
                regions.append(region)

            mesh.parloop(views_body, Arg(b, WRITE), Arg(a, READ, halo=1))
            mesh.parloop(RegionKernel(region_body), Arg(b, READ, halo=1), Arg(a, WRITE))

        with scoped_registry() as reg:
            MeshProgram(prog).run(1)
            counters = _kernel_counters(reg.snapshot())
        assert regions == [(24, 24), (slice(0, 24), slice(0, 24))]
        assert counters["tiles"] == counters["groups"] == 2
        assert counters.get("loops_fused", 0) == 0


class TestDeclaredLoops:
    """``mesh.loop`` declares once; what a run reads — ghost validity,
    the overlap default, the fusion window — is read at every run."""

    @staticmethod
    def _observe(prog, nprocs=2):
        with scoped_registry() as reg:
            res = MeshProgram(prog).run(nprocs, trace=True)
            counters = _kernel_counters(reg.snapshot())
        return digest_of(res), flat_trace(res), counters

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_n_runs_are_n_parloop_calls(self, nprocs):
        def body(out, a):
            out[...] = a[1, 0] + a[0, -1]

        def bump(a, b):
            a += b

        def grids(mesh):
            a = mesh.grid((12, 10), ghost=1)
            a.fill_from(lambda i, j: np.cos(i * 1.0) + j)
            return a, mesh.grid((12, 10), ghost=1)

        def declared(mesh):
            a, b = grids(mesh)
            sweep = mesh.loop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1, flops_per_point=3.0)
            feed = mesh.loop(bump, Arg(a, RW), Arg(b, READ), flops_per_point=1.0, label="bump")
            for _ in range(5):
                sweep()
                feed()
            return a.gather(root=0)

        def called(mesh):
            a, b = grids(mesh)
            for _ in range(5):
                mesh.parloop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1, flops_per_point=3.0)
                mesh.parloop(bump, Arg(a, RW), Arg(b, READ), flops_per_point=1.0, label="bump")
            return a.gather(root=0)

        assert self._observe(declared, nprocs) == self._observe(called, nprocs)

    def test_ghost_validity_is_read_at_every_run(self):
        """Second run hoists; a write the engine is told about makes the
        next run exchange again."""

        def body(out, a):
            out[...] = a[0, 1]

        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            b = mesh.grid((8, 8), ghost=1)
            read_a = mesh.loop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1)
            read_a()  # exchanges
            read_a()  # hoisted
            read_a()  # hoisted, from the remembered plan
            a.interior[...] = 2.0
            mesh.kernels.note_write(a)
            read_a()  # exchanges
            read_a()  # hoisted
            return float(b.interior.max())

        _, _, counters = self._observe(prog)
        assert counters["exchanges"] == 2 * 2  # per rank
        assert counters["exchanges_hoisted"] == 2 * 3

    def test_overlap_default_is_read_at_every_run(self):
        def body(out, a):
            out[...] = a[-1, 0]

        def grids(mesh):
            a = mesh.grid((8, 8), ghost=1)
            a.fill_from(lambda i, j: i - 2.0 * j)
            return a, mesh.grid((8, 8), ghost=1)

        modes = (True, False, False, True, True)

        def declared(mesh):
            a, b = grids(mesh)
            loop = mesh.loop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1, flops_per_point=2.0)
            dirty = mesh.loop(lambda x: None, Arg(a, RW))
            for mode in modes:
                mesh.overlap = mode
                loop()
                dirty()

        def explicit(mesh, modes=modes):
            a, b = grids(mesh)
            for mode in modes:
                mesh.overlap = mode
                mesh.parloop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1, flops_per_point=2.0)
                mesh.parloop(lambda x: None, Arg(a, RW))

        got, expected = self._observe(declared), self._observe(explicit)
        assert got == expected
        blocking_only = self._observe(lambda mesh: explicit(mesh, (False,) * len(modes)))
        assert got[1] != blocking_only[1], "the overlapped runs must show in the trace"

    def test_one_loop_fuses_with_different_neighbours(self):
        def scale(out, a):
            out[...] = 2.0 * a

        def shift(out, a):
            out[...] = a[1, 0]

        def run(mesh, once):
            a = mesh.grid((10, 10), ghost=1)
            a.fill_from(lambda i, j: i + 0.5 * j)
            b, c, d = (mesh.grid((10, 10), ghost=1) for _ in range(3))
            declare = mesh.loop if not once else (lambda *x, **k: (lambda: mesh.parloop(*x, **k)))
            double = declare(scale, Arg(b, WRITE), Arg(a, READ))
            again = declare(scale, Arg(c, WRITE), Arg(b, READ))  # pointwise on b: fuses
            neighbour = declare(shift, Arg(d, WRITE), Arg(b, READ, halo=1))  # b's halo: breaks
            for _ in range(3):
                with mesh.fuse():
                    double()
                    again()
                with mesh.fuse():
                    double()
                    neighbour()
            return c.gather(root=0), d.gather(root=0)

        got = self._observe(lambda mesh: run(mesh, once=False))
        assert got == self._observe(lambda mesh: run(mesh, once=True))
        # per rank per round: [double+again] = 1 group, [double | neighbour] = 2
        assert got[2]["groups"] == 2 * 3 * 3
        assert got[2]["loops_fused"] == 2 * 3 * 2

    def test_errors_are_raised_at_declaration(self):
        from repro.errors import ArchetypeError

        def body(*views):
            raise AssertionError("a rejected loop never runs")

        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1)
            cols = mesh.grid((8, 8), dist="cols", ghost=1)
            bare = mesh.grid((8, 8))
            cases = {
                "no args": lambda: mesh.loop(body),
                "distribution": lambda: mesh.loop(body, Arg(a, WRITE), Arg(cols, READ)),
                "aliasing": lambda: mesh.loop(body, Arg(a, WRITE), Arg(a, READ, halo=1)),
                "halo write": lambda: mesh.loop(body, Arg(a, WRITE, halo=1)),
                "halo > ghost": lambda: mesh.loop(body, Arg(a, WRITE), Arg(bare, READ, halo=1)),
                "negative halo": lambda: mesh.loop(body, Arg(a, READ, halo=-1)),
                "periodic rank": lambda: mesh.loop(body, Arg(a, READ, halo=1, periodic=(True,))),
            }
            raised = {}
            for name, declare in cases.items():
                with pytest.raises(ArchetypeError) as info:
                    declare()
                raised[name] = str(info.value)
            return raised

        # the messages ParLoop / Arg raised at the parent, from parloop()
        assert MeshProgram(prog).run(2).values[0] == {
            "no args": "a par-loop needs at least one argument",
            "distribution": "grids in one operation must share a distribution; redistribute first",
            "aliasing": "grid operations reading neighbours require output disjoint from inputs (paper §3.1)",
            "halo write": "halo reads require mode READ; writes are pointwise "
            "(paper §3.1: outputs disjoint from stencil inputs)",
            "halo > ghost": "declared halo 1 exceeds grid ghost width 0",
            "negative halo": "negative halo -1",
            "periodic rank": "periodic flags (True,) do not match grid rank 2",
        }

    def test_unknown_edge_mode_is_rejected(self):
        """A misspelled edge mode used to zero-fill the physical-edge
        ghosts silently: it is an error where the arg is declared, and
        in ``fill_edge_ghosts``."""
        from repro.errors import ArchetypeError, DistributionError

        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            with pytest.raises(ArchetypeError, match="'copie'"):
                Arg(a, READ, halo=1, edges="copie")
            with pytest.raises(DistributionError, match="'copie'"):
                a.fill_edge_ghosts("copie")
            edges = []
            for mode in ("copy", "zero"):
                a.fill_edge_ghosts(mode)
                edges.append(float(a.local[0, 1]))
            return edges

        assert MeshProgram(prog).run(1).values[0] == [1.0, 0.0]

    def test_planning_does_not_grow_with_the_sweeps(self, monkeypatch):
        """sim_comm/poisson: per rank 2 declarations, each loop grouped
        and tiled on its first and on its second run, never again."""
        import repro.kernels.runtime as engine
        from repro.core.grid import DistGrid
        from repro.kernels.ir import ParLoop

        calls = {}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(ParLoop, "__init__")
        counted(engine, "build_groups")
        counted(engine, "_row_tiles")
        counted(DistGrid, "interior_intersection")
        for sweeps in (40, 10):
            calls.clear()
            registry.get("poisson").run(
                {"nprocs": 16, "nx": 64, "ny": 64, "max_iters": sweeps}, machine="ibm-sp"
            )
            assert calls == {
                "__init__": 16 * 2,
                "interior_intersection": 16 * 2,
                "build_groups": 16 * 4,
                "_row_tiles": 16 * 4,
            }, sweeps

    def test_nothing_outlives_the_mesh(self):
        import gc
        import weakref

        alive = []

        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            b = mesh.grid((8, 8), ghost=1)
            loops = [
                mesh.loop(lambda out, x: None, Arg(b, WRITE), Arg(a, READ, halo=1)),
                mesh.loop(lambda x: None, Arg(a, RW)),
            ]
            for _ in range(3):  # solo, then fused: both plans are remembered
                for loop in loops:
                    loop()
                with mesh.fuse():
                    for loop in loops:
                        loop()
            assert mesh.kernels._plans
            alive.extend(weakref.ref(x) for x in (mesh, a, a.local, b.local))

        MeshProgram(prog).run(2)
        gc.collect()
        assert len(alive) == 8 and [ref() for ref in alive] == [None] * 8
