"""The par-loop kernel layer: fusion A/B identity and planning units.

The load-bearing invariant: ``fusion_forced`` selects *how group
bodies walk the region* (tile-interleaved vs loop-by-loop) and nothing
else — groups, exchange packs, hoists, charges, and therefore values,
virtual clocks, and traces are identical in both modes, on every
backend.  The A/B classes check exactly that on the five mesh
applications — the three par-loop chains and the two region-kernel codes
(cfd, fdtd: single-loop groups and a 3-D grid, which the switch reaches
now that every group is walked by row block); the unit classes pin the
planning rules the invariant rests on (fusion legality, exchange
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
    ExprKernel,
    Kernel,
    ParLoop,
    Ref,
    build_groups,
    fusion_forced,
)
from repro.obs.metrics import scoped_registry
from repro.verify import fuzzed_schedule
from repro.verify.digest import value_digest

#: the mesh applications the A/B gate covers
AB_APPS = ("poisson", "smog", "spectralflow", "cfd", "fdtd")

#: the ISSUE's fuzzed-schedule bar
FUZZ_SEEDS = tuple(range(8))


def run_app(app: str, mode: str | None = None, trace: bool = False):
    """One verification-scale run of *app* from the shared registry."""
    spec = registry.get(app)
    return spec.run(spec.verify_overrides, machine="ibm-sp", mode=mode, trace=trace)


def digest_of(result) -> str:
    return value_digest([result.times, result.values])


def flat_trace(result) -> list[str]:
    return [repr(e) for rank in result.tracer.events for e in rank]


class TestFusionIdentity:
    """Fused and unfused runs are observationally indistinguishable."""

    @pytest.mark.parametrize("app", AB_APPS)
    def test_digest_clock_trace_identity(self, app):
        with fusion_forced(False):
            off = run_app(app, trace=True)
        with fusion_forced(True):
            on = run_app(app, trace=True)
        assert off.times == on.times, f"{app}: virtual clocks diverged"
        assert digest_of(off) == digest_of(on), f"{app}: digests diverged"
        assert flat_trace(off) == flat_trace(on), f"{app}: traces diverged"

    @pytest.mark.parametrize("app", AB_APPS)
    def test_identity_under_fuzzed_schedules(self, app):
        with fusion_forced(False):
            reference = digest_of(run_app(app))
        for seed in FUZZ_SEEDS:
            with fuzzed_schedule(seed), fusion_forced(True):
                fused = digest_of(run_app(app))
            assert fused == reference, (app, seed)

    @pytest.mark.parametrize("app", AB_APPS)
    def test_identity_on_threads_backend(self, app):
        with fusion_forced(False):
            off = run_app(app, mode="threads")
        with fusion_forced(True):
            on = run_app(app, mode="threads")
        assert off.times == on.times
        assert digest_of(off) == digest_of(on)

    def test_identity_on_parallel_backend(self):
        # One app suffices: forked workers inherit the switch as module
        # state, which is backend-global, not per-app.
        try:
            with fusion_forced(False):
                off = run_app("smog", mode="parallel")
            with fusion_forced(True):
                on = run_app("smog", mode="parallel")
        except Exception as exc:  # pragma: no cover - sandboxed CI hosts
            pytest.skip(f"parallel backend unavailable: {exc}")
        assert off.times == on.times
        assert digest_of(off) == digest_of(on)


def _loops_for_grouping(mesh):
    """a -> b -> a chain over one region: READ a / WRITE a / READ a."""
    a = mesh.grid((8, 8), ghost=1, fill=1.0)
    b = mesh.grid((8, 8), ghost=1)
    c = mesh.grid((8, 8), ghost=1)

    def body(*views):
        pass

    read_a = ParLoop(Kernel(body), [Arg(b, WRITE), Arg(a, READ, halo=1)])
    write_a = ParLoop(Kernel(body), [Arg(a, WRITE), Arg(c, READ)])
    read_a_again = ParLoop(Kernel(body), [Arg(c, WRITE), Arg(a, READ, halo=1)])
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
                ParLoop(Kernel(body), [Arg(b, WRITE), Arg(a, READ)]),
                ParLoop(Kernel(body), [Arg(a, WRITE), Arg(b, READ)]),
                ParLoop(Kernel(body), [Arg(a, RW), Arg(b, RW)]),
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
                ParLoop(Kernel(body), [Arg(b, WRITE), Arg(a, READ)], margin=0),
                ParLoop(Kernel(body), [Arg(b, WRITE), Arg(a, READ)], margin=1),
            ]
            return [len(g.loops) for g in build_groups(loops)]

        res = MeshProgram(prog).run(1)
        assert res.values[0] == [1, 1]

    def test_undeclared_write_fuses_with_nothing(self):
        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            b = mesh.grid((8, 8), ghost=1)

            def body(*views):
                pass

            declared = ParLoop(Kernel(body), [Arg(b, WRITE), Arg(a, READ)])
            legacy = ParLoop(
                Kernel(body), [Arg(b, WRITE), Arg(a, READ)], writes_undeclared=True
            )
            return [len(g.loops) for g in build_groups([declared, legacy, declared])]

        res = MeshProgram(prog).run(1)
        assert res.values[0] == [1, 1, 1]


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

    def test_undeclared_write_bumps_epoch(self):
        """A legacy op with an unknown write set invalidates everything."""

        def body(out, a):
            out[...] = a[0, 0]

        def prog(mesh):
            a = mesh.grid((8, 8), ghost=1, fill=1.0)
            b = mesh.grid((8, 8), ghost=1)
            mesh.parloop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1)
            # Legacy region update whose write set is undeclared.
            mesh.overlapped_update(
                [b], lambda region: None, flops_per_point=0.0, label="legacy"
            )
            mesh.parloop(body, Arg(b, WRITE), Arg(a, READ, halo=1), margin=1)

        with scoped_registry() as reg:
            MeshProgram(prog).run(2)
            counters = _kernel_counters(reg.snapshot())
        assert counters.get("exchanges_hoisted", 0) == 0

    def test_hoist_across_fused_groups_matches_values(self):
        """Hoisting never changes values: a two-group fuse block where
        the second group's exchange hoists must equal the blocking
        legacy formulation."""

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
    def _tiny_tiles_vs_unfused(app, monkeypatch):
        monkeypatch.setattr("repro.kernels.runtime._TILE_BYTES", 128)
        with fusion_forced(True), scoped_registry() as reg:
            fused = run_app(app)
            counters = _kernel_counters(reg.snapshot())
        with fusion_forced(False):
            unfused = run_app(app)
        assert counters["tiles"] > counters["groups"], "expected multi-tile groups"
        assert digest_of(fused) == digest_of(unfused)
        return counters

    def test_tiny_tiles_match_unfused(self, monkeypatch):
        """Forcing many row tiles exercises the tiled walk without
        changing a bit of the output."""
        counters = self._tiny_tiles_vs_unfused("smog", monkeypatch)
        assert counters["loops_fused"] > 0

    def test_single_loop_groups_tile_too(self, monkeypatch):
        """Poisson's groups hold one loop each: tiled all the same, and
        nothing counts as interleaved."""
        counters = self._tiny_tiles_vs_unfused("poisson", monkeypatch)
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
            mesh.overlapped_update([b], region_body, writes=[a])

        with scoped_registry() as reg:
            MeshProgram(prog).run(1)
            counters = _kernel_counters(reg.snapshot())
        assert regions == [(24, 24), (slice(0, 24), slice(0, 24))]
        assert counters["tiles"] == counters["groups"] == 2
        assert counters.get("loops_fused", 0) == 0


class TestExprKernelJIT:
    def test_expression_evaluates_exactly(self):
        kernel = ExprKernel("2.0 * x + c", {"x": Ref(1), "c": 3.0}, name="axpc")
        x = np.arange(12.0).reshape(3, 4)
        out = np.empty_like(x)
        kernel.fn(out, x)
        assert np.array_equal(out, 2.0 * x + 3.0)

    def test_pointwise_offset_rejected(self):
        from repro.errors import ArchetypeError

        kernel = ExprKernel("x", {"x": Ref(1, (1, 0))}, name="bad")
        x = np.zeros((3, 3))
        with pytest.raises(ArchetypeError):
            kernel.fn(np.empty_like(x), x)


class TestShims:
    """The legacy grid-op API rides the kernel layer unchanged."""

    def test_point_op_is_a_parloop(self):
        def prog(mesh):
            a = mesh.grid((6, 6), fill=2.0)
            out = mesh.grid((6, 6))
            mesh.point_op(lambda o, x: o.__setitem__(..., x * 3), out, a)
            return out.gather(root=0)

        with scoped_registry() as reg:
            res = MeshProgram(prog).run(2)
            counters = _kernel_counters(reg.snapshot())
        assert np.all(res.values[0] == 6.0)
        assert counters["loops"] >= 2  # one per rank

    def test_stencil_op_value_identity_with_parloop(self):
        """A stencil_op and the equivalent declared par-loop produce
        bitwise-identical results at any process count."""

        def legacy(mesh):
            a = mesh.grid((10, 10), ghost=1)
            a.fill_from(lambda i, j: i * 10.0 + j)
            out = mesh.grid((10, 10), ghost=1)
            mesh.stencil_op(
                lambda o, s: o.__setitem__(..., s[1, 0] + s[-1, 0]),
                out,
                a,
                margin=1,
            )
            return out.gather(root=0)

        def declared(mesh):
            a = mesh.grid((10, 10), ghost=1)
            a.fill_from(lambda i, j: i * 10.0 + j)
            out = mesh.grid((10, 10), ghost=1)
            mesh.parloop(
                lambda o, s: o.__setitem__(..., s[1, 0] + s[-1, 0]),
                Arg(out, WRITE),
                Arg(a, READ, halo=1),
                margin=1,
            )
            return out.gather(root=0)

        for p in (1, 2, 4):
            l = MeshProgram(legacy).run(p).values[0]
            d = MeshProgram(declared).run(p).values[0]
            assert np.array_equal(l, d), p
