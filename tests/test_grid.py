"""DistGrid: block-distributed grids with ghost boundaries."""

import dataclasses
import gc
import pickle
import sys
import threading
import types

import numpy as np
import pytest

from repro import spmd_run
from repro.comm.cart import CartGrid, choose_proc_grid
from repro.comm.layout import Geometry, Layout, block_layout, geometry, resolve_proc_grid
from repro.core.grid import DistGrid
from repro.errors import DistributionError, RankFailedError


class TestGeometry:
    def test_local_shape_includes_ghosts(self):
        def body(comm):
            g = DistGrid(comm, (8, 8), dist="rows", ghost=2)
            return (g.local.shape, g.interior.shape, g.owned_shape())

        res = spmd_run(2, body)
        assert res.values[0] == ((8, 12), (4, 8), (4, 8))

    def test_rows_cols_blocks(self):
        def body(comm):
            rows = DistGrid(comm, (8, 6), dist="rows")
            cols = DistGrid(comm, (8, 6), dist="cols")
            blocks = DistGrid(comm, (8, 6), dist=(2, 2))
            return (rows.rect, cols.rect, blocks.rect)

        res = spmd_run(4, body)
        assert res.values[0][0] == ((0, 2), (0, 6))
        assert res.values[0][1] == ((0, 8), (0, 1))  # 6 cols over 4 ranks
        assert res.values[0][2] == ((0, 4), (0, 3))

    def test_explicit_grid_must_match_nprocs(self):
        with pytest.raises(RankFailedError) as info:
            spmd_run(3, lambda comm: DistGrid(comm, (4, 4), dist=(2, 2)))
        assert isinstance(info.value.original, DistributionError)

    def test_negative_ghost(self):
        with pytest.raises(RankFailedError):
            spmd_run(1, lambda comm: DistGrid(comm, (4, 4), ghost=-1))

    def test_unknown_dist(self):
        with pytest.raises(RankFailedError):
            spmd_run(1, lambda comm: DistGrid(comm, (4, 4), dist="diag"))

    def test_coord_arrays(self):
        def body(comm):
            g = DistGrid(comm, (6, 4), dist="rows")
            ii, jj = g.coord_arrays()
            g.interior[...] = ii * 10 + jj
            return g.gather(root=0)

        res = spmd_run(3, body)
        expected = np.add.outer(np.arange(6) * 10, np.arange(4))
        assert np.array_equal(res.values[0], expected)

    def test_axis_coords(self):
        def body(comm):
            g = DistGrid(comm, (9, 3), dist="rows")
            return g.axis_coords(0)

        res = spmd_run(3, body)
        assert np.array_equal(res.values[1], np.arange(3, 6))


class TestInteriorIntersection:
    def test_interior_rank(self):
        def body(comm):
            g = DistGrid(comm, (8, 8), dist="rows", ghost=1)
            return g.interior_intersection(1)

        res = spmd_run(4, body)
        # rank 0 owns rows 0-1; margin trims its first row and no columns? no:
        # columns trimmed on both sides since every rank owns all columns.
        assert res.values[0] == (slice(1, 2), slice(1, 7))
        assert res.values[1] == (slice(0, 2), slice(1, 7))
        assert res.values[3] == (slice(0, 1), slice(1, 7))

    def test_per_axis_margin(self):
        def body(comm):
            g = DistGrid(comm, (8, 8), dist="rows", ghost=1)
            return g.interior_intersection((1, 0))

        res = spmd_run(2, body)
        assert res.values[0] == (slice(1, 4), slice(0, 8))

    def test_rank_with_only_boundary_cells(self):
        def body(comm):
            g = DistGrid(comm, (2, 4), dist="rows", ghost=1)
            sl = g.interior_intersection(1)
            return g.interior[sl].size

        res = spmd_run(2, body)
        assert res.values == [0, 0]

    def test_margin_rank_mismatch(self):
        def body(comm):
            g = DistGrid(comm, (4, 4), ghost=1)
            g.interior_intersection((1, 1, 1))

        with pytest.raises(RankFailedError):
            spmd_run(1, body)


class TestDataMovement:
    def test_from_global_and_gather(self):
        full = np.arange(48.0).reshape(6, 8)

        def body(comm):
            g = DistGrid.from_global(comm, full if comm.rank == 0 else None, dist="rows")
            assert np.array_equal(g.interior, full[g.layout.slices(comm.rank)])
            back = g.gather(root=0)
            return back if comm.rank == 0 else back is None

        res = spmd_run(3, body)
        assert np.array_equal(res.values[0], full)
        assert res.values[1] is True

    def test_allgather(self):
        full = np.arange(12.0).reshape(4, 3)

        def body(comm):
            g = DistGrid.from_global(comm, full if comm.rank == 0 else None)
            return g.allgather()

        res = spmd_run(2, body)
        for v in res.values:
            assert np.array_equal(v, full)

    def test_redistributed(self):
        full = np.arange(36.0).reshape(6, 6)

        def body(comm):
            g = DistGrid.from_global(comm, full if comm.rank == 0 else None, dist="rows")
            g2 = g.redistributed("cols")
            return np.array_equal(g2.interior, full[g2.layout.slices(comm.rank)])

        assert all(spmd_run(3, body).values)

    def test_like(self):
        def body(comm):
            g = DistGrid(comm, (4, 4), ghost=1, dtype=np.float32)
            h = g.like(fill=3.0)
            return (h.local.shape == g.local.shape, h.dtype == g.dtype, float(h.interior[0, 0]))

        res = spmd_run(2, body)
        assert res.values[0] == (True, True, 3.0)

    def test_fill_from(self):
        def body(comm):
            g = DistGrid(comm, (4, 4))
            g.fill_from(lambda i, j: (i + 1.0) * (j + 1.0))
            return g.gather(root=0)

        res = spmd_run(4, body)
        assert np.array_equal(res.values[0], np.outer(np.arange(1.0, 5), np.arange(1.0, 5)))


class TestEdgeGhosts:
    def test_copy_mode(self):
        def body(comm):
            g = DistGrid(comm, (4, 4), dist="rows", ghost=1, fill=0.0)
            g.interior[...] = comm.rank + 1.0
            g.fill_edge_ghosts(mode="copy")
            lo, hi = g.rect[0]
            out = {}
            if lo == 0:
                out["top"] = g.local[0, 1:-1].copy()
            if hi == 4:
                out["bottom"] = g.local[-1, 1:-1].copy()
            out["left"] = g.local[1:-1, 0].copy()
            return out

        res = spmd_run(2, body)
        assert np.all(res.values[0]["top"] == 1.0)
        assert np.all(res.values[1]["bottom"] == 2.0)
        # every rank touches the left physical edge (rows distribution)
        assert np.all(res.values[0]["left"] == 1.0)

    def test_zero_mode(self):
        def body(comm):
            g = DistGrid(comm, (4, 4), ghost=1, fill=5.0)
            g.interior[...] = 1.0
            g.fill_edge_ghosts(mode="zero")
            return float(g.local[0, 1])

        res = spmd_run(1, body)
        assert res.values[0] == 0.0

    def test_requires_ghosts(self):
        def body(comm):
            DistGrid(comm, (4, 4)).fill_edge_ghosts()

        with pytest.raises(RankFailedError) as info:
            spmd_run(1, body)
        assert isinstance(info.value.original, DistributionError)


class TestExchangeIntegration:
    def test_exchange_updates_ghosts(self):
        def body(comm):
            g = DistGrid(comm, (6, 4), dist="rows", ghost=1)
            g.interior[...] = float(comm.rank)
            g.exchange()
            lo, hi = g.rect[0]
            got = {}
            if lo > 0:
                got["above"] = float(g.local[0, 1])
            if hi < 6:
                got["below"] = float(g.local[-1, 1])
            return got

        res = spmd_run(3, body)
        assert res.values[1] == {"above": 0.0, "below": 2.0}

    def test_exchange_requires_ghosts(self):
        with pytest.raises(RankFailedError):
            spmd_run(2, lambda comm: DistGrid(comm, (4, 4)).exchange())


class TestGeometryValue:
    """A grid reads one interned geometry; equal (shape, process grid,
    ghost) is one object, and the cache holds geometry only."""

    def test_equal_geometries_are_one_object_within_and_across_runs(self):
        def body(comm):
            blocks = DistGrid(comm, (8, 6), ghost=1)
            explicit = DistGrid(comm, (8, 6), dist=(2, 2), ghost=1)
            back = blocks.redistributed("rows").redistributed((2, 2))
            return blocks.geometry, explicit.geometry, blocks.like().geometry, back.geometry

        geometry.cache_clear()  # interned here, by one rank at a time
        first, second = spmd_run(4, body), spmd_run(4, body)
        geometries = [g for res in (first, second) for value in res.values for g in value]
        assert all(g is geometries[0] for g in geometries)
        assert geometries[0] == Geometry((8, 6), (2, 2), 1)
        assert geometries[0].cart.dims == (2, 2)

    def test_a_geometry_is_a_value(self):
        interned = geometry((8, 6), "cols", 3, 2)
        built = Geometry((8, 6), (1, 3), 2)
        assert built == interned and hash(built) == hash(interned)
        assert built != Geometry((8, 6), (1, 3), 1)
        assert built.layout.rects == interned.layout.rects
        assert pickle.loads(pickle.dumps(built)) is interned  # unpickling re-interns
        with pytest.raises(dataclasses.FrozenInstanceError):
            interned.ghost = 0

    def test_racing_first_lookups_store_one_site_per_rank(self):
        """Rank threads racing to derive the same sites all end up with
        the one stored value per rank (a lost update would hand two
        ranks different objects)."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(4):
                shape = (96 + trial, 40 + trial)

                def body(comm):
                    geom = geometry(shape, "blocks", comm.size, 1)
                    return geom, [geom.sites[rank] for rank in range(comm.size)]

                values = spmd_run(8, body, backend="threads").values
                for geom, sites in values:
                    assert all(site is geom.sites[r] for r, site in enumerate(sites))
                    assert sites == values[0][1]
        finally:
            sys.setswitchinterval(interval)

    def test_interning_cache_is_bounded_and_holds_geometry_only(self, monkeypatch):
        from repro.apps import registry
        from repro.comm.communicator import Comm
        from repro.core import grid as grid_module
        from repro.runtime.mailbox import Mailbox

        assert geometry.cache_info().maxsize
        keys = []

        def recording(*key):
            keys.append(key)
            return geometry(*key)

        monkeypatch.setattr(grid_module, "geometry", recording)
        for app in ("poisson", "cfd", "fft2d"):
            spec = registry.get(app)
            spec.run(spec.verify_overrides, machine="ibm-sp")
        assert keys
        forbidden = (np.ndarray, Comm, DistGrid, Mailbox)
        for key in set(keys):
            found = _reachable((key, geometry(*key)))
            assert not [o for o in found if isinstance(o, forbidden)], key

    def test_warm_fft2d_run_misses_the_cache_zero_times(self):
        from repro.apps import registry

        spec = registry.get("fft2d")
        params = {"nprocs": 16, "rows": 128, "cols": 128, "repeats": 8}
        spec.run(params, machine="ibm-sp")
        misses = geometry.cache_info().misses
        spec.run(params, machine="ibm-sp")
        assert geometry.cache_info().misses == misses

    def test_warm_grids_derive_nothing(self):
        """On a warm run, building a grid, ``like()`` and
        ``redistributed()`` resolve no process grid and build no
        ``CartGrid`` or layout, nor ask a layout for a shape or rect."""
        derivations = {
            fn.__code__
            for fn in (
                resolve_proc_grid, choose_proc_grid, block_layout,
                CartGrid.__post_init__, Layout.shape, Layout.rect,
            )
        }  # fmt: skip
        called = []

        def body(comm):
            grid = DistGrid(comm, (12, 8), ghost=1)
            grid.like()
            grid.redistributed("rows", ghost=0).redistributed("cols", ghost=2)

        spmd_run(4, body)

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in derivations:
                called.append(frame.f_code.co_name)

        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            spmd_run(4, body)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        assert called == []


def _reachable(root) -> list:
    """Every object *root* reaches, not descending into types, modules
    and functions (which reach everything)."""
    seen: set[int] = set()
    stack, found = [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found
