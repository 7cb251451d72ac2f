"""Ghost-boundary exchange."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import spmd_run
from repro.errors import DistributionError, RankFailedError
from repro.comm import CartGrid, block_layout, exchange_ghosts
from repro.comm import boundary
from repro.comm.boundary import (
    add_ghosts,
    exchange_geometry,
    interior,
    start_exchange,
    strip_ghosts,
)
from tests.conftest import run_both_backends


def _ghosted_sections(comm, full, grid_dims, ghost, fill=-1.0):
    lay = block_layout(full.shape, grid_dims)
    section = full[lay.slices(comm.rank)].copy()
    return lay, add_ghosts(section, ghost, fill=fill)


class TestHelpers:
    def test_add_strip_roundtrip(self):
        arr = np.arange(12.0).reshape(3, 4)
        padded = add_ghosts(arr, 2, fill=0.0)
        assert padded.shape == (7, 8)
        assert np.array_equal(strip_ghosts(padded, 2), arr)

    def test_interior_slices(self):
        arr = np.zeros((5, 6))
        assert interior(arr, 1) == (slice(1, 4), slice(1, 5))

    def test_negative_ghost(self):
        with pytest.raises(DistributionError):
            add_ghosts(np.zeros((2, 2)), -1)


class TestExchange2D:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)])
    def test_ghosts_match_neighbours(self, dims):
        full = np.arange(8.0 * 12).reshape(8, 12)
        p = dims[0] * dims[1]

        def body(comm):
            lay, local = _ghosted_sections(comm, full, dims, ghost=1)
            exchange_ghosts(comm, local, CartGrid(dims), ghost=1)
            (r0, r1), (c0, c1) = lay.rect(comm.rank)
            # every interior-facing ghost must equal the global array
            if r0 > 0:
                assert np.array_equal(local[0, 1:-1], full[r0 - 1, c0:c1])
            if r1 < 8:
                assert np.array_equal(local[-1, 1:-1], full[r1, c0:c1])
            if c0 > 0:
                assert np.array_equal(local[1:-1, 0], full[r0:r1, c0 - 1])
            if c1 < 12:
                assert np.array_equal(local[1:-1, -1], full[r0:r1, c1])
            # owned data untouched
            assert np.array_equal(strip_ghosts(local, 1), full[r0:r1, c0:c1])
            return True

        assert all(spmd_run(p, body).values)

    def test_corners_filled(self):
        """Diagonal-neighbour data reaches corner ghosts (two-hop rule)."""
        full = np.arange(6.0 * 6).reshape(6, 6)

        def body(comm):
            lay, local = _ghosted_sections(comm, full, (2, 2), ghost=1)
            exchange_ghosts(comm, local, CartGrid((2, 2)), ghost=1)
            (r0, _), (c0, _) = lay.rect(comm.rank)
            if r0 > 0 and c0 > 0:
                assert local[0, 0] == full[r0 - 1, c0 - 1]
            return True

        assert all(spmd_run(4, body).values)

    def test_periodic_wraps(self):
        full = np.arange(4.0 * 4).reshape(4, 4)

        def body(comm):
            lay, local = _ghosted_sections(comm, full, (2, 1), ghost=1)
            exchange_ghosts(comm, local, CartGrid((2, 1)), ghost=1, periodic=(True, False))
            (r0, r1), _ = lay.rect(comm.rank)
            expected_above = full[(r0 - 1) % 4, :]
            assert np.array_equal(local[0, 1:-1], expected_above)
            return True

        assert all(spmd_run(2, body).values)

    def test_nonperiodic_edges_untouched(self):
        full = np.ones((4, 4))

        def body(comm):
            _, local = _ghosted_sections(comm, full, (2, 1), ghost=1, fill=-7.0)
            exchange_ghosts(comm, local, CartGrid((2, 1)), ghost=1)
            lay = block_layout(full.shape, (2, 1))
            (r0, r1), _ = lay.rect(comm.rank)
            if r0 == 0:
                assert np.all(local[0, :] == -7.0)
            if r1 == 4:
                assert np.all(local[-1, :] == -7.0)
            return True

        assert all(spmd_run(2, body).values)

    def test_ghost_width_two(self):
        full = np.arange(10.0 * 4).reshape(10, 4)

        def body(comm):
            lay, local = _ghosted_sections(comm, full, (2, 1), ghost=2)
            exchange_ghosts(comm, local, CartGrid((2, 1)), ghost=2)
            (r0, r1), _ = lay.rect(comm.rank)
            if r0 > 0:
                assert np.array_equal(local[0:2, 2:-2], full[r0 - 2 : r0, :])
            return True

        assert all(spmd_run(2, body).values)

    @given(
        rows=st.integers(4, 10),
        cols=st.integers(4, 10),
        px=st.integers(1, 3),
        py=st.integers(1, 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_interior_preserved(self, rows, cols, px, py):
        if rows < 2 * px or cols < 2 * py:
            return  # sections too thin for ghost width 1
        full = np.arange(float(rows * cols)).reshape(rows, cols)

        def body(comm):
            lay, local = _ghosted_sections(comm, full, (px, py), ghost=1)
            exchange_ghosts(comm, local, CartGrid((px, py)), ghost=1)
            return np.array_equal(strip_ghosts(local, 1), full[lay.slices(comm.rank)])

        assert all(spmd_run(px * py, body).values)


class TestExchange3D:
    def test_3d_faces(self):
        full = np.arange(4.0 * 4 * 4).reshape(4, 4, 4)

        def body(comm):
            lay, local = _ghosted_sections(comm, full, (2, 2, 1), ghost=1)
            exchange_ghosts(comm, local, CartGrid((2, 2, 1)), ghost=1)
            (a0, a1), (b0, b1), (c0, c1) = lay.rect(comm.rank)
            if a0 > 0:
                assert np.array_equal(local[0, 1:-1, 1:-1], full[a0 - 1, b0:b1, c0:c1])
            return np.array_equal(strip_ghosts(local, 1), full[lay.slices(comm.rank)])

        assert all(spmd_run(4, body).values)


class TestExchangeMany:
    def test_matches_individual_exchanges(self):
        full_a = np.arange(6.0 * 6).reshape(6, 6)
        full_b = full_a * 10

        def body(comm):
            lay, la = _ghosted_sections(comm, full_a, (2, 1), ghost=1)
            _, lb = _ghosted_sections(comm, full_b, (2, 1), ghost=1)
            la2, lb2 = la.copy(), lb.copy()
            cart = CartGrid((2, 1))
            start_exchange(comm, [la, lb], cart, ghost=1, overlap=False)
            exchange_ghosts(comm, la2, cart, ghost=1)
            exchange_ghosts(comm, lb2, cart, ghost=1)
            return np.array_equal(la, la2) and np.array_equal(lb, lb2)

        assert all(spmd_run(2, body).values)

    def test_fewer_messages_than_individual(self):
        """Packing is the point: one message per neighbour per direction."""
        from repro.trace.analysis import summarize

        full = np.arange(8.0 * 4).reshape(8, 4)

        def packed(comm):
            _, la = _ghosted_sections(comm, full, (2, 1), ghost=1)
            _, lb = _ghosted_sections(comm, full, (2, 1), ghost=1)
            start_exchange(comm, [la, lb], CartGrid((2, 1)), ghost=1, overlap=False)

        def unpacked(comm):
            _, la = _ghosted_sections(comm, full, (2, 1), ghost=1)
            _, lb = _ghosted_sections(comm, full, (2, 1), ghost=1)
            exchange_ghosts(comm, la, CartGrid((2, 1)), ghost=1)
            exchange_ghosts(comm, lb, CartGrid((2, 1)), ghost=1)

        a = spmd_run(2, packed, trace=True)
        b = spmd_run(2, unpacked, trace=True)
        assert summarize(a.tracer).total_messages < summarize(b.tracer).total_messages

    def test_shape_mismatch_rejected(self):
        def body(comm):
            start_exchange(
                comm,
                [np.zeros((4, 4)), np.zeros((5, 4))],
                CartGrid((comm.size, 1)),
                overlap=False,
            )

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)


class TestGhostCorrectness:
    """PR 3 satellite: wide ghosts, corners, periodic wrap, degenerate grids."""

    @pytest.mark.parametrize("ghost", [2, 3])
    def test_corner_ghosts_wide(self, ghost):
        """The sequential-axis exchange's two-hop rule fills corner ghost
        blocks of any width from the diagonal neighbour."""
        full = np.arange(12.0 * 12).reshape(12, 12)

        def body(comm):
            lay, local = _ghosted_sections(comm, full, (2, 2), ghost=ghost)
            exchange_ghosts(comm, local, CartGrid((2, 2)), ghost=ghost)
            (r0, r1), (c0, c1) = lay.rect(comm.rank)
            g = ghost
            if r0 >= g and c0 >= g:
                assert np.array_equal(local[0:g, 0:g], full[r0 - g : r0, c0 - g : c0])
            if r1 + g <= 12 and c1 + g <= 12:
                assert np.array_equal(
                    local[-g:, -g:], full[r1 : r1 + g, c1 : c1 + g]
                )
            if r0 >= g and c1 + g <= 12:
                assert np.array_equal(
                    local[0:g, -g:], full[r0 - g : r0, c1 : c1 + g]
                )
            # face ghosts of the full width
            if r0 >= g:
                assert np.array_equal(
                    local[0:g, g:-g], full[r0 - g : r0, c0:c1]
                )
            return True

        assert all(spmd_run(4, body).values)

    @pytest.mark.parametrize("ghost", [2])
    def test_periodic_wrap_wide(self, ghost):
        """Periodic axes wrap ghost slabs of width > 1 modulo the domain."""
        full = np.arange(8.0 * 8).reshape(8, 8)

        def body(comm):
            lay, local = _ghosted_sections(comm, full, (2, 2), ghost=ghost)
            exchange_ghosts(
                comm, local, CartGrid((2, 2)), ghost=ghost, periodic=True
            )
            (r0, r1), (c0, c1) = lay.rect(comm.rank)
            g = ghost
            rows_above = [(r0 - k) % 8 for k in range(g, 0, -1)]
            assert np.array_equal(local[0:g, g:-g], full[np.ix_(rows_above, range(c0, c1))])
            cols_left = [(c0 - k) % 8 for k in range(g, 0, -1)]
            assert np.array_equal(local[g:-g, 0:g], full[np.ix_(range(r0, r1), cols_left)])
            # periodic corners wrap on both axes (two-hop rule)
            assert np.array_equal(
                local[0:g, 0:g], full[np.ix_(rows_above, cols_left)]
            )
            return True

        assert all(spmd_run(4, body).values)

    def test_degenerate_single_rank_axis_periodic(self):
        """An axis with one rank and periodic wrap exchanges with itself."""
        full = np.arange(4.0 * 9).reshape(4, 9)

        def body(comm):
            lay, local = _ghosted_sections(comm, full, (1, 3), ghost=1)
            exchange_ghosts(
                comm, local, CartGrid((1, 3)), ghost=1, periodic=(True, False)
            )
            (r0, r1), (c0, c1) = lay.rect(comm.rank)
            # axis 0 is unsplit: the "neighbour" is this rank itself, and
            # the ghosts wrap this rank's own rows.
            assert np.array_equal(local[0, 1:-1], full[3, c0:c1])
            assert np.array_equal(local[-1, 1:-1], full[0, c0:c1])
            return True

        assert all(run_both_backends(3, body).values)

    def test_degenerate_single_rank_axis_nonperiodic(self):
        """An unsplit non-periodic axis leaves its ghosts untouched."""
        full = np.ones((4, 9))

        def body(comm):
            _, local = _ghosted_sections(comm, full, (1, 3), ghost=1, fill=-3.0)
            exchange_ghosts(comm, local, CartGrid((1, 3)), ghost=1)
            assert np.all(local[0, :] == -3.0)
            assert np.all(local[-1, :] == -3.0)
            return True

        assert all(spmd_run(3, body).values)

    def test_fully_degenerate_grid(self):
        """A 1x1 process grid with periodic wrap is pure self-exchange."""
        full = np.arange(3.0 * 4).reshape(3, 4)

        def body(comm):
            _, local = _ghosted_sections(comm, full, (1, 1), ghost=1)
            exchange_ghosts(comm, local, CartGrid((1, 1)), ghost=1, periodic=True)
            assert np.array_equal(local[0, 1:-1], full[-1, :])
            assert np.array_equal(local[1:-1, 0], full[:, -1])
            return True

        assert all(run_both_backends(1, body).values)


def _face_slabs(shape, ghost):
    """Selectors of the non-corner ghost slabs of every axis/side."""
    ndim = len(shape)
    out = []
    for axis in range(ndim):
        inner = tuple(
            slice(ghost, shape[d] - ghost) for d in range(ndim) if d != axis
        )
        for sel_axis in (slice(0, ghost), slice(shape[axis] - ghost, shape[axis])):
            sel = inner[:axis] + (sel_axis,) + inner[axis:]
            out.append(sel)
    return out


class TestOverlappedExchange:
    """The nonblocking face exchange agrees with the blocking path on the
    owned cells and every face ghost (corners are out of contract — the
    overlapped variant posts all axes at once, so there is no two-hop)."""

    @pytest.mark.chaos(seeds=8)
    @pytest.mark.parametrize("periodic", [False, True])
    def test_single_matches_blocking_faces(self, periodic):
        full = np.arange(8.0 * 12).reshape(8, 12)

        def body(comm):
            _, ov = _ghosted_sections(comm, full, (2, 2), ghost=2, fill=-5.0)
            _, bl = _ghosted_sections(comm, full, (2, 2), ghost=2, fill=-5.0)
            cart = CartGrid((2, 2))
            handle = start_exchange(comm, [ov], cart, ghost=2, periodic=periodic, overlap=True)
            handle.wait()
            assert handle.done
            handle.wait()  # idempotent
            exchange_ghosts(comm, bl, cart, ghost=2, periodic=periodic)
            assert np.array_equal(strip_ghosts(ov, 2), strip_ghosts(bl, 2))
            for sel in _face_slabs(ov.shape, 2):
                assert np.array_equal(ov[sel], bl[sel])
            return True

        assert all(run_both_backends(4, body).values)

    @pytest.mark.chaos(seeds=8)
    def test_packed_matches_blocking_faces(self):
        full_a = np.arange(6.0 * 8).reshape(6, 8)
        full_b = full_a * -2.0

        def body(comm):
            _, oa = _ghosted_sections(comm, full_a, (2, 1), ghost=1)
            _, ob = _ghosted_sections(comm, full_b, (2, 1), ghost=1)
            _, ba = _ghosted_sections(comm, full_a, (2, 1), ghost=1)
            _, bb = _ghosted_sections(comm, full_b, (2, 1), ghost=1)
            cart = CartGrid((2, 1))
            handle = start_exchange(comm, [oa, ob], cart, ghost=1, overlap=True)
            handle.wait()
            start_exchange(comm, [ba, bb], cart, ghost=1, overlap=False)
            for ov, bl in ((oa, ba), (ob, bb)):
                assert np.array_equal(strip_ghosts(ov, 1), strip_ghosts(bl, 1))
                for sel in _face_slabs(ov.shape, 1):
                    assert np.array_equal(ov[sel], bl[sel])
            return True

        assert all(run_both_backends(2, body).values)

    def test_concurrent_handles_pair_correctly(self):
        """Two in-flight exchanges of different arrays bind FIFO per
        channel and do not cross-deliver."""
        full_a = np.arange(8.0 * 4).reshape(8, 4)
        full_b = full_a + 100.0

        def body(comm):
            _, la = _ghosted_sections(comm, full_a, (2, 1), ghost=1)
            _, lb = _ghosted_sections(comm, full_b, (2, 1), ghost=1)
            cart = CartGrid((2, 1))
            ha = start_exchange(comm, [la], cart, ghost=1, overlap=True)
            hb = start_exchange(comm, [lb], cart, ghost=1, overlap=True)
            hb.wait()
            ha.wait()
            lay = block_layout(full_a.shape, (2, 1))
            (r0, r1), _ = lay.rect(comm.rank)
            if r0 > 0:
                assert np.array_equal(la[0, 1:-1], full_a[r0 - 1, :])
                assert np.array_equal(lb[0, 1:-1], full_b[r0 - 1, :])
            return True

        assert all(run_both_backends(2, body).values)

    def test_packing_and_overlap_pick_the_tag_block(self):
        """``start_exchange`` keeps the tag blocks of the four exchange
        kinds (+0 blocking, +16 overlapped, +32 packed, +48 both), so
        messages never change with the entry point; a blocking call
        returns its handle already done."""
        cart = CartGrid((2, 1))

        def body(comm):
            done = []
            for overlap in (False, True):
                for arrays in ([np.zeros((4, 4))], [np.zeros((4, 4)), np.zeros((4, 4))]):
                    handle = start_exchange(comm, arrays, cart, overlap=overlap)
                    done.append(handle.done)
                    handle.wait()
            return done

        res = spmd_run(2, body, trace=True)
        assert res.values[0] == [True, True, False, False]
        tags = [e.tag for e in res.tracer.events[0] if e.kind == "send"]
        base = boundary._BOUNDARY_TAG_BASE
        assert [t - base for t in tags] == [1, 33, 17, 49]


def _reference_geometry(rank, dims, shape, ghost, periodic, tag_base):
    """The axis loop the three exchange variants each used to carry,
    kept here as the reference the memoised derivation is held to."""
    grid = CartGrid(dims)

    def slab(axis, start, stop):
        return tuple(
            slice(start, stop) if d == axis else slice(None)
            for d in range(len(shape))
        )

    axes = []
    for axis, n in enumerate(shape):
        lo = grid.shift(rank, axis, -1, periodic[axis])
        hi = grid.shift(rank, axis, +1, periodic[axis])
        tag_lo, tag_hi = tag_base + 2 * axis, tag_base + 2 * axis + 1
        recvs, sends = [], []
        if hi is not None:
            recvs.append((hi, tag_lo, slab(axis, n - ghost, n)))
        if lo is not None:
            recvs.append((lo, tag_hi, slab(axis, 0, ghost)))
            sends.append((lo, tag_lo, slab(axis, ghost, 2 * ghost)))
        if hi is not None:
            sends.append((hi, tag_hi, slab(axis, n - 2 * ghost, n - ghost)))
        axes.append((tuple(recvs), tuple(sends)))
    return tuple(axes)


@st.composite
def _exchange_configs(draw):
    ndim = draw(st.integers(1, 3))
    dims = tuple(
        draw(st.lists(st.integers(1, 3), min_size=ndim, max_size=ndim))
    )
    while int(np.prod(dims)) > 6:  # keep the rank count small
        dims = tuple(max(1, d - 1) for d in dims)
    ghost = draw(st.integers(1, 2))
    # owned cells per rank per axis; >= ghost so edge slabs are all owned
    owned = tuple(draw(st.integers(ghost, ghost + 2)) for _ in range(ndim))
    periodic = tuple(draw(st.booleans()) for _ in range(ndim))
    return dims, owned, ghost, periodic


def _plain(obj) -> bool:
    """True when *obj* is built of ints, bools, slices and tuples only."""
    if isinstance(obj, tuple):
        return all(_plain(x) for x in obj)
    if isinstance(obj, slice):
        return _plain((obj.start, obj.stop, obj.step))
    return obj is None or type(obj) in (int, bool)


class TestExchangeGeometry:
    """One memoised derivation feeds the blocking, packed and overlapped
    exchanges; caching may change neither what it yields nor what they
    fill."""

    @given(config=_exchange_configs(), tag_base=st.sampled_from([0, 16, 32, 48]))
    @settings(max_examples=60, deadline=None)
    def test_cached_equals_fresh_derivation_on_every_rank(self, config, tag_base):
        dims, owned, ghost, periodic = config
        shape = tuple(n + 2 * ghost for n in owned)
        for rank in range(int(np.prod(dims))):
            key = (rank, dims, shape, ghost, periodic, tag_base)
            cached = exchange_geometry(*key)
            assert cached == _reference_geometry(*key)
            assert cached == exchange_geometry.__wrapped__(*key)
            assert exchange_geometry(*key) is cached  # served from the cache
            assert _plain(cached)

    @given(config=_exchange_configs())
    @settings(max_examples=25, deadline=None)
    def test_every_variant_fills_the_same_ghosts_cold_and_warm(self, config):
        dims, owned, ghost, periodic = config
        cart = CartGrid(dims)
        full_shape = tuple(n * d for n, d in zip(owned, dims))
        full_a = np.arange(float(np.prod(full_shape))).reshape(full_shape)
        full_b = -3.0 * full_a

        def body(comm):
            def sections():
                return [
                    _ghosted_sections(comm, full, dims, ghost, fill=-7.0)[1]
                    for full in (full_a, full_b)
                ]

            blocking, packed, overlapped, overlapped_packed = (
                sections() for _ in range(4)
            )
            for local in blocking:
                exchange_ghosts(comm, local, cart, ghost, periodic)
            start_exchange(comm, packed, cart, ghost, periodic, overlap=False)
            handles = [
                start_exchange(comm, [local], cart, ghost, periodic, overlap=True)
                for local in overlapped
            ]
            handles.append(
                start_exchange(comm, overlapped_packed, cart, ghost, periodic, overlap=True)
            )
            for handle in handles:
                handle.wait()
            # packing never changes what lands where
            assert all(np.array_equal(x, y) for x, y in zip(blocking, packed))
            assert all(
                np.array_equal(x, y) for x, y in zip(overlapped, overlapped_packed)
            )
            return blocking + overlapped

        nprocs = cart.nranks
        exchange_geometry.cache_clear()
        cold = spmd_run(nprocs, body)
        derived = exchange_geometry.cache_info().misses
        warm = spmd_run(nprocs, body)
        info = exchange_geometry.cache_info()
        assert info.misses == derived and info.hits > 0  # warm run derived nothing
        for a, b in zip(cold.values, warm.values):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_cache_key_and_entries_hold_geometry_only(self, monkeypatch):
        """No ndarray, ``DistGrid``, ``CartGrid`` or communicator may be
        pinned by the cache: keys and values are ints, bools, slices and
        tuples of those, even when the request comes down from the
        kernel layer's grids."""
        from repro.apps import registry

        keys = []

        def recording(*key):
            keys.append(key)
            return exchange_geometry(*key)

        monkeypatch.setattr(boundary, "exchange_geometry", recording)
        for app in ("poisson", "cfd", "fdtd"):
            spec = registry.get(app)
            spec.run(spec.verify_overrides, machine="ibm-sp")
        assert keys
        for key in keys:
            assert _plain(key), key
            assert _plain(exchange_geometry(*key))


class TestExchangeErrors:
    def test_zero_ghost_rejected(self):
        def body(comm):
            exchange_ghosts(comm, np.zeros((4, 4)), CartGrid((comm.size, 1)), ghost=0)

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)

    def test_grid_size_mismatch(self):
        def body(comm):
            exchange_ghosts(comm, np.zeros((4, 4)), CartGrid((3, 1)), ghost=1)

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)

    def test_too_small_local_array(self):
        def body(comm):
            exchange_ghosts(comm, np.zeros((1, 4)), CartGrid((comm.size, 1)), ghost=1)

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)

    def test_dim_mismatch(self):
        def body(comm):
            exchange_ghosts(comm, np.zeros((4,)), CartGrid((comm.size, 1)), ghost=1)

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)
