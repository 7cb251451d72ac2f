"""General data redistribution between layouts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import spmd_run
from repro.errors import DistributionError, RankFailedError
from repro.comm import (
    Comm,
    block_layout,
    col_layout,
    redistribute,
    row_layout,
)
from repro.comm.redistribute import gather_to_root, scatter_from_root


def _global(shape, dtype=np.float64):
    return np.arange(np.prod(shape), dtype=dtype).reshape(shape)


def _check_redistribution(nprocs, shape, make_old, make_new):
    """Every rank's new section must match the global array's slices."""
    full = _global(shape)

    def body(comm):
        old = make_old(shape, comm.size)
        new = make_new(shape, comm.size)
        local = full[old.slices(comm.rank)].copy()
        moved = redistribute(comm, local, old, new)
        assert np.array_equal(moved, full[new.slices(comm.rank)])
        # Round-trip back to the original layout.
        back = redistribute(comm, moved, new, old)
        assert np.array_equal(back, local)
        return True

    assert all(spmd_run(nprocs, body).values)


class TestRowsColumns:
    @pytest.mark.chaos(seeds=8)
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_rows_to_cols(self, p):
        _check_redistribution(p, (6, 8), row_layout, col_layout)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_uneven_extents(self, p):
        _check_redistribution(p, (7, 11), row_layout, col_layout)

    def test_rows_to_blocks(self):
        _check_redistribution(
            4, (8, 8), row_layout, lambda s, p: block_layout(s, (2, 2))
        )

    def test_blocks_to_blocks_reshaped(self):
        _check_redistribution(
            6,
            (12, 6),
            lambda s, p: block_layout(s, (6, 1)),
            lambda s, p: block_layout(s, (2, 3)),
        )

    def test_3d(self):
        _check_redistribution(
            4,
            (4, 6, 5),
            lambda s, p: block_layout(s, (4, 1, 1)),
            lambda s, p: block_layout(s, (1, 2, 2)),
        )

    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        p=st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_rows_to_cols(self, rows, cols, p):
        _check_redistribution(p, (rows, cols), row_layout, col_layout)


class TestDtypePreservation:
    @pytest.mark.parametrize("dtype", [np.int32, np.float32, np.complex128])
    def test_dtypes(self, dtype):
        full = _global((6, 6), dtype=dtype)

        def body(comm):
            old = row_layout(full.shape, comm.size)
            new = col_layout(full.shape, comm.size)
            moved = redistribute(comm, full[old.slices(comm.rank)].copy(), old, new)
            assert moved.dtype == dtype
            return np.array_equal(moved, full[new.slices(comm.rank)])

        assert all(spmd_run(3, body).values)


class TestGatherScatterRoot:
    @pytest.mark.parametrize("p", [1, 2, 4, 5])
    def test_gather_to_root(self, p):
        full = _global((9, 4))

        def body(comm):
            lay = row_layout(full.shape, comm.size)
            got = gather_to_root(comm, full[lay.slices(comm.rank)].copy(), lay)
            if comm.rank == 0:
                return np.array_equal(got, full)
            return got is None

        assert all(spmd_run(p, body).values)

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_scatter_from_root(self, p):
        full = _global((8, 5))

        def body(comm):
            lay = row_layout(full.shape, comm.size)
            local = scatter_from_root(comm, full if comm.rank == 0 else None, lay)
            return np.array_equal(local, full[lay.slices(comm.rank)])

        assert all(spmd_run(p, body).values)

    def test_scatter_gather_roundtrip(self):
        full = _global((10, 10))

        def body(comm):
            lay = block_layout(full.shape, (2, 2))
            local = scatter_from_root(comm, full if comm.rank == 0 else None, lay)
            back = gather_to_root(comm, local, lay)
            return back is None or np.array_equal(back, full)

        assert all(spmd_run(4, body).values)

    def test_scatter_missing_root_array(self):
        def body(comm):
            lay = row_layout((4, 4), comm.size)
            return scatter_from_root(comm, None, lay)

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)


def _recording_alltoall(monkeypatch) -> tuple[dict, dict]:
    """Record, per rank, what it hands ``alltoall`` and what it gets back."""
    sent: dict[int, list] = {}
    received: dict[int, list] = {}
    real = Comm.alltoall

    def alltoall(self, values):
        sent[self.rank] = values
        received[self.rank] = real(self, values)
        return received[self.rank]

    monkeypatch.setattr(Comm, "alltoall", alltoall)
    return sent, received


def _rect_slices(rect) -> tuple[slice, ...]:
    return tuple(slice(lo, hi) for lo, hi in rect)


class TestOneSnapshot:
    """What leaves a rank is copied once: one frozen snapshot, of which
    every outgoing piece is a read-only view; the rank's own piece stays
    a view of its local array."""

    def test_sender_writes_after_return_reach_no_receiver(self, monkeypatch):
        full = _global((12, 10))
        _, received = _recording_alltoall(monkeypatch)

        def body(comm):
            old, new = row_layout(full.shape, comm.size), col_layout(full.shape, comm.size)
            local = full[old.slices(comm.rank)].copy()
            moved = redistribute(comm, local, old, new)
            local[...] = -1.0
            comm.barrier()  # every sender has overwritten before any check
            return np.array_equal(moved, full[new.slices(comm.rank)])

        assert all(spmd_run(4, body).values)
        for rank, parcels in received.items():
            for src, parcel in enumerate(parcels):
                if parcel is not None and src != rank:
                    for rect, piece in parcel:
                        assert np.array_equal(piece, full[_rect_slices(rect)])

    def test_every_received_piece_is_read_only(self, monkeypatch):
        full = _global((9, 8))
        _, received = _recording_alltoall(monkeypatch)

        def body(comm):
            old = block_layout(full.shape, (2, 2))
            new = row_layout(full.shape, comm.size)
            redistribute(comm, full[old.slices(comm.rank)].copy(), old, new)

        spmd_run(4, body)
        pieces = [
            piece
            for rank, parcels in received.items()
            for src, parcel in enumerate(parcels)
            if parcel is not None and src != rank
            for _, piece in parcel
        ]
        assert pieces and not any(piece.flags.writeable for piece in pieces)

    def test_pieces_one_rank_sends_share_one_buffer(self, monkeypatch):
        full = _global((32, 32))
        sent, received = _recording_alltoall(monkeypatch)

        def body(comm):
            old, new = row_layout(full.shape, comm.size), col_layout(full.shape, comm.size)
            redistribute(comm, full[old.slices(comm.rank)].copy(), old, new)

        spmd_run(16, body)
        for rank in (0, 7):
            pieces = [
                parcel[0][1] for dest, parcel in enumerate(sent[rank]) if dest != rank
            ]
            buffer = pieces[0].base
            assert len(pieces) == 15 and buffer is not None
            assert all(np.shares_memory(piece, buffer) for piece in pieces)
            # the send shares the snapshot instead of copying it again
            assert all(
                np.shares_memory(received[dest][rank][0][1], buffer)
                for dest in range(16)
                if dest != rank
            )


class TestErrors:
    def test_shape_mismatch(self):
        def body(comm):
            old = row_layout((4, 4), comm.size)
            new = row_layout((5, 4), comm.size)
            redistribute(comm, np.zeros(old.shape(comm.rank)), old, new)

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)

    def test_wrong_local_shape(self):
        def body(comm):
            old = row_layout((4, 4), comm.size)
            new = col_layout((4, 4), comm.size)
            redistribute(comm, np.zeros((1, 1)), old, new)

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)

    def test_layout_rank_mismatch(self):
        def body(comm):
            old = row_layout((4, 4), comm.size + 1)
            new = col_layout((4, 4), comm.size + 1)
            redistribute(comm, np.zeros(old.shape(comm.rank)), old, new)

        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body)
        assert isinstance(info.value.original, DistributionError)
