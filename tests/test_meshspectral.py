"""The mesh-spectral archetype context and its operation classes."""

import numpy as np
import pytest

from repro.comm.reductions import MAX, SUM
from repro.core import MeshProgram
from repro.errors import ArchetypeError, RankFailedError
from repro.kernels import READ, WRITE, Arg


def run_mesh(nprocs, program, *args, **kwargs):
    return MeshProgram(program).run(nprocs, *args, **kwargs)


class TestPointOp:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_elementwise(self, p):
        def prog(mesh):
            a = mesh.grid((6, 6))
            b = mesh.grid((6, 6))
            a.fill_from(lambda i, j: i * 1.0)
            b.fill_from(lambda i, j: j * 1.0)
            out = mesh.grid((6, 6))
            mesh.parloop(
                lambda o, x, y: o.__setitem__(..., x + 2 * y),
                Arg(out, WRITE),
                Arg(a, READ),
                Arg(b, READ),
            )
            return out.gather(root=0)

        res = run_mesh(p, prog)
        expected = np.add.outer(np.arange(6.0), 2.0 * np.arange(6))
        assert np.array_equal(res.values[0], expected)

    def test_output_may_alias_input(self):
        def prog(mesh):
            a = mesh.grid((4, 4), fill=1.0)
            mesh.parloop(lambda o, x: o.__setitem__(..., x * 2), Arg(a, WRITE), Arg(a, READ))
            return a.gather(root=0)

        res = run_mesh(2, prog)
        assert np.all(res.values[0] == 2.0)

    def test_incompatible_distributions_rejected(self):
        def prog(mesh):
            a = mesh.grid((4, 4), dist="rows")
            b = mesh.grid((4, 4), dist="cols")
            mesh.parloop(lambda o, x: None, Arg(a, WRITE), Arg(b, READ))

        with pytest.raises(RankFailedError) as info:
            run_mesh(2, prog)
        assert isinstance(info.value.original, ArchetypeError)

    def test_charges_work(self):
        from repro.machines.model import MachineModel

        toy = MachineModel("toy", alpha=0, beta=0, flop_time=1e-6)

        def prog(mesh):
            a = mesh.grid((10, 10))
            mesh.parloop(lambda o: o.__setitem__(..., 0), Arg(a, WRITE), flops_per_point=3.0)

        res = run_mesh(1, prog, machine=toy)
        assert res.times[0] == pytest.approx(300e-6)


class TestStencilOp:
    @pytest.mark.chaos(seeds=8)
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_five_point_average(self, p):
        full = np.arange(64.0).reshape(8, 8)

        def prog(mesh):
            from repro.core.grid import DistGrid

            u = DistGrid.from_global(mesh.comm, full if mesh.comm.rank == 0 else None, ghost=1)
            out = u.like()
            mesh.parloop(
                lambda o, s: o.__setitem__(
                    ..., 0.25 * (s[-1, 0] + s[1, 0] + s[0, -1] + s[0, 1])
                ),
                Arg(out, WRITE),
                Arg(u, READ, halo=1),
                margin=1,
            )
            return out.gather(root=0)

        res = run_mesh(p, prog)
        expected = np.zeros_like(full)
        expected[1:-1, 1:-1] = 0.25 * (
            full[:-2, 1:-1] + full[2:, 1:-1] + full[1:-1, :-2] + full[1:-1, 2:]
        )
        assert np.array_equal(res.values[0], expected)

    def test_output_disjointness_enforced(self):
        def prog(mesh):
            u = mesh.grid((4, 4), ghost=1)
            mesh.parloop(lambda o, s: None, Arg(u, WRITE), Arg(u, READ, halo=1), margin=1)

        with pytest.raises(RankFailedError) as info:
            run_mesh(2, prog)
        assert isinstance(info.value.original, ArchetypeError)
        assert "disjoint" in str(info.value.original)

    def test_requires_ghost_layer(self):
        def prog(mesh):
            u = mesh.grid((4, 4), ghost=0)
            out = mesh.grid((4, 4), ghost=0)
            mesh.parloop(lambda o, s: None, Arg(out, WRITE), Arg(u, READ, halo=1), margin=1)

        with pytest.raises(RankFailedError) as info:
            run_mesh(1, prog)
        assert isinstance(info.value.original, ArchetypeError)

    def test_offset_beyond_ghost_rejected(self):
        def prog(mesh):
            u = mesh.grid((6, 6), ghost=1)
            out = u.like()
            mesh.parloop(lambda o, s: s[2, 0], Arg(out, WRITE), Arg(u, READ, halo=1), margin=1)

        with pytest.raises(RankFailedError) as info:
            run_mesh(1, prog)
        assert isinstance(info.value.original, ArchetypeError)

    def test_periodic_stencil(self):
        def prog(mesh):
            u = mesh.grid((4, 4), ghost=1)
            u.fill_from(lambda i, j: i * 4.0 + j)
            out = u.like()
            mesh.parloop(
                lambda o, s: o.__setitem__(..., s[-1, 0]),
                Arg(out, WRITE),
                Arg(u, READ, halo=1, periodic=True),
            )
            return out.gather(root=0)

        res = run_mesh(2, prog)
        full = (np.arange(16.0).reshape(4, 4))
        assert np.array_equal(res.values[0], np.roll(full, 1, axis=0))

    def test_per_axis_margin(self):
        def prog(mesh):
            u = mesh.grid((4, 6), ghost=1, fill=0.0)
            u.fill_from(lambda i, j: 1.0 + 0 * i * j)
            out = u.like(fill=-1.0)
            mesh.parloop(
                lambda o, s: o.__setitem__(..., s[0, 1]),
                Arg(out, WRITE),
                Arg(u, READ, halo=1, periodic=(False, True)),
                margin=(1, 0),
            )
            return out.gather(root=0)

        res = run_mesh(2, prog)
        full = res.values[0]
        # rows 0 and 3 (margin along axis 0) untouched; all columns written
        assert np.all(full[0] == -1.0) and np.all(full[3] == -1.0)
        assert np.all(full[1:3] == 1.0)

    def test_mismatched_grids_rejected(self):
        def prog(mesh):
            u = mesh.grid((4, 4), dist="rows", ghost=1)
            out = mesh.grid((4, 4), dist="cols", ghost=1)
            mesh.parloop(lambda o, s: None, Arg(out, WRITE), Arg(u, READ, halo=1), margin=1)

        with pytest.raises(RankFailedError) as info:
            run_mesh(2, prog)
        assert isinstance(info.value.original, ArchetypeError)


class TestRowColOps:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_row_op(self, p):
        def prog(mesh):
            g = mesh.grid((6, 5), dist="rows")
            g.fill_from(lambda i, j: i * 5.0 + j)
            mesh.row_op(lambda block: np.cumsum(block, axis=1), g)
            return g.gather(root=0)

        res = run_mesh(p, prog)
        expected = np.cumsum(np.arange(30.0).reshape(6, 5), axis=1)
        assert np.array_equal(res.values[0], expected)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_col_op(self, p):
        def prog(mesh):
            g = mesh.grid((6, 5), dist="cols")
            g.fill_from(lambda i, j: i * 5.0 + j)
            mesh.col_op(lambda cols: np.cumsum(cols, axis=1), g)
            return g.gather(root=0)

        res = run_mesh(p, prog)
        expected = np.cumsum(np.arange(30.0).reshape(6, 5), axis=0)
        assert np.array_equal(res.values[0], expected)

    def test_row_op_requires_rows_distribution(self):
        def prog(mesh):
            g = mesh.grid((4, 4), dist="cols")
            mesh.row_op(lambda b: b, g)

        with pytest.raises(RankFailedError) as info:
            run_mesh(2, prog)
        assert isinstance(info.value.original, ArchetypeError)
        assert "redistribute" in str(info.value.original)

    def test_col_op_requires_cols_distribution(self):
        def prog(mesh):
            g = mesh.grid((4, 4), dist="rows")
            mesh.col_op(lambda b: b, g)

        with pytest.raises(RankFailedError) as info:
            run_mesh(2, prog)
        assert isinstance(info.value.original, ArchetypeError)

    def test_col_op_must_return_block(self):
        def prog(mesh):
            g = mesh.grid((4, 4), dist="cols")
            mesh.col_op(lambda b: None, g)

        with pytest.raises(RankFailedError) as info:
            run_mesh(2, prog)
        assert isinstance(info.value.original, ArchetypeError)

    def test_row_then_col_via_redistribution(self):
        """The paper's Figure 7 composition."""

        def prog(mesh):
            g = mesh.grid((4, 4), dist="rows")
            g.fill_from(lambda i, j: (i + 1.0) * (j + 1.0))
            mesh.row_op(lambda b: b * 2, g)
            g2 = mesh.redistribute(g, "cols")
            mesh.col_op(lambda c: c + 1, g2)
            return g2.gather(root=0)

        res = run_mesh(4, prog)
        expected = 2.0 * np.outer(np.arange(1.0, 5), np.arange(1.0, 5)) + 1
        assert np.array_equal(res.values[0], expected)

    @pytest.mark.parametrize(
        "op, flops, seconds",
        [
            ("row_op", {"flops_per_row": 100.0}, 400e-6),
            ("col_op", {"flops_per_col": 100.0}, 600e-6),
        ],
    )
    def test_charges_per_vector(self, op, flops, seconds):
        """One charge per row (4 of them) or per column (6 of them)."""
        from repro.machines.model import MachineModel

        toy = MachineModel("toy", alpha=0, beta=0, flop_time=1e-6)

        def prog(mesh):
            g = mesh.grid((4, 6))
            getattr(mesh, op)(lambda b: b, g, **flops)

        res = run_mesh(1, prog, machine=toy)
        assert res.times[0] == pytest.approx(seconds)


class TestReductions:
    @pytest.mark.parametrize("p", [1, 2, 4, 5])
    def test_grid_reduce_sum(self, p):
        def prog(mesh):
            g = mesh.grid((6, 6), fill=1.0)
            return mesh.grid_reduce(g, np.sum, SUM, identity=0.0)

        res = run_mesh(p, prog)
        assert all(v == pytest.approx(36.0) for v in res.values)

    def test_grid_reduce_empty_section_needs_identity(self):
        def prog(mesh):
            g = mesh.grid((1, 4), dist="rows")  # some ranks own nothing
            return mesh.grid_reduce(g, np.max, MAX)

        with pytest.raises(RankFailedError) as info:
            run_mesh(3, prog)
        assert isinstance(info.value.original, ArchetypeError)

    def test_grid_reduce_with_identity(self):
        def prog(mesh):
            g = mesh.grid((1, 4), dist="rows", fill=2.0)
            return mesh.grid_reduce(g, np.max, MAX, identity=float("-inf"))

        res = run_mesh(3, prog)
        assert all(v == 2.0 for v in res.values)

    def test_max_abs_diff(self):
        def prog(mesh):
            a = mesh.grid((4, 4), fill=1.0)
            b = mesh.grid((4, 4), fill=1.0)
            b.interior[...] += 0.25
            return mesh.max_abs_diff(a, b)

        res = run_mesh(4, prog)
        assert all(v == pytest.approx(0.25) for v in res.values)

    def test_reduce_result_on_all_ranks(self):
        """Paper §3.2 postcondition: every rank holds the result."""

        def prog(mesh):
            return mesh.reduce(mesh.comm.rank + 1, SUM)

        res = run_mesh(6, prog)
        assert res.values == [21] * 6


class TestFileIO:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "grid.npy"
        full = np.arange(24.0).reshape(4, 6)

        def writer(mesh):
            from repro.core.grid import DistGrid

            g = DistGrid.from_global(mesh.comm, full if mesh.comm.rank == 0 else None)
            mesh.write_grid(g, path)
            return True

        def reader(mesh):
            g = mesh.read_grid(path)
            return np.array_equal(g.interior, full[g.layout.slices(mesh.comm.rank)])

        assert all(run_mesh(2, writer).values)
        assert all(run_mesh(3, reader).values)


class TestWorkingSet:
    def test_paging_penalty_applies(self):
        from repro.machines.model import MachineModel

        tight = MachineModel(
            "tight", alpha=0, beta=0, flop_time=1e-6, mem_per_node=100, paging_factor=5.0
        )

        def prog(mesh, ws):
            mesh.set_working_set(ws)
            g = mesh.grid((10, 10))
            mesh.parloop(lambda o: o.__setitem__(..., 0.0), Arg(g, WRITE), flops_per_point=1.0)

        fast = run_mesh(1, prog, 50, machine=tight).times[0]
        slow = run_mesh(1, prog, 200, machine=tight).times[0]
        assert slow > fast * 2


class TestPartitionedIO:
    def test_write_read_across_configurations(self, tmp_path):
        """Paper §3.2's concurrent-I/O pattern: per-rank section files,
        readable by any process count and distribution."""
        import numpy as np
        from repro.core.grid import DistGrid

        full = np.arange(60.0).reshape(6, 10)

        def writer(mesh):
            g = DistGrid.from_global(
                mesh.comm, full if mesh.comm.rank == 0 else None, dist="rows"
            )
            mesh.write_grid_partitioned(g, tmp_path / "grid")
            return True

        assert all(run_mesh(3, writer).values)

        def reader(mesh):
            g = mesh.read_grid_partitioned(tmp_path / "grid", dist="cols", ghost=1)
            return np.array_equal(
                g.interior, full[g.layout.slices(mesh.comm.rank)]
            )

        for p in (1, 2, 4, 5):
            assert all(run_mesh(p, reader).values), p

    def test_manifest_records_shape(self, tmp_path):
        import json

        def writer(mesh):
            g = mesh.grid((4, 6), fill=2.0)
            mesh.write_grid_partitioned(g, tmp_path / "g2")
            return True

        run_mesh(2, writer)
        with open(tmp_path / "g2" / "manifest.json") as f:
            manifest = json.load(f)
        assert manifest["global_shape"] == [4, 6]
        assert manifest["nranks"] == 2

    def test_roundtrip_preserves_dtype_values(self, tmp_path):
        import numpy as np

        def writer(mesh):
            g = mesh.grid((5, 5), dtype=np.int64)
            g.fill_from(lambda i, j: i * 5 + j)
            mesh.write_grid_partitioned(g, tmp_path / "g3")
            return True

        def reader(mesh):
            g = mesh.read_grid_partitioned(tmp_path / "g3")
            return (g.dtype == np.float64, g.gather(root=0))

        run_mesh(4, writer)
        res = run_mesh(2, reader)
        got = res.values[0][1]
        assert np.array_equal(got, np.arange(25.0).reshape(5, 5))
