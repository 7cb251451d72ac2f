"""The mesh-spectral archetype (paper §3).

A mesh-spectral program is a composition of the operation classes of
§3.1 over distributed N-dimensional grids:

- **grid operations** — the same pointwise (or stencil) update at every
  point; when neighbouring points are read, the outputs must be disjoint
  from the inputs (enforced here), and a ghost-boundary exchange precedes
  the update;
- **row / column operations** — independent per-row (per-column)
  transforms, requiring by-rows (by-columns) distribution; composing
  operations with different requirements forces a redistribution
  (Figure 7), available as :meth:`MeshContext.redistribute`;
- **reduction operations** — associative combinations of all grid values
  with the postcondition that *all* ranks hold the result (recursive
  doubling, Figure 8);
- **file input/output** — modelled as gather-to-root / scatter-from-root
  around sequential I/O.

Programs are written against a :class:`MeshContext`; the
:class:`MeshProgram` archetype runs them sequentially or SPMD.

A grid operation is *declared* as a par-loop (:mod:`repro.kernels`) —
:meth:`MeshContext.loop` above the time loop, called inside it — and
executed by the context's :class:`~repro.kernels.runtime.KernelEngine`,
which fuses adjacent loops and hoists ghost exchanges whose halos are
still valid (see ``docs/kernel_layer.md``).
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable
from math import prod
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ArchetypeError
from repro.comm.communicator import Comm
from repro.comm.reductions import MAX, MIN, SUM, Op
from repro.comm.redistribute import intersect, local_slices
from repro.core.archetype import Archetype
from repro.core.globals import GlobalVar
from repro.core.grid import DistGrid
from repro.kernels.ir import Arg, Kernel, ParLoop, StencilView, split_deep_shell
from repro.kernels.runtime import KernelEngine
from repro.obs.metrics import counter_handle, histogram_handle

__all__ = [
    "MeshContext",
    "MeshProgram",
    "StencilView",
    "split_deep_shell",
    "MESH_SUM",
    "MESH_MAX",
    "MESH_MIN",
]

_OP_SECONDS = histogram_handle(
    "core.mesh.op_seconds", help="per-rank virtual time inside a mesh op"
)


def _instrumented(method):
    """Tally one ``core.mesh.<op>`` count and the op's virtual duration
    on the rank (landed when the run ends)."""
    name = method.__name__
    counter = counter_handle(
        f"core.mesh.{name}", help=f"mesh-spectral {name} operations"
    )

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        comm = self.comm
        entry = comm.clock
        result = method(self, *args, **kwargs)
        comm.tallies[counter] += 1
        comm.samples[_OP_SECONDS].append(comm.clock - entry)
        return result

    return wrapper


class MeshContext:
    """The operations a mesh-spectral program is written against."""

    def __init__(self, comm: Comm, proc_grid: tuple[int, ...] | None = None):
        self.comm = comm
        #: the process grid ``dist="blocks"`` stands for when this context
        #: lays a grid out by shape (:meth:`grid`, :meth:`redistribute`,
        #: :meth:`read_grid_partitioned`) and the pin fits (same rank count
        #: and dimensionality); elsewhere, and when ``None``, "blocks" is
        #: the near-square factorisation
        self.proc_grid = proc_grid
        #: per-rank working-set size (bytes) used by the machine's memory
        #: model; set via :meth:`set_working_set`
        self.working_set: float | None = None
        #: the exchange mode of every par-loop run: when True, ghost
        #: exchanges run nonblocking and interior cells are updated while
        #: boundary slabs are in flight; a program sets it (read at each
        #: run)
        self.overlap = True
        #: the per-rank par-loop engine (queue, fusion, exchange hoisting)
        self.kernels = KernelEngine(self)

    def set_working_set(self, nbytes: float | None) -> None:
        """Declare this rank's resident working-set size.

        All subsequent compute charges pass it to the machine model,
        which applies a paging penalty when it exceeds node memory —
        the mechanism behind the paper's Figure 18 anomaly (the 5-node
        base configuration paged; larger configurations did not).
        """
        self.working_set = nbytes

    # -- data creation --------------------------------------------------------
    def grid(
        self,
        global_shape: tuple[int, ...],
        dist: str | tuple[int, ...] = "blocks",
        ghost: int = 0,
        dtype: Any = np.float64,
        fill: float = 0.0,
    ) -> DistGrid:
        """Create a distributed grid (see :class:`DistGrid`)."""
        dist = self._dist(dist, len(global_shape))
        return DistGrid(self.comm, global_shape, dist=dist, ghost=ghost, dtype=dtype, fill=fill)

    def _dist(self, dist: str | tuple[int, ...], ndim: int) -> str | tuple[int, ...]:
        """*dist*, with "blocks" pinned to :attr:`proc_grid` where it fits."""
        pin = self.proc_grid
        if dist == "blocks" and pin and len(pin) == ndim and prod(pin) == self.comm.size:
            return pin
        return dist

    def global_var(self, value: Any = None, sync: bool = False) -> GlobalVar:
        """Create a copy-consistent global variable."""
        return GlobalVar(self.comm, value, sync=sync)

    # -- grid operations --------------------------------------------------------
    def loop(
        self,
        kernel: Kernel | Callable[..., None],
        *args: Arg,
        margin: int | tuple[int, ...] = 0,
        flops_per_point: float = 0.0,
        label: str | None = None,
    ) -> ParLoop:
        """Declare one par-loop (the kernel-layer front door); calling
        the returned :class:`~repro.kernels.ir.ParLoop` runs it.

        *kernel* is a :class:`~repro.kernels.ir.Kernel` (or a bare
        callable, wrapped as one) applied over the owned interior of the
        first argument's grid intersected with *margin*; *args* bind
        grids with access modes (``Arg(grid, READ, halo=1)``).  Declare
        above the time loop and call inside it: validation and everything
        derived from the declaration happen here, once.  A called loop
        runs at once or, inside a :meth:`fuse` block, queues so adjacent
        compatible loops fuse and ghost exchanges dedup across them.
        Exchanges for halo reads whose ghosts are still valid are hoisted;
        the exchange mode is :attr:`overlap` as it stands at each run.
        """
        if not isinstance(kernel, Kernel):
            kernel = Kernel(kernel, name=label or "parloop")
        return ParLoop(
            self,
            kernel,
            list(args),
            margin=margin,
            flops_per_point=flops_per_point,
            label=label,
        )

    def parloop(self, kernel: Kernel | Callable[..., None], *args: Arg, **declaration) -> None:
        """Declare a par-loop and run it once: ``mesh.loop(...)()``."""
        self.loop(kernel, *args, **declaration)()

    def fuse(self):
        """Context manager batching the par-loops declared inside into
        one planner flush: ``with mesh.fuse(): ...``."""
        return self.kernels.fuse()

    # -- row / column operations ---------------------------------------------------
    def _require_whole_axis(self, grid: DistGrid, axis: int, what: str) -> None:
        geom = grid.geometry
        if geom.layout.rects[self.comm.rank][axis] != (0, geom.global_shape[axis]):
            raise ArchetypeError(
                f"{what} requires data distributed so each rank holds whole "
                f"extents along axis {axis}; redistribute first (the paper's "
                "Figure 7 pattern) via MeshContext.redistribute"
            )

    @_instrumented
    def row_op(
        self,
        fn: Callable[[np.ndarray], np.ndarray | None],
        grid: DistGrid,
        flops_per_row: float = 0.0,
        label: str = "row_op",
    ) -> None:
        """Apply an independent transform to every row (axis-1 vectors).

        Requires by-rows distribution (each rank owns whole rows).  *fn*
        receives the local ``(nrows_local, ncols)`` block and either
        mutates it in place (returning ``None``) or returns a same-shape
        replacement.
        """
        self.kernels.flush()
        self._require_whole_axis(grid, 1, "a row operation")
        self.kernels.note_write(grid)
        block = grid.interior
        if flops_per_row:
            self.comm.charge(flops_per_row * block.shape[0], label=label, working_set_bytes=self.working_set)
        result = fn(block)
        if result is not None:
            block[...] = result

    @_instrumented
    def col_op(
        self,
        fn: Callable[[np.ndarray], np.ndarray | None],
        grid: DistGrid,
        flops_per_col: float = 0.0,
        label: str = "col_op",
    ) -> None:
        """Apply an independent transform to every column (axis-0 vectors).

        Requires by-columns distribution.  *fn* receives the local block
        transposed to ``(ncols_local, nrows)`` so each *row* of its input
        is one column vector, matching ``row_op``'s calling convention.
        """
        self.kernels.flush()
        self._require_whole_axis(grid, 0, "a column operation")
        self.kernels.note_write(grid)
        block = grid.interior
        if flops_per_col:
            self.comm.charge(flops_per_col * block.shape[1], label=label, working_set_bytes=self.working_set)
        result = fn(np.ascontiguousarray(block.T))
        if result is None:
            raise ArchetypeError(
                "col_op callbacks receive a transposed copy and must return "
                "the transformed block (in-place mutation would be lost)"
            )
        block[...] = result.T

    @_instrumented
    def redistribute(self, grid: DistGrid, dist: str | tuple[int, ...]) -> DistGrid:
        """Move a grid to a different distribution (paper Figure 7)."""
        self.kernels.flush()
        return grid.redistributed(self._dist(dist, grid.ndim))

    # -- reductions -------------------------------------------------------------
    def reduce(self, local: Any, op: Op) -> Any:
        """Combine per-rank values; postcondition (paper §3.2): every rank
        holds the identical result."""
        self.kernels.flush()
        return self.comm.allreduce(local, op)

    @_instrumented
    def grid_reduce(
        self,
        grid: DistGrid,
        local_fn: Callable[[np.ndarray], Any],
        op: Op,
        identity: Any = None,
        flops_per_point: float = 1.0,
        label: str = "reduce",
    ) -> Any:
        """Reduce over all grid points: ``local_fn`` reduces the owned
        section, ``op`` combines across ranks.

        ``identity`` is used for ranks owning zero points (possible when
        P exceeds an axis extent).
        """
        self.kernels.flush()
        section = grid.interior
        if flops_per_point:
            self.comm.charge(flops_per_point * section.size, label=label, working_set_bytes=self.working_set)
        local = local_fn(section) if section.size else identity
        if section.size == 0 and identity is None:
            raise ArchetypeError(
                "grid_reduce on an empty section needs an identity value"
            )
        return self.reduce(local, op)

    @_instrumented
    def max_abs_diff(self, a: DistGrid, b: DistGrid) -> float:
        """Convergence helper: global max |a - b| over owned interiors."""
        self.kernels.flush()
        if a.layout.rects != b.layout.rects:
            raise ArchetypeError(
                "grids in one operation must share a distribution; redistribute first"
            )
        sec_a, sec_b = a.interior, b.interior
        self.comm.charge(2.0 * sec_a.size, label="max_abs_diff", working_set_bytes=self.working_set)
        local = float(np.max(np.abs(sec_a - sec_b))) if sec_a.size else float("-inf")
        return self.reduce(local, MAX)

    # -- file input/output ----------------------------------------------------------
    def write_grid(self, grid: DistGrid, path: str | Path) -> None:
        """Sequential file output: gather to rank 0, write one .npy file."""
        self.kernels.flush()
        full = grid.gather(root=0)
        if self.comm.rank == 0:
            np.save(Path(path), full)
        self.comm.barrier()

    def read_grid(
        self,
        path: str | Path,
        dist: str | tuple[int, ...] = "blocks",
        ghost: int = 0,
    ) -> DistGrid:
        """Sequential file input: rank 0 reads one .npy file, scatters it."""
        self.kernels.flush()
        full = np.load(Path(path)) if self.comm.rank == 0 else None
        return DistGrid.from_global(self.comm, full, dist=dist, ghost=ghost)

    def write_grid_partitioned(self, grid: DistGrid, directory: str | Path) -> None:
        """Concurrent file output (paper §3.2's second I/O pattern):
        every rank writes its own section file, plus a manifest.

        No data redistribution is needed; actual disk concurrency is the
        host filesystem's business, exactly as the paper notes.
        """
        self.kernels.flush()
        directory = Path(directory)
        if self.comm.rank == 0:
            directory.mkdir(parents=True, exist_ok=True)
            manifest = {
                "global_shape": grid.global_shape,
                "nranks": self.comm.size,
                "rects": [grid.layout.rect(r) for r in range(self.comm.size)],
            }
            (directory / "manifest.json").write_text(json.dumps(manifest))
        self.comm.barrier()  # manifest/directory exists before section writes
        np.save(
            directory / f"section{self.comm.rank:05d}.npy",
            np.ascontiguousarray(grid.interior),
        )
        self.comm.barrier()

    def read_grid_partitioned(
        self,
        directory: str | Path,
        dist: str | tuple[int, ...] = "blocks",
        ghost: int = 0,
    ) -> DistGrid:
        """Concurrent file input: each rank reads exactly the section
        files intersecting its target rectangle.

        The reading configuration is independent of the writing one —
        any process count and distribution can read any partitioned
        grid, because the manifest records each file's rectangle.
        """
        self.kernels.flush()
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        global_shape = tuple(manifest["global_shape"])
        grid = DistGrid(
            self.comm, global_shape, dist=self._dist(dist, len(global_shape)), ghost=ghost
        )
        my = grid.rect
        for stored_rank, rect in enumerate(manifest["rects"]):
            overlap = intersect(my, rect)
            if overlap is None:
                continue
            section = np.load(directory / f"section{stored_rank:05d}.npy")
            grid.interior[local_slices(overlap, my)] = section[local_slices(overlap, rect)]
        self.comm.barrier()
        return grid

    # -- misc -----------------------------------------------------------------------
    def charge(self, flops: float, label: str = "") -> None:
        """Charge extra analytic work to this rank's virtual clock."""
        self.kernels.flush()
        self.comm.charge(flops, label=label, working_set_bytes=self.working_set)


class MeshProgram(Archetype):
    """Archetype driver for mesh-spectral programs.

    The user's *program* is a function ``program(mesh, *args, **kwargs)``
    written against a :class:`MeshContext`.  ``MeshProgram(program).run(P)``
    executes it on P ranks; running with ``mode="sequential"`` gives the
    paper's debuggable sequential execution of the same code.
    """

    name = "mesh-spectral"
    pins_proc_grid = True

    def __init__(self, program: Callable[..., Any]):
        self.program = program

    def body(
        self, comm: Comm, *args: Any, proc_grid: tuple[int, ...] | None = None, **kwargs: Any
    ) -> Any:
        return self.program(MeshContext(comm, proc_grid=proc_grid), *args, **kwargs)


# Re-exported reduction ops so mesh programs rarely need repro.comm imports.
MESH_SUM = SUM
MESH_MAX = MAX
MESH_MIN = MIN
