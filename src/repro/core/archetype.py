"""Base archetype abstraction.

The program-development strategy of paper §1.2:

1. start with a sequential algorithm;
2. identify an archetype;
3. write the archetype-structured version (executable sequentially);
4. transform it for the target architecture guided by the archetype;
5. implement on the target's message-passing substrate.

Here steps 3–5 collapse into one artifact: an :class:`Archetype` subclass
holds the application-specific "blanks" (callbacks) and its ``run`` method
executes the filled-in skeleton on the virtual machine, either with the
deterministic scheduler (the sequentially-executable version) or with free
threads.  The skeleton supplies all process interaction, so applications
contain only sequential code — the paper's central promise.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import ArchetypeError
from repro.machines.catalog import IDEAL
from repro.machines.model import MachineModel
from repro.runtime.spmd import RunResult, spmd_run


class ExecutionMode(str, enum.Enum):
    """How the archetype program's ranks are scheduled.

    ``SEQUENTIAL`` is the paper's debuggable execution: logical processes
    interleave one at a time in rank order.  ``THREADS`` runs ranks
    concurrently as threads of this process; ``PARALLEL`` runs one OS
    process per rank (real multi-core execution).  Deterministic archetype
    programs must produce the same results under all three.
    """

    SEQUENTIAL = "sequential"
    THREADS = "threads"
    PARALLEL = "parallel"

    @property
    def backend(self) -> str:
        if self is ExecutionMode.SEQUENTIAL:
            return "deterministic"
        return "threads" if self is ExecutionMode.THREADS else "parallel"


class Archetype:
    """Common driver for archetype-structured programs.

    Subclasses implement :meth:`body`, the per-rank SPMD program, and may
    override :meth:`prepare` to stage the global problem input before the
    ranks start (e.g. pre-split it into initial local sections).
    """

    #: archetype name used in diagnostics
    name: str = "archetype"
    #: whether :meth:`body` takes the ``proc_grid`` that ``run(proc_grid=)``
    #: pins (the mesh-spectral archetype); other archetypes ignore it
    pins_proc_grid: bool = False

    def body(self, comm: Any, *args: Any, **kwargs: Any) -> Any:
        """The per-rank program.  Subclasses must override."""
        raise NotImplementedError

    def prepare(self, nprocs: int, *args: Any, **kwargs: Any) -> tuple[tuple, dict]:
        """Stage inputs for a run of *nprocs* ranks.

        Returns the (args, kwargs) actually passed to :meth:`body` on every
        rank.  Default: pass through unchanged.
        """
        return args, kwargs

    def run(
        self,
        nprocs: int,
        *args: Any,
        mode: ExecutionMode | str | None = None,
        machine: MachineModel = IDEAL,
        trace: bool = False,
        proc_grid: tuple[int, ...] | None = None,
        **kwargs: Any,
    ) -> RunResult:
        """Execute the archetype program on *nprocs* ranks.

        Keyword-only parameters select the execution mode, machine model,
        and tracing; everything else is forwarded to the program body.
        ``mode=None`` (the default) defers to the ``REPRO_BACKEND``
        environment default via the backend registry, falling back to
        sequential execution.

        *proc_grid* pins the default ("blocks") process-grid factorisation
        for the run: it reaches every rank as an argument of :meth:`body`,
        on every engine (archetypes without :attr:`pins_proc_grid` ignore
        it).  Nothing else is looked up: a run depends on its arguments
        and the machine model alone, so the paper's curves do not move
        with what a tuner stored on this host.  The tuned-config
        catalog is consulted by the named-app entry points instead
        (:meth:`repro.apps.registry.AppSpec.run`, the job server's
        admission).
        """
        if nprocs < 1:
            raise ArchetypeError(f"{self.name}: nprocs must be >= 1, got {nprocs}")
        backend = None if mode is None else ExecutionMode(mode).backend
        body_args, body_kwargs = self.prepare(nprocs, *args, **kwargs)
        if proc_grid is not None and self.pins_proc_grid:
            body_kwargs = {**body_kwargs, "proc_grid": tuple(proc_grid)}
        return spmd_run(
            nprocs,
            self.body,
            args=body_args,
            kwargs=body_kwargs,
            machine=machine,
            backend=backend,
            trace=trace,
        )
