"""Cross-backend digest identity: the parallel-backend correctness bar.

The schedule fuzzer (:mod:`repro.verify.explorer`) certifies programs
race-free *within* one backend by diffing digests across seeds.  This
module checks the complementary claim across execution engines: a
race-free program must produce bitwise-identical per-rank result digests
and final virtual clocks on every backend — run-to-block deterministic,
free-running threads, and one-OS-process-per-rank — because canonical
clock charging makes virtual time schedule-independent and race freedom
makes values interleaving-independent.  This is the property that lets
``backend="parallel"`` be a pure wall-clock optimisation.

The matrix has one row per registered app
(:func:`repro.apps.registry.names`), each run by
:func:`repro.verify.conformance.run_app` at its verification sizes: the
same runs the conformance suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import registry
from repro.runtime import backends as backend_registry
from repro.verify.conformance import run_app
from repro.verify.digest import value_digest

#: the engines compared by default (canonical names)
DEFAULT_BACKENDS = ("deterministic", "threads", "parallel")


@dataclass
class MatrixCell:
    """One (program, backend) run, digested."""

    program: str
    backend: str
    digest: str  #: digest over (times, values) — the full observable outcome
    matches_reference: bool


@dataclass
class CrossBackendReport:
    """Digest-identity matrix over programs × backends."""

    reference: str  #: the backend every other backend is compared against
    cells: list[MatrixCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.matches_reference for cell in self.cells)

    def summary(self) -> str:
        lines = [f"cross-backend digest matrix (reference: {self.reference})"]
        for cell in self.cells:
            mark = "ok" if cell.matches_reference else "DIVERGED"
            lines.append(
                f"  {cell.program:>10} × {cell.backend:<13} "
                f"{cell.digest[:16]}  {mark}"
            )
        return "\n".join(lines)


def cross_backend_matrix(
    programs: list[str] | None = None,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    reference: str = "deterministic",
) -> CrossBackendReport:
    """Run each registered app (or just *programs*) on each backend and
    diff digests vs *reference*.

    Each engine is passed explicitly, as its ``ExecutionMode``
    (:attr:`~repro.runtime.backends.BackendSpec.mode`).  The fuzzed
    engine has no mode of its own; sweep it with
    :class:`~repro.verify.explorer.ScheduleExplorer` instead.
    """
    names = [backend_registry.resolve(b) for b in backends]
    reference = backend_registry.resolve(reference)
    if reference not in names:
        names.insert(0, reference)
    report = CrossBackendReport(reference=reference)
    for program in programs or registry.names():
        digests: dict[str, str] = {}
        for backend in names:
            result = run_app(program, mode=backend_registry.get(backend).mode)
            digests[backend] = value_digest([result.times, result.values])
        for backend in names:
            report.cells.append(
                MatrixCell(
                    program=program,
                    backend=backend,
                    digest=digests[backend],
                    matches_reference=digests[backend] == digests[reference],
                )
            )
    return report
