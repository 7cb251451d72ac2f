"""The archetype execution contract, as reusable checks.

Every archetype in the library makes the same promises, inherited from
the virtual-clock runtime (ROADMAP "uniform correctness contracts"):

1. **Digest determinism** — two identical runs produce bitwise-identical
   (clocks, values) digests.
2. **Fuzzed-schedule identity** — the digest is invariant under seeded
   schedule fuzzing (race freedom).
3. **Clock canonicality** — final virtual clocks are a pure function of
   the program, not the schedule or engine.
4. **Critical path == makespan** — the traced dependency graph's longest
   path equals the slowest rank's clock (no phantom dependencies, no
   missed ones).
5. **Trace schema validity** — the Chrome-trace export is well-formed.
6. **Backend identity** — threads and process-parallel engines reproduce
   the deterministic engine's digest bitwise.

``tests/test_archetype_contract.py`` applies these checks to every
registered app (run by :func:`repro.verify.conformance.run_app`) ×
every registered backend; a new app gets the whole battery by
registering one ``AppSpec``.  The checks are plain functions so other
suites (or a REPL) can call them against any app.
"""

from __future__ import annotations

from repro.obs.chrome import chrome_trace, validate_chrome_trace
from repro.obs.critical import critical_path
from repro.runtime.spmd import RunResult
from repro.verify import fuzzed_schedule
from repro.verify.conformance import run_app
from repro.verify.digest import value_digest

#: every registered backend, in contract-suite order
BACKENDS = ("deterministic", "fuzzed", "threads", "parallel")

#: seeds for the fuzzed-schedule identity check (the ISSUE's 8-seed bar)
FUZZ_SEEDS = tuple(range(8))


def run_program(
    app: str, backend: str = "deterministic", seed: int = 0, trace: bool = False
) -> RunResult:
    """Run registered *app* on *backend* (seeded when fuzzed)."""
    if backend == "fuzzed":
        with fuzzed_schedule(seed):
            return run_app(app, mode="sequential", trace=trace)
    mode = {"deterministic": "sequential"}.get(backend, backend)
    return run_app(app, mode=mode, trace=trace)


def digest_of(result: RunResult) -> str:
    """The digest the contract compares: final clocks and per-rank values."""
    return value_digest([result.times, result.values])


def check_digest_determinism(name: str) -> None:
    """Contract 1: identical runs, identical digests."""
    first = digest_of(run_program(name))
    second = digest_of(run_program(name))
    assert first == second, f"{name}: deterministic reruns diverge"


def check_fuzzed_digest_identity(name: str, seeds=FUZZ_SEEDS) -> None:
    """Contract 2: schedule fuzzing never changes the digest."""
    reference = digest_of(run_program(name))
    for seed in seeds:
        fuzzed = digest_of(run_program(name, backend="fuzzed", seed=seed))
        assert fuzzed == reference, (
            f"{name}: digest diverged under fuzzed schedule seed {seed}"
        )


def check_clock_canonicality(name: str) -> None:
    """Contract 3: virtual clocks are schedule- and engine-independent.

    Compares exact floats (not digests) so a divergence names the rank.
    """
    reference = run_program(name).times
    assert any(t > 0.0 for t in reference), (
        f"{name}: all-zero clocks — the program must run on a modelled "
        "machine for clock checks to be meaningful"
    )
    for seed in FUZZ_SEEDS[:4]:
        times = run_program(name, backend="fuzzed", seed=seed).times
        assert times == reference, (
            f"{name}: clocks not canonical under fuzz seed {seed}: "
            f"{times} != {reference}"
        )
    for backend in ("threads", "parallel"):
        times = run_program(name, backend=backend).times
        assert times == reference, (
            f"{name}: clocks not canonical on {backend}: {times} != {reference}"
        )


def check_critical_path_equals_makespan(name: str) -> None:
    """Contract 4: the traced longest path accounts for the makespan."""
    result = run_program(name, trace=True)
    report = critical_path(result.tracer)
    makespan = result.tracer.makespan()
    assert abs(report.length - makespan) < 1e-12, (
        f"{name}: critical path {report.length} != makespan {makespan}"
    )


def check_trace_schema(name: str) -> None:
    """Contract 5: the Chrome-trace export validates."""
    result = run_program(name, trace=True)
    errors = validate_chrome_trace(chrome_trace(result.tracer))
    assert not errors, f"{name}: invalid chrome trace: {errors}"


def check_backend_identity(name: str, backend: str) -> None:
    """Contract 6: *backend* reproduces the deterministic digest bitwise."""
    reference = digest_of(run_program(name))
    other = digest_of(run_program(name, backend=backend))
    assert other == reference, f"{name}: {backend} digest diverges from deterministic"


#: contract name -> single-program check (backend identity is separate:
#: it is parameterized over backends as well)
CHECKS = {
    "digest-determinism": check_digest_determinism,
    "fuzzed-digest-identity": check_fuzzed_digest_identity,
    "clock-canonicality": check_clock_canonicality,
    "critical-path-makespan": check_critical_path_equals_makespan,
    "trace-schema": check_trace_schema,
}

__all__ = [
    "BACKENDS",
    "CHECKS",
    "FUZZ_SEEDS",
    "check_backend_identity",
    "check_clock_canonicality",
    "check_critical_path_equals_makespan",
    "check_digest_determinism",
    "check_fuzzed_digest_identity",
    "check_trace_schema",
    "digest_of",
    "run_program",
]
