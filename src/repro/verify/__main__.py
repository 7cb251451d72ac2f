"""Command-line entry point: ``python -m repro.verify``.

Runs the schedule-fuzzing suite over every registered application (each
at its ``verify_overrides`` sizes on IBM SP, the conformance run of
:func:`repro.verify.conformance.run_app`) and the demo controls, and
exits nonzero when anything unexpected is found:

- a *clean* application diverging under any seed (nondeterminism bug), or
- a *racy* control **not** being detected (fuzzer regression).

``--smoke`` uses 4 seeds (the CI gate, a few seconds); the default is the
acceptance sweep with 16 seeds.  ``--replay SEED --program NAME`` re-runs
one seed of one program and prints its digests — the debugging workflow
once a finding names a seed.

``--cross-backend`` runs the digest-identity matrix instead: each
registered application on the deterministic, threaded, and
process-parallel backends, requiring bitwise-identical digests of
(clocks, values) across all three (:mod:`repro.verify.crossbackend`).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from repro.apps import registry
from repro.verify.conformance import run_app
from repro.verify.demo import race_free_arrival, racy_first_arrival, racy_float_reduction
from repro.verify.explorer import ScheduleExplorer


def _app(name: str) -> Callable[[], ScheduleExplorer]:
    return lambda: ScheduleExplorer(lambda: run_app(name))


def _control(nprocs: int, body: Callable) -> Callable[[], ScheduleExplorer]:
    return lambda: ScheduleExplorer.for_body(nprocs, body)


#: name -> (explorer factory, races expected?): every registered app, then
#: the racy positive controls and their race-free twin
PROGRAMS: dict[str, tuple[Callable[[], ScheduleExplorer], bool]] = {
    **{name: (_app(name), False) for name in registry.names()},
    "racy-arrival": (_control(4, racy_first_arrival), True),
    "racy-reduction": (_control(5, racy_float_reduction), True),
    "race-free-arrival": (_control(4, race_free_arrival), False),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="schedule-fuzz the application suite and its racy controls",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="fast CI gate: 4 seeds per program"
    )
    parser.add_argument(
        "--seeds", type=int, default=16, help="seeds per program (default 16)"
    )
    parser.add_argument(
        "--program",
        choices=sorted(PROGRAMS),
        action="append",
        help="restrict to one program (repeatable; default: all)",
    )
    parser.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="re-run one seed of --program and print its digests",
    )
    parser.add_argument(
        "--cross-backend",
        action="store_true",
        help="run the deterministic × threads × parallel digest-identity "
        "matrix over the clean applications instead of schedule fuzzing",
    )
    args = parser.parse_args(argv)
    seeds = 4 if args.smoke else args.seeds
    names = args.program or sorted(PROGRAMS)

    if args.cross_backend:
        from repro.verify.crossbackend import cross_backend_matrix

        # With no explicit --program, run the full matrix.
        chosen = [n for n in names if n in registry.names()] if args.program else None
        report = cross_backend_matrix(programs=chosen)
        print(report.summary())
        print("cross-backend matrix:", "passed" if report.ok else "FAILED")
        return 0 if report.ok else 1

    if args.replay is not None:
        if len(names) != 1:
            parser.error("--replay requires exactly one --program")
        explorer = PROGRAMS[names[0]][0]()
        result = explorer.replay(args.replay)
        print(f"{names[0]} seed {args.replay} digests:")
        for rank, digest in enumerate(explorer.digests(result)):
            print(f"  rank {rank}: {digest}")
        return 0

    failed = False
    for name in names:
        factory, racy = PROGRAMS[name]
        report = factory().explore(seeds)
        verdict = "ok"
        if racy and report.ok:
            verdict = "FAIL (race went undetected)"
            failed = True
        elif not racy and not report.ok:
            verdict = "FAIL (nondeterminism)"
            failed = True
        elif racy:
            verdict = f"ok (detected, e.g. seed {report.findings[0].seed})"
        expectation = "expect divergence" if racy else "expect clean"
        print(f"[{name}] {seeds} seeds, {expectation}: {verdict}")
        if not racy and not report.ok:
            print(report.summary())
    print("chaos suite:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
