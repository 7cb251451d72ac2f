"""Command-line entry point for the observability subsystem.

Usage::

    python -m repro.obs poisson --summary --critical-path
    python -m repro.obs mergesort --procs 8 --export-chrome trace.json
    python -m repro.obs fft2d --compare-model --machine intel-delta
    python -m repro.obs --smoke        # the make obs-smoke CI gate

Runs any registered application (:mod:`repro.apps.registry`) traced,
at its registered defaults, and reports on it: trace summary + metrics,
critical path, Chrome trace-event export (open the file at
https://ui.perfetto.dev), and, for an app with a model, measured vs
``AppSpec.predict``.  With no report flags, ``--summary`` is implied.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.apps import registry
from repro.machines.catalog import get_machine, list_machines
from repro.obs.chrome import export_chrome_trace
from repro.obs.critical import critical_path, rank_activity, render_comm_matrix
from repro.obs.metrics import get_registry, scoped_registry
from repro.runtime.spmd import RunResult
from repro.trace.analysis import render_gantt, summarize


def _print_summary(result: RunResult, description: str) -> None:
    tracer = result.tracer
    summary = summarize(tracer)
    print(f"{description} on {len(result.times)} rank(s)")
    print(f"virtual makespan: {result.elapsed:.6g}s")
    print()
    print("rank  compute      comm         idle         sent     received")
    for rs in summary.ranks:
        print(
            f"{rs.rank:>4}  {rs.compute_time:<11.6g}  {rs.comm_time:<11.6g}  "
            f"{rs.idle_time:<11.6g}  {rs.bytes_sent:>7} B  {rs.bytes_received:>7} B"
        )
    print(
        f"totals: {summary.total_messages} messages, "
        f"{summary.total_bytes} B sent, {summary.total_bytes_received} B received, "
        f"{summary.total_idle_time:.6g}s idle, "
        f"comm fraction {summary.comm_fraction():.1%}"
    )
    print()
    print(render_gantt(tracer))
    print()
    print("communication matrix:")
    print(render_comm_matrix(tracer))
    print()
    print("metrics:")
    print(get_registry().render())


def _print_critical_path(result: RunResult) -> None:
    report = critical_path(result.tracer)
    print(report.render())
    print()
    print("per-rank activity (seconds):")
    print("rank  compute      send         recv         wait         idle")
    for act in rank_activity(result.tracer):
        print(
            f"{act.rank:>4}  {act.compute:<11.6g}  {act.send:<11.6g}  "
            f"{act.recv:<11.6g}  {act.wait:<11.6g}  {act.idle:<11.6g}"
        )


def _print_comparison(result: RunResult, predicted: float) -> None:
    machine = result.machine
    measured = result.elapsed
    ratio = measured / predicted if predicted > 0 else float("inf")
    print(f"machine: {machine.describe()}")
    print(f"measured (simulated) makespan: {measured:.6g}s")
    print(f"model prediction:              {predicted:.6g}s")
    print(f"measured / predicted:          {ratio:.3f}")
    print(
        "(the closed form ignores skew and wait effects; agreement within a"
        " small factor is expected, exact agreement is not)"
    )


def smoke(machine_name: str = "ibm-sp") -> int:
    """The ``make obs-smoke`` gate: trace two archetypes, export, validate.

    Runs Poisson and mergesort at their registered defaults, exports each
    to a Chrome trace (validated on export), and checks the critical-path
    invariant (path length == virtual makespan).  Returns a process exit
    code.
    """
    machine = get_machine(machine_name)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as tmp:
        for app in ("poisson", "mergesort"):
            with scoped_registry():
                result = registry.get(app).run(machine=machine, trace=True)
                path = Path(tmp) / f"{app}.trace.json"
                data = export_chrome_trace(result.tracer, path)
                report = critical_path(result.tracer)
                drift = abs(report.length - result.elapsed)
                ok = drift <= 1e-9 * max(result.elapsed, 1.0)
                recorded = len(get_registry().names())
                status = "ok" if ok else "FAIL"
                print(
                    f"[{status}] {app}: {len(data['traceEvents'])} trace events "
                    f"exported and validated; critical path {report.length:.6g}s "
                    f"vs makespan {result.elapsed:.6g}s; {recorded} metrics recorded"
                )
                if not ok:
                    failures += 1
    if failures:
        print(f"obs smoke: {failures} check(s) failed", file=sys.stderr)
        return 1
    print("obs smoke: all checks passed")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observe a traced archetype run: summary, critical path, "
        "Chrome/Perfetto export, model comparison.",
    )
    parser.add_argument(
        "app",
        nargs="?",
        default="poisson",
        choices=registry.names(),
        help="registered application to run (default: poisson)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        metavar="N",
        help="rank count (default: the app's registered nprocs)",
    )
    parser.add_argument(
        "--machine",
        default="ibm-sp",
        metavar="NAME",
        help=f"machine model: {', '.join(list_machines())} (default: ibm-sp)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="trace summary, Gantt, comm matrix, and metrics (default action)",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="longest virtual-time chain and per-rank activity breakdown",
    )
    parser.add_argument(
        "--export-chrome",
        metavar="PATH",
        help="write a Chrome trace-event JSON file (open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--compare-model",
        action="store_true",
        help="measured makespan vs the app's closed-form model prediction",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: run poisson+mergesort, export+validate traces, "
        "check the critical-path invariant",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke(args.machine)

    spec = registry.get(args.app)
    params = {}
    if args.procs is not None:
        if "nprocs" not in spec.defaults:
            parser.error(
                f"{spec.name} takes no --procs: its rank count follows from its stages"
            )
        if args.procs < 1:
            parser.error("--procs must be >= 1")
        params["nprocs"] = args.procs
    if args.compare_model and spec.model is None:
        modelled = [s.name for s in registry.specs() if s.model is not None]
        parser.error(
            f"{spec.name} has no model to compare against; "
            f"apps with one: {', '.join(modelled)}"
        )
    machine = get_machine(args.machine)
    wants_report = args.summary or args.critical_path or args.compare_model
    if not wants_report and not args.export_chrome:
        args.summary = True

    with scoped_registry():
        result = spec.run(params, machine=machine, trace=True)
        sections: list = []
        if args.summary:
            sections.append(lambda: _print_summary(result, spec.description))
        if args.critical_path:
            sections.append(lambda: _print_critical_path(result))
        if args.compare_model:
            predicted = spec.predict(params, machine)
            sections.append(lambda: _print_comparison(result, predicted))
        for i, section in enumerate(sections):
            if i:
                print()
                print("-" * 64)
            section()
        if args.export_chrome:
            data = export_chrome_trace(result.tracer, args.export_chrome)
            print(
                f"wrote {len(data['traceEvents'])} trace events to "
                f"{args.export_chrome} (open in https://ui.perfetto.dev)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
