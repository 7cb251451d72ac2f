"""Command-line entry point: regenerate a paper figure from the shell.

Usage::

    python -m repro.bench fig06            # Figure 6 at default scale
    python -m repro.bench fig17 --json out.json
    python -m repro.bench overlap          # blocking vs overlapped A/B
    python -m repro.bench pipeline         # farm-width throughput/latency
    python -m repro.bench tune             # tuned vs default makespan
    python -m repro.bench all              # every command, reduced scale,
                                           #   writes BENCH_FIGURES.json
    python -m repro.bench list

Everything here is *virtual* time on a modelled machine, so every number
is deterministic: ``all`` regenerates the committed ``BENCH_FIGURES.json``
byte for byte (a tier-1 test holds it to that).  Host seconds — what the
simulator, the process engine or the server cost to run — are measured
by ``perfbench`` and ``make bench-pairs`` and nowhere in this package.

Each command is one :class:`Command` row of :data:`COMMANDS` — its
experiment, description, machine models and reduced ``all`` scale,
declared once.  A figure command runs the corresponding experiment (a
sweep of registered apps, :mod:`repro.bench.figures`), prints the
speedup table and an ASCII plot, and optionally writes the series as
JSON.  ``overlap`` compares blocking and overlapped ghost exchange on
the mesh apps.  ``pipeline`` sweeps the image pipeline's blur-farm width
and reports throughput and per-frame latency on both modelled machines.
``tune`` runs exhaustive autotuning searches (:mod:`repro.bench.tune`)
over the modern machine models and reports tuned-vs-default makespans,
prediction error, and prune hit-rates.  ``all`` runs every one of them
at a reduced problem scale.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from typing import NamedTuple

from repro.bench import figures
from repro.bench import tune as tune_bench
from repro.bench.harness import SpeedupCurve
from repro.bench.report import format_curves, render_ascii_plot

#: default output of ``python -m repro.bench all``
ARTIFACT = "BENCH_FIGURES.json"


def curves_to_json(curves: list[SpeedupCurve]) -> list[dict]:
    return [
        {
            "label": c.label,
            "points": [
                {"procs": p.procs, "t_seq": p.t_seq, "t_par": p.t_par, "speedup": p.speedup}
                for p in c.points
            ],
        }
        for c in curves
    ]


def render_pipeline_table(rows: list[dict]) -> str:
    lines = [
        "image pipeline: throughput/latency vs blur-farm width (virtual time)",
        f"{'machine':>14} {'width':>5} {'P':>3} {'makespan':>12} "
        f"{'items/s':>12} {'latency':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r['machine']:>14} {r['width']:>5} {r['procs']:>3} "
            f"{r['makespan']:>12.6g} {r['throughput']:>12.6g} {r['latency']:>12.6g}"
        )
    return "\n".join(lines)


def render_overlap_table(rows: list[dict]) -> str:
    lines = [
        "blocking vs overlapped ghost exchange (virtual makespan, seconds)",
        f"{'app':>8} {'machine':>14} {'P':>3} {'blocking':>12} {'overlapped':>12} {'ratio':>7}",
    ]
    for r in rows:
        lines.append(
            f"{r['app']:>8} {r['machine']:>14} {r['procs']:>3} "
            f"{r['blocking']:>12.6g} {r['overlapped']:>12.6g} {r['ratio']:>7.3f}"
        )
    return "\n".join(lines)


class Command(NamedTuple):
    """One ``python -m repro.bench`` command, declared once."""

    #: ``run(**params)``: speedup curves (a figure) or rows (an ablation)
    run: Callable[..., list]
    description: str
    #: the machine model(s) the experiment's defaults run on
    machines: tuple[str, ...]
    #: the reduced problem scale of the ``all`` sweep — the sizes the test
    #: suite exercises, so the sweep finishes in seconds while preserving
    #: every figure's shape claim
    fast: dict
    #: ``render(rows) -> table`` for an ablation; ``None`` for a figure,
    #: which prints its speedup curves
    render: Callable[[list], str] | None = None
    #: ``check(rows)`` lists what is wrong with the result
    check: Callable[[list], list[str]] | None = None

    @property
    def is_figure(self) -> bool:
        return self.render is None


_BOTH_MACHINES = tuple(m.name for m in figures.OVERLAP_MACHINES)

#: every runnable command, in the order ``all`` runs them
COMMANDS: dict[str, Command] = {
    "fig06": Command(
        figures.figure06_mergesort,
        "traditional vs one-deep mergesort (Delta)",
        ("intel-delta",),
        {"n": 1 << 14, "procs": (1, 4, 16)},
    ),
    "fig12": Command(
        figures.figure12_fft2d,
        "2-D FFT (IBM SP)",
        ("ibm-sp",),
        {"shape": (64, 64), "repeats": 2, "procs": (1, 4, 16)},
    ),
    "fig15": Command(
        figures.figure15_poisson,
        "Poisson solver (IBM SP)",
        ("ibm-sp",),
        {"nx": 128, "ny": 128, "iters": 5, "procs": (1, 4, 16)},
    ),
    "fig16": Command(
        figures.figure16_cfd,
        "2-D CFD (Delta)",
        ("intel-delta",),
        {"nx": 128, "ny": 128, "steps": 2, "procs": (1, 4, 16)},
    ),
    "fig17": Command(
        figures.figure17_fdtd,
        "3-D FDTD (IBM SP)",
        ("ibm-sp",),
        {"n": 16, "steps": 2, "procs": (1, 8, 16, 18)},
    ),
    "fig18": Command(
        figures.figure18_spectral,
        "spectral flow vs 5-proc base (IBM SP)",
        ("ibm-sp-small-mem",),
        {"nr": 128, "nz": 256, "steps": 1, "procs": (5, 10, 20), "base_procs": 5},
    ),
    "overlap": Command(
        figures.overlap_ablation,
        "blocking vs overlapped ghost exchange makespan",
        _BOTH_MACHINES,
        {"procs": 4},
        render_overlap_table,
    ),
    "pipeline": Command(
        figures.pipeline_farm,
        "image pipeline throughput/latency vs blur-farm width",
        _BOTH_MACHINES,
        {"widths": (1, 2, 4), "items": 16, "shape": (16, 16)},
        render_pipeline_table,
    ),
    "tune": Command(
        tune_bench.run_ablation,
        "autotuned vs default virtual makespan, exhaustive "
        "search (predicted-vs-measured error and prune hit-rate per case)",
        tune_bench.MACHINES,
        {},
        tune_bench.render_table,
        tune_bench.check_rows,
    ),
}


def execute(name: str, params: dict, plot: bool = False) -> tuple[list[dict], list[str]]:
    """Run one command and print its table; returns its JSON series and
    what its check found wrong."""
    command = COMMANDS[name]
    result = command.run(**params)
    if command.is_figure:
        print(format_curves(f"{name} — {command.description}", result))
        if plot:
            print()
            print(render_ascii_plot(result))
        series = curves_to_json(result)
    else:
        print(command.render(result))
        series = [r if isinstance(r, dict) else r.to_json() for r in result]
    return series, command.check(result) if command.check else []


def finish(payload, problems: list[str], json_path: str | None) -> int:
    """Every command ends here: a failed check prints its problems,
    writes nothing and exits 1."""
    for p in problems:
        print(f"FAIL: {p}")
    if problems:
        return 1
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"written to {json_path}")
    return 0


def run_all(json_path: str) -> int:
    """Sweep every command at reduced scale and write the JSON artifact."""
    report: dict = {"artifact": ARTIFACT.removesuffix(".json"), "figures": {}}
    problems: list[str] = []
    for name, command in COMMANDS.items():
        series, bad = execute(name, command.fast)
        print()
        problems += bad
        if name == "tune":
            report["tune"] = {
                "description": command.description,
                "machines": list(command.machines),
                "rows": series,
            }
            continue
        params = {k: list(v) if isinstance(v, tuple) else v for k, v in command.fast.items()}
        report["figures"][name if command.is_figure else f"fig_{name}"] = {
            "description": command.description,
            "machine": ", ".join(command.machines),
            "params": params,
            "curves" if command.is_figure else "rows": series,
        }
    return finish(report, problems, json_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a figure from Massingill & Chandy (IPPS 1999).",
    )
    parser.add_argument(
        "figure",
        choices=[*COMMANDS, "all", "list"],
        help="figure or ablation to run (see 'list'), 'all' for the "
        f"reduced-scale sweep of every one (writes {ARTIFACT}), or 'list' "
        "to enumerate them",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the series as JSON")
    parser.add_argument(
        "--no-plot", action="store_true", help="table only, skip the ASCII plot"
    )
    args = parser.parse_args(argv)

    if args.figure == "list":
        for name, command in COMMANDS.items():
            print(f"  {name}: {command.description}")
        return 0
    if args.figure == "all":
        return run_all(args.json or ARTIFACT)
    series, problems = execute(args.figure, {}, plot=not args.no_plot)
    return finish(series, problems, args.json)


if __name__ == "__main__":
    sys.exit(main())
