"""Autotuner CLI.

::

    python -m repro.tune search --app poisson,fft2d --machine numa-epyc,cloud-25gbe
    python -m repro.tune show
    python -m repro.tune smoke          # (also: python -m repro.tune --smoke)

``search`` tunes and persists winners, which every named-app run
(``registry.get(app).run``, the job server) then applies; ``show``
prints the catalog; ``smoke`` is the CI gate: a tiny end-to-end search
in a throwaway catalog that asserts a catalog entry is written, a re-run
is a catalog hit that measures nothing, and the tuned configuration
reproduces the untuned run's canonical digest bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from repro.tune import catalog
from repro.tune.search import SearchOutcome, search


def _parse_override(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep:
        raise SystemExit(f"--param wants key=value, got {text!r}")
    try:
        return key, json.loads(raw)
    except ValueError:
        return key, raw


def _print_outcome(outcome: SearchOutcome, verbose: bool) -> None:
    e = outcome.entry
    tag = "catalog hit" if outcome.cache_hit else "searched"
    counts = outcome.counts()
    print(
        f"{outcome.app} @ {outcome.machine} (P={outcome.nprocs}): "
        f"{e.config.describe()}  makespan {e.measured:.6g} "
        f"(default {e.default_measured:.6g}, speedup {outcome.speedup:.3f}x) "
        f"[{tag}]"
    )
    if not outcome.cache_hit:
        line = (
            f"  candidates: {counts['generated']} generated, "
            f"{counts['pruned']} pruned, {counts['measured']} measured, "
            f"{counts['rejected']} digest-rejected"
        )
        if outcome.prune_accuracy is not None:
            line += f", prune accuracy {outcome.prune_accuracy:.2f}"
        print(line)
    if verbose:
        for r in outcome.reports:
            measured = "-" if r.measured is None else f"{r.measured:.6g}"
            predicted = "-" if r.predicted is None else f"{r.predicted:.6g}"
            print(
                f"    {r.status:>13}  predicted {predicted:>12}  "
                f"measured {measured:>12}  {r.config.describe()}"
            )


def _cmd_search(args: argparse.Namespace) -> int:
    overrides = dict(_parse_override(t) for t in args.param or [])
    for app in args.app.split(","):
        for machine in args.machine.split(","):
            outcome = search(
                app.strip(),
                machine.strip(),
                nprocs=args.nprocs,
                overrides=overrides or None,
                mode=args.mode,
                exhaustive=args.exhaustive,
                force=args.force,
            )
            _print_outcome(outcome, args.verbose)
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    root = catalog.root()
    files = sorted(root.glob("*.json")) if root.is_dir() else []
    shown = 0
    for path in files:
        app, sep, machine = path.stem.partition("--")
        if not sep:
            continue
        if args.app and app != args.app:
            continue
        if args.machine and machine != args.machine:
            continue
        for nprocs, entry in sorted(catalog.load(app, machine).items()):
            print(
                f"{app} @ {machine} (P={nprocs}): {entry.config.describe()}  "
                f"makespan {entry.measured:.6g} "
                f"(default {entry.default_measured:.6g})"
            )
            shown += 1
    if not shown:
        print(f"no tuned entries under {root}")
    return 0


_SMOKE_MACHINES = ("numa-epyc", "cloud-25gbe")


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.apps import registry
    from repro.tune.space import canonical_digest

    def check(label: str, ok: bool) -> None:
        print(("PASS " if ok else "FAIL ") + label)
        if not ok:
            raise SystemExit(1)

    with tempfile.TemporaryDirectory(prefix="repro-tune-smoke-") as tmp, catalog.rooted(tmp):
        # every registered app at its verify_overrides sizes, so the
        # smoke search stays in CI-seconds territory
        plan = [(spec, m) for spec in registry.specs() for m in _SMOKE_MACHINES]
        for spec, machine in plan:
            app, overrides = spec.name, spec.verify_overrides
            first = search(app, machine, overrides=overrides, exhaustive=True)
            check(
                f"{app} @ {machine}: catalog entry written",
                catalog.entry_path(app, machine).is_file()
                and not first.cache_hit,
            )
            check(
                f"{app} @ {machine}: tuned makespan <= default "
                f"({first.entry.measured:.6g} vs {first.entry.default_measured:.6g})",
                first.entry.measured <= first.entry.default_measured,
            )
            second = search(app, machine, overrides=overrides, exhaustive=True)
            check(
                f"{app} @ {machine}: re-run is a catalog hit (no re-measuring)",
                second.cache_hit and not second.reports,
            )
            # End-to-end digest check through the public consultation
            # path: a registry run that picks up the tuned config must
            # reproduce the untuned run's canonical value bit-for-bit.
            tuned_run = spec.run(overrides, machine=machine)
            default_run = spec.run(
                overrides, machine=machine, tuned=catalog.TunedConfig()
            )
            check(
                f"{app} @ {machine}: tuned run digest == untuned run digest",
                canonical_digest(spec, tuned_run)
                == canonical_digest(spec, default_run),
            )
    print("tune smoke: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--smoke" in argv:  # flag alias for the smoke subcommand
        argv = ["smoke"]
    parser = argparse.ArgumentParser(prog="python -m repro.tune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="tune apps for machines, persist winners")
    p.add_argument("--app", default="poisson,fft2d", help="comma-separated app names")
    p.add_argument(
        "--machine", default="numa-epyc,cloud-25gbe", help="comma-separated machines"
    )
    p.add_argument("--nprocs", type=int, default=None, help="rank count to tune for")
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="app parameter override (repeatable)",
    )
    p.add_argument(
        "--mode",
        choices=("sequential", "parallel", "threads"),
        default="sequential",
        help="backend for candidate measurement (rankings are identical)",
    )
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="measure pruned candidates too and score the pruner",
    )
    p.add_argument("--force", action="store_true", help="re-measure on catalog hits")
    p.add_argument("--verbose", action="store_true", help="per-candidate report")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("show", help="print the tuned-config catalog")
    p.add_argument("--app", default=None)
    p.add_argument("--machine", default=None)
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser("smoke", help="CI smoke: search, hit, digest checks")
    p.set_defaults(fn=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
