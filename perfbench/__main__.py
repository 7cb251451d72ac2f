"""Command line of the benchmark (see ``perfbench/README.md``).

One run, as the driver makes it (prints one JSON result line last)::

    python3 -m perfbench --workload W --seed N --seconds S --trace 0|1

The whole set, each run in a fresh subprocess::

    python3 -m perfbench --seed N --out FILE [--smoke]

Tools::

    python3 -m perfbench --compare A.json B.json
    python3 -m perfbench --pin
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from perfbench import spec


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds of the one run (--workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="FILE", help="also write the run's full report here")
    parser.add_argument("--out", metavar="FILE", help="run every workload; write the result set here")
    parser.add_argument("--smoke", action="store_true", help="a <= 20 s pass over every workload")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--pin", action="store_true", help="regenerate perfbench/expected.json")
    args = parser.parse_args(argv)
    if args.seconds is not None and not args.workload:
        parser.error("--seconds goes with --workload: a set's run length is BENCHMARK.json's")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.compare:
        from perfbench import compare

        return compare.main(*args.compare)
    if args.pin:
        from perfbench import hermetic, pins

        scratch = hermetic.make_scratch("pin")
        try:
            hermetic.import_repro()
            pinned = pins.regenerate()
        finally:
            scratch.remove()
        print(f"REGENERATED {pins.PATH} ({len(pinned)} pins).", file=sys.stderr)
        print("Every earlier result is void: this is a benchmark change, not a fix.", file=sys.stderr)
        return 0
    if args.workload:
        from perfbench import run

        seconds = spec.load()["run_seconds"] if args.seconds is None else args.seconds
        # a terminated run still stops its servers: unwind through ``finally``
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        result = run.one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        line = result.line()
        if args.detail:
            with open(args.detail, "w") as fh:
                json.dump(result.report(), fh)
        print(json.dumps(line))
        return 0
    from perfbench import suite

    return suite.main(args.seed, args.out, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
