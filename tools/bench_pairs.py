#!/usr/bin/env python3
"""Paired parent/change runs of the bench of record (``make bench-pairs``).

The ``choosing-metrics`` section-8 rule as a command: check the base commit
out into a temp dir (``git archive``), then for each workload run ::

    python3 -m perfbench --workload W --seed S --seconds 25 --trace 0

on the base and on the working tree alternately — which side goes first
alternates from pair to pair, and every pair has its own seed.  Prints, per
end-to-end metric, each side's median and quartiles, wins/ties and a verdict,
and writes every run (with ``host_cpus``) to a JSON file.  A run whose
process crashes or prints no result is written as a row too (``"crashed":
true``, exit status, the end of its stderr); its pair is left out of both
sides' statistics, the table says so, the remaining runs are still made and
written, and the command exits 1.

Each run also writes perfbench's ``--detail`` report to a temp file, of
which its row keeps the host speed (``provenance.calibration_ms``).  Beside
the quartiles the table prints each side's median host speed per workload
and, per metric, the lowest and highest within-pair change/base ratio — so
an artifact shows whether a verdict that flipped went with the host.

Verdicts (direction and bound per metric come from ``BENCHMARK.json``):

- ``better``: the change wins >= 9/10 of all pairs (ties count for neither
  side) and the medians differ by more than the distance between the base's
  quartiles — the only verdict that supports a claimed gain;
- ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
- ``unresolved``: neither, and the base's quartile distance is itself wider
  than the bound, so "no regression" cannot be told from noise;
- ``same``: everything else.

Beside the verdict stands the **spread rule** the driver's benchmark check
applies before it compares anything: the distance between the change's
quartiles must not exceed the metric's bound (25 %) times the *base's*
median, or the runs are "too wide to tell" and the change is refused
whatever its medians say.  A metric whose scale the change moves a long way
(a burst rate freed of a stall) can fail it while being better on every
pair; the column prints the change's quartile distance over that limit and
``WIDE`` where it is exceeded, and the command exits 1.

After the runs, one ``base -> change`` row — date, the two commits, the
medians of the four headline metrics (bold where the verdict is ``better``)
— is appended to ``BENCH_TRAJECTORY.md`` (``--trajectory``; ``''`` skips
it).  The file is only ever appended to: a row is what one artifact
measured on its day, and only a within-row ratio is a measurement.
``--from-artifact FILE...`` appends the rows of artifacts already written
and runs nothing (how the file was seeded from the committed
``BENCH_PR*_pairs.json``).

This script only *calls* the benchmark's command line; it imports nothing
from ``perfbench/`` and writes nothing under it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in *tree*, as the fields of its row: what its JSON
    result line (the last line it prints) says, with the host speed its
    ``--detail`` report measured (``provenance.calibration_ms``, ``None``
    when the report holds none), or ``{"crashed": True, ...}`` with the
    exit status and the last 20 lines of stderr when the process died or
    printed no result."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-detail-") as tmp:
        detail = Path(tmp) / "detail.json"
        done = subprocess.run(
            [
                "python3", "-m", "perfbench", "--workload", workload,
                "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
                "--detail", str(detail),
            ],
            cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )  # fmt: skip
        try:
            provenance = json.loads(detail.read_text())["detail"]["provenance"]
            calibration = provenance.get("calibration_ms")
        except (OSError, KeyError, TypeError, ValueError):
            calibration = None
    if done.returncode == 0:
        try:
            line = json.loads(done.stdout.strip().splitlines()[-1])
            return {
                "correct": line["correct"], "attempted": line["attempted"],
                "failed": line["failed"],
                "metrics": {k: v["value"] for k, v in line["metrics"].items()},
                "calibration_ms": calibration,
            }  # fmt: skip
        except (IndexError, KeyError, TypeError, ValueError):
            pass  # printed no result line: reported like a crash
    return {
        "crashed": True, "returncode": done.returncode,
        "stderr": done.stderr.splitlines()[-20:],
    }  # fmt: skip


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def judge(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Section 8 over paired values (``base[i]`` ran beside ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0  # signed so that lower is better
    wins = sum(sign * c < sign * b for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
    gain = sign * (bmed - cmed)  # positive: the change's median is better
    if wins >= 0.9 * len(base) and gain > bq3 - bq1:
        verdict = "better"
    elif -gain > bound * abs(bmed):
        verdict = "worse"
    elif bq3 - bq1 > bound * abs(bmed):
        verdict = "unresolved"
    else:
        verdict = "same"
    limit = bound * abs(bmed)
    ratios = [c / b for b, c in zip(base, change) if b]
    return {
        "base": {"q1": bq1, "median": bmed, "q3": bq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "wins": wins, "ties": ties, "pairs": len(base), "verdict": verdict,
        "spread": {"change_iqr": cq3 - cq1, "limit": limit, "ok": cq3 - cq1 <= limit},
        "ratio": {"min": min(ratios), "max": max(ratios)} if ratios else None,
    }  # fmt: skip


def summarise(rows: list[dict], workloads: list[str], declared: dict) -> tuple[dict, bool]:
    """Print the table; ``(summary per workload, anything wrong)``."""
    summary: dict[str, dict] = {}
    broken = False
    print(
        f"{'workload':<11} {'metric':<15} {'base q1/med/q3':>26} {'change q1/med/q3':>26}"
        f"  {'change/base':>13}  wins ties  {'verdict':<10}"
        "  spread (change iqr / bound x base median)"
    )
    for workload in workloads:
        mine = [r for r in rows if r["workload"] == workload]
        # a crashed run takes its pair out of both sides: the rule compares pairs
        crashed = sorted({r["pair"] for r in mine if r.get("crashed")})
        mine = [r for r in mine if r["pair"] not in crashed]
        if crashed:
            print(f"{workload}: A RUN CRASHED IN PAIR(S) {crashed}: left out of both sides below")
            broken = True
        if not mine:
            summary[workload] = {"crashed_pairs": crashed, "metrics": {}}
            continue
        summary[workload] = {
            "crashed_pairs": crashed,
            "failed": {s: sum(r["failed"] for r in mine if r["side"] == s) for s in ("base", "change")},
            "all_correct": all(r["correct"] for r in mine),
            # each side's median host speed: a verdict that flips with it
            # was the host's, not the change's
            "calibration_ms": {s: _median_calibration(mine, s) for s in ("base", "change")},
            "metrics": {},
        }
        speed = summary[workload]["calibration_ms"]
        print(
            f"{workload:<11} {'calibration_ms':<15} {_fmt(speed['base']):>26} "
            f"{_fmt(speed['change']):>26}  (median host speed per side)"
        )
        for name, spec in declared.items():
            sides = {
                s: [r["metrics"][name] for r in mine if r["side"] == s] for s in ("base", "change")
            }
            result = judge(sides["base"], sides["change"], spec["better"], spec["bound"])
            summary[workload]["metrics"][name] = result
            b, c, spread = result["base"], result["change"], result["spread"]
            ratio = result["ratio"]
            span = f"{ratio['min']:.3f}-{ratio['max']:.3f}" if ratio else "-"
            print(
                f"{workload:<11} {name:<15} "
                f"{b['q1']:>8.4g}/{b['median']:>8.4g}/{b['q3']:>8.4g} "
                f"{c['q1']:>8.4g}/{c['median']:>8.4g}/{c['q3']:>8.4g}  {span:>13}  "
                f"{result['wins']:>2}/{result['pairs']:<2} {result['ties']:>3}  {result['verdict']:<10}  "
                f"{spread['change_iqr']:.3g} / {spread['limit']:.3g}{'' if spread['ok'] else '  WIDE'}"
            )
        if summary[workload]["failed"]["change"] or not summary[workload]["all_correct"]:
            print(f"{workload}: FAILED OPERATIONS OR INCORRECT RUNS: {summary[workload]['failed']}")
            broken = True
        broken |= any(
            m["verdict"] == "worse" or not m["spread"]["ok"]
            for m in summary[workload]["metrics"].values()
        )
    return summary, broken


def _median_calibration(rows: list[dict], side: str) -> float | None:
    values = [r["calibration_ms"] for r in rows if r["side"] == side and r.get("calibration_ms")]
    return statistics.median(values) if values else None


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


#: the trajectory's columns: the metric each workload exists to show
HEADLINE = (
    ("sim_comm", "run_s"),
    ("sim_kernel", "run_s"),
    ("serve_miss", "lat_p50_ms"),
    ("serve_hit", "throughput_rps"),
)
_TRAJECTORY_HEAD = (
    "# Perf trajectory\n\n"
    "One row per `make bench-pairs` artifact, appended by `tools/bench_pairs.py`:\n"
    "base → change medians over alternating pairs on this 2-CPU host, **bold** where\n"
    "the paired rule says `better`.  Read rows, not columns: the same code reads\n"
    "differently on different days, so only a within-row ratio is a measurement.\n\n"
    "| artifact | date | base → change | "
    + " | ".join(f"`{w}` `{m}`" for w, m in HEADLINE)
    + " |\n|---|---|---|"
    + "---|" * len(HEADLINE)
    + "\n"
)


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def trajectory_row(label: str, artifact: dict, change: str, date: str) -> str:
    """The artifact's line of the trajectory table."""
    cells = []
    for workload, metric in HEADLINE:
        summary = artifact["summary"].get(workload, {})
        result = summary.get("metrics", {}).get(metric)
        if result is None:  # workload not run, or every pair crashed
            cell = "—"
        else:
            cell = f"{result['base']['median']:.4g} → {result['change']['median']:.4g}"
            if result["verdict"] == "better":
                cell = f"**{cell}**"
        if summary.get("crashed_pairs"):
            cell += f" ({len(summary['crashed_pairs'])} pair(s) crashed)"
        cells.append(cell)
    return f"| `{label}` | {date} | {artifact['base'][:7]} → {change} | " + " | ".join(cells) + " |\n"


def append_trajectory(path: Path, row: str) -> None:
    """Add *row* below whatever *path* holds (the table head, if nothing)."""
    with open(path, "a") as fh:
        if fh.tell() == 0:
            fh.write(_TRAJECTORY_HEAD)
        fh.write(row)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="commit to compare the working tree against")
    parser.add_argument(
        "--from-artifact", nargs="+", metavar="FILE", type=Path,
        help="run nothing: append these artifacts' rows to the trajectory",
    )  # fmt: skip
    parser.add_argument("--trajectory", default=str(ROOT / "BENCH_TRAJECTORY.md"))
    parser.add_argument("--workloads", default="serve_miss serve_hit", help="space-separated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed-base", type=int, default=100, help="pair i runs seed SEED_BASE + i")
    parser.add_argument("--out", default="bench_pairs.json")
    args = parser.parse_args(argv)
    if args.from_artifact:
        for path in args.from_artifact:
            # an artifact that does not say where it ran is dated by the
            # commit that added it, which is also the change it measured
            added = _git("log", "--diff-filter=A", "--format=%h %as", "--", str(path)).split()
            artifact = json.loads(path.read_text())
            change, date = artifact.get("change") or added[0], artifact.get("date") or added[1]
            append_trajectory(Path(args.trajectory), trajectory_row(path.stem, artifact, change, date))
        return 0
    if not args.base:
        parser.error("--base is required")

    declared = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base_commit = subprocess.run(
        ["git", "rev-parse", args.base], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()
    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-base-") as tmp:
        archive = subprocess.Popen(["git", "archive", base_commit], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        if archive.wait():
            raise SystemExit(f"git archive {base_commit} failed")
        trees = {"base": Path(tmp), "change": ROOT}
        for workload in args.workloads.split():
            for pair in range(args.pairs):
                seed = args.seed_base + pair
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    rows.append(
                        {
                            "workload": workload, "pair": pair, "seed": seed, "side": side,
                            "first": order[0], **run_one(trees[side], workload, seed, args.seconds),
                        }
                    )  # fmt: skip
                    if rows[-1].get("crashed"):
                        told = f"CRASHED (exit {rows[-1]['returncode']}): " + " | ".join(
                            rows[-1]["stderr"][-3:]
                        )
                    else:
                        told = " ".join(f"{k}={v:.4g}" for k, v in rows[-1]["metrics"].items())
                    print(
                        f"{workload} pair {pair} seed {seed} {side:<6} {told}",
                        file=sys.stderr, flush=True,
                    )  # fmt: skip

    summary, broken = summarise(rows, args.workloads.split(), declared)
    artifact = {
        "base": base_commit,
        # the change is the working tree: HEAD, "+" when it differs from it
        "change": _git("rev-parse", "--short", "HEAD") + ("+" if _git("status", "--porcelain") else ""),
        "date": datetime.date.today().isoformat(),
        "host_cpus": len(os.sched_getaffinity(0)),
        "seconds": args.seconds, "pairs": args.pairs,
        "command": "python3 -m perfbench --workload W --seed S --seconds N --trace 0",
        "summary": summary, "rows": rows,
    }  # fmt: skip
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} runs to {args.out}")
    if args.trajectory:
        row = trajectory_row(Path(args.out).stem, artifact, artifact["change"], artifact["date"])
        append_trajectory(Path(args.trajectory), row)
        print(f"appended to {args.trajectory}: {row}", end="")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
