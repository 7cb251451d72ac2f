"""``python3 -m perfbench --compare A.json B.json``: B against A.

One verdict per (end-to-end metric, workload), by the bound
``BENCHMARK.json`` fixes for the metric:

- ``worse`` / ``better``: B's median differs from A's by more than the bound;
- ``same``: it does not;
- ``unresolved``: the run-to-run spread of either side (distance between
  quartiles as a share of the median) is wider than the bound, so the
  medians cannot be told apart — unless every run of B reads better than
  every run of A (``better``) or worse than every run of A (``worse``).

Every workload prints every end-to-end metric (the driver's contract), so
some rows restate another of their workload (:data:`DERIVED`); they are
shown, marked, and left out of the tally and the exit status, so that one
regression is one ``worse``.

``worse`` too, whatever the timings say: a rise in the share of failed
operations, and an exact-repeat count that differs.  A note says when the
host itself was faster or slower for one set (every run records a
calibration loop).  Exit status 1 on any ``worse`` and when either set is
marked invalid.
"""

from __future__ import annotations

import json
import math
from typing import Any

from perfbench import cases, spec, stats

#: difference in host speed between two sets worth a note
HOST_SPEED_NOTE = 0.10

#: per-layer metrics that must repeat exactly between runs of one commit
EXACT_COUNTS = (
    "runtime.msgs", "runtime.bytes", "runtime.blocks", "kernels.loops", "kernels.groups",
    "kernels.tiles", "kernels.exchanges_hoisted", "comm.redistribute_bytes",
    "machines.predict_error_max",
)

#: end-to-end rows that restate another row of the same run, per workload
#: family: serve ``run_s`` is burst jobs / ``throughput_rps``; the sim
#: ``lat_*`` and ``throughput_rps`` are other statistics of the per-case
#: seconds ``run_s`` sums
DERIVED = {
    "serve": {"run_s": "throughput_rps"},
    "sim": {"lat_p50_ms": "run_s", "lat_p90_ms": "run_s", "throughput_rps": "run_s"},
}


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change of the median; positive = B worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = stats.median(a), stats.median(b)
    if med_a:
        change = sign * (med_b - med_a) / abs(med_a)
    else:  # no base to take a share of: any move away from 0 is unbounded
        change = sign * math.copysign(math.inf, med_b) if med_b else 0.0
    if max(stats.spread(a), stats.spread(b)) > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "better", change
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[dict], list[str]]:
    """Rows of verdicts, and notes, for two result sets."""
    rows: list[dict] = []
    notes: list[str] = []
    for workload in spec.workload_names():
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            notes.append(f"{workload}: missing from {'A' if wa is None else 'B'}")
            continue
        derived = DERIVED["sim" if workload in cases.SIM_CASES else "serve"]
        for name, declared in spec.end_to_end().items():
            va = [run["metrics"][name] for run in wa["runs"]]
            vb = [run["metrics"][name] for run in wb["runs"]]
            outcome, change = verdict(va, vb, declared["better"], declared["bound"])
            rows.append(
                {
                    "workload": workload, "metric": name, "unit": declared["unit"],
                    "a": stats.median(va), "b": stats.median(vb), "change": change,
                    "bound": declared["bound"], "verdict": outcome,
                    "derived_from": derived.get(name),
                }
            )
        fa, fb = _failed_share(wa), _failed_share(wb)
        rows.append(
            {
                "workload": workload, "metric": "failed/attempted", "unit": "-",
                "a": fa, "b": fb, "change": fb - fa, "bound": 0.0,
                "verdict": "worse" if fb > fa else "same", "derived_from": None,
            }
        )
        la, lb = wa.get("per_layer") or {}, wb.get("per_layer") or {}
        for name in EXACT_COUNTS:
            if name in la and name in lb and la[name] != lb[name]:
                rows.append(
                    {
                        "workload": workload, "metric": name, "unit": "exact",
                        "a": la[name], "b": lb[name], "change": lb[name] - la[name],
                        "bound": 0.0, "verdict": "worse", "derived_from": None,
                    }
                )
        ca, cb = _calibration(wa), _calibration(wb)
        if ca and cb and abs(cb - ca) / ca > HOST_SPEED_NOTE:
            notes.append(
                f"{workload}: the host itself was {abs(cb - ca) / ca:.0%} "
                f"{'slower' if cb > ca else 'faster'} for B (calibration loop "
                f"{ca:.1f} -> {cb:.1f} ms): CPU-bound rows moved with it"
            )
    return rows, notes


def _calibration(workload: dict[str, Any]) -> float | None:
    """Median over the runs of the host-speed calibration they recorded."""
    values = [run.get("detail", {}).get("provenance", {}).get("calibration_ms") for run in workload["runs"]]
    return stats.median(values) if all(values) else None


def _failed_share(workload: dict[str, Any]) -> float:
    attempted = sum(run["attempted"] for run in workload["runs"])
    return sum(run["failed"] for run in workload["runs"]) / max(attempted, 1)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows, notes = compare(a, b)
    print(f"{'workload':<12} {'metric':<26} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  verdict")
    for row in rows:
        change = f"{row['change']:>+8.1%}" if row["bound"] else f"{row['change']:>+8.3g}"
        restates = f" (restates {row['derived_from']}: not counted)" if row["derived_from"] else ""
        print(
            f"{row['workload']:<12} {row['metric']:<26} {row['a']:>12.5g} {row['b']:>12.5g} "
            f"{change} {row['bound']:>6.0%}  {row['verdict']}{restates}"
        )
    for note in notes:
        print(f"note: {note}")
    invalid = [
        f"{side} is marked invalid: {result.get('invalid_because')}"
        for side, result in (("A", a), ("B", b)) if not result.get("valid", True)
    ]
    for line in invalid:
        print(f"INVALID: {line}")
    counts = {
        v: sum(row["verdict"] == v and not row["derived_from"] for row in rows)
        for v in ("better", "same", "worse", "unresolved")
    }
    print(" ".join(f"{name}={n}" for name, n in counts.items()))
    return 1 if counts["worse"] or invalid else 0
