"""The whole set: every workload, each run in a fresh subprocess.

For each workload: :data:`RUNS` untraced runs (the end-to-end metrics;
their medians are what ``--compare`` judges), then one traced pass (the
per-layer metrics).  Every metric is printed by name with its unit and
the set is written to ``--out`` with its provenance.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from perfbench import hermetic, spec, stats

#: untraced runs per workload in a set.  Fixed: ``--compare`` judges by
#: the spread between a set's runs, so two sets must hold equally many
RUNS = 5
SMOKE_SECONDS = 3.0
#: seconds a run may take before it is stopped (the contract's limit on one run)
RUN_TIMEOUT = 180.0
#: seconds a stopped run gets to shut its servers down before it is killed
STOP_GRACE = 15.0


def one_run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict[str, Any]:
    """One ``python3 -m perfbench --workload ...`` subprocess; its full report."""
    hermetic.OUT.mkdir(parents=True, exist_ok=True)
    detail = hermetic.OUT / f"report-{workload}-{int(traced)}.json"
    detail.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "perfbench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)), "--detail", str(detail),
    ]
    child = subprocess.Popen(
        command + (["--smoke"] if smoke else []), cwd=hermetic.ROOT,
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        child.wait(RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{' '.join(command)} overstayed {RUN_TIMEOUT:g} s") from None
    finally:
        _stop_group(child)
    if child.returncode != 0 or not detail.exists():
        raise RuntimeError(f"{' '.join(command)} exited {child.returncode}")
    report = json.loads(detail.read_text())
    detail.unlink()
    return report


def _stop_group(child: subprocess.Popen) -> None:
    """End *child* and whatever it started.  SIGTERM first: a run unwinds on
    it and stops its servers, which sit in sessions of their own; what is
    left of its process group (a hung sim interpreter) is then killed."""
    if child.poll() is None:
        os.killpg(child.pid, signal.SIGTERM)
        try:
            child.wait(STOP_GRACE)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()


def problems(workload: str, report: dict[str, Any]) -> list[str]:
    """Why *report* (one run's) makes the set invalid, if it does."""
    found = []
    if not report["valid"]:
        found.append(f"{workload}: generator lagged or sample too short")
    if report["failed"]:
        found.append(f"{workload}: {report['failed']} failed operation(s): {report['errors'][:3]}")
    if report["detail"].get("leaks"):
        found.append(f"{workload}: leaked {report['detail']['leaks']}")
    return found


def main(seed: int, out: str | None, smoke: bool) -> int:
    seconds = SMOKE_SECONDS if smoke else float(spec.load()["run_seconds"])
    names = spec.workload_names()
    started = time.time()
    result: dict[str, Any] = {
        "schema": 1,
        "smoke": smoke,
        "provenance": hermetic.provenance(seed, seconds, []),
        "phases": {
            "run_seconds": seconds,
            "untraced_runs": 1 if smoke else RUNS,
            "traced_passes": 0 if smoke else 1,
        },
        "invalid_because": [],
        "workloads": {},
    }
    if smoke:  # two at a time: a smoke pass claims no number, only that everything runs
        with ThreadPoolExecutor(max_workers=2) as pool:
            reports = pool.map(lambda w: one_run(w, seed, seconds, False, True), names)
            untraced = {name: [report] for name, report in zip(names, reports)}
    for workload in names:
        entry = result["workloads"][workload] = {
            "runs": untraced[workload] if smoke
            else [one_run(workload, seed, seconds, False, False) for _ in range(RUNS)]
        }
        print(f"== {workload}: end to end ({len(entry['runs'])} run(s), medians)")
        for name, metric in spec.end_to_end().items():
            values = [run["metrics"][name] for run in entry["runs"]]
            print(
                f"{name:<44} {stats.median(values):>14.6g} {metric['unit']:<6} "
                f"spread {stats.spread(values):.1%}"
            )
        if not smoke:
            traced = one_run(workload, seed, seconds, True, False)
            entry["per_layer"] = traced["metrics"]
            entry["traced"] = {k: traced[k] for k in ("attempted", "failed", "detail")}
            print(f"== {workload}: per layer (traced pass)")
            for name, metric in spec.per_layer().items():
                print(f"{name:<44} {traced['metrics'][name]:>14.6g} {metric['unit']}")
        for report in entry["runs"] + ([] if smoke else [traced]):
            result["invalid_because"] += problems(workload, report)
    result["valid"] = not result["invalid_because"]
    result["wall_seconds"] = time.time() - started
    verdict = "valid" if result["valid"] else "INVALID: " + "; ".join(result["invalid_because"])
    print(f"== {verdict} ({result['wall_seconds']:.0f} s)")
    if out:
        Path(out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0 if result["valid"] else 1
