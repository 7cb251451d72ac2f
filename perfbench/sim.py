"""The sim workloads: the in-process library path, no server.

``registry.get(app).run(params, machine="ibm-sp")`` untraced on the
deterministic engine.  One run is :data:`perfbench.run.SETUPS` fresh
interpreters one after the other, each confined to one CPU: a cold sweep
over the workload's cases (set-up), then interleaved sweeps for its share
of ``--seconds``.  The seed chooses the order of the cases inside each
sweep.  A case's time is the *fastest* of all its runs: what the host adds
to a run only ever adds (README, findings).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from typing import Any

from perfbench import cases, pins, stats
from perfbench.hermetic import Scratch
from perfbench.run import end_to_end, nsetups

#: measured sweeps each interpreter makes at the least, however slow the host
MIN_SWEEPS = 2
#: seconds a child gets beyond those it was asked to measure; a child still
#: running then has hung (a scheduler or mailbox fault under test) and is killed
CHILD_GRACE = 45.0


# -- the child: one fresh interpreter ------------------------------------------


def sweep(
    workload: str, order: list[int], expected: dict, errors: list[str]
) -> dict[str, pins.CaseRun]:
    """Run every case once, in *order*, and check each against its pin
    (outside the timed region)."""
    sim_cases = cases.SIM_CASES[workload]
    runs: dict[str, pins.CaseRun] = {}
    for index in order:
        app, params = sim_cases[index]
        run = runs[app] = pins.run_case(app, params)
        error = run.mismatch(expected[cases.case_id(workload, app)])
        # outputs are large: keep only the timings, and free the cycles now,
        # or the peak resident set is set by when the collector last ran
        # (209-282 MiB across ten seeds on sim_kernel)
        run.result = None
        gc.collect()
        if error:
            errors.append(f"{app}: {error}")
    return runs


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.sim")
    parser.add_argument("--workload", required=True, choices=sorted(cases.SIM_CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true", help="one measured sweep")
    args = parser.parse_args(argv)

    # The deterministic engine runs one rank thread at a time, so a second
    # CPU adds nothing but wake-ups that cross cores, which cost 3-4 times
    # more and come and go by the second (README, findings): on two CPUs a
    # case's time is bimodal and says which regime the kernel was in.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from perfbench.hermetic import import_repro

    import_repro()
    expected = pins.load()
    ncases = len(cases.SIM_CASES[args.workload])
    errors: list[str] = []
    sweep(args.workload, list(range(ncases)), expected, errors)
    # CLOCK_MONOTONIC is one clock for every process of the host, so the
    # parent can subtract the instant it spawned this interpreter
    print(json.dumps({"event": "cold", "at": time.monotonic()}), flush=True)

    rng = random.Random(f"sweeps:{args.seed}")
    runs: dict[str, list[float]] = {app: [] for app, _ in cases.SIM_CASES[args.workload]}
    started = time.perf_counter()
    nsweeps = 0
    min_sweeps = 1 if args.smoke else MIN_SWEEPS
    while nsweeps < min_sweeps or time.perf_counter() - started < args.seconds:
        order = list(range(ncases))
        rng.shuffle(order)
        for app, run in sweep(args.workload, order, expected, errors).items():
            runs[app].append(run.host_s)
        nsweeps += 1
    print(
        json.dumps(
            {
                "event": "done",
                "runs": runs,
                "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "errors": errors,
            }
        ),
        flush=True,
    )
    return 0


# -- the parent ----------------------------------------------------------------


def _spawn(
    workload: str, seed: int, seconds: float, scratch: Scratch, smoke: bool
) -> tuple[float, dict]:
    """Run one child to its end; ``(spawn -> cold sweep done seconds, final
    report)``.  A child that outlives its deadline is killed and the run
    fails: a hung interpreter has no timings to report."""
    command = [
        sys.executable, "-m", "perfbench.sim", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    started = time.monotonic()
    child = subprocess.Popen(
        command + (["--smoke"] if smoke else []),
        env=scratch.env, cwd=scratch.path, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = child.communicate(timeout=seconds + CHILD_GRACE)
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"sim child hung: no report {seconds + CHILD_GRACE:g} s after its start"
        ) from None
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    lines = [json.loads(line) for line in out.splitlines()]
    if child.returncode != 0 or [line["event"] for line in lines] != ["cold", "done"]:
        raise RuntimeError(f"sim child failed (exit {child.returncode}): {out[-300:]!r}")
    return lines[0]["at"] - started, lines[1]


def run_untraced(
    workload: str, seed: int, seconds: float, scratch: Scratch, smoke: bool = False
) -> dict[str, Any]:
    """The end-to-end metrics of one sim run (*smoke*: one interpreter, one sweep)."""
    children = nsetups(smoke)
    reports = []
    setups: list[float] = []
    for k in range(children):
        cold, report = _spawn(workload, seed * children + k, seconds / children, scratch, smoke)
        setups.append(cold)
        reports.append(report)
    apps = [app for app, _ in cases.SIM_CASES[workload]]
    # every interpreter's runs of a case, pooled
    runs = {app: [s for r in reports for s in r["runs"][app]] for app in apps}
    case_s = {app: min(runs[app]) for app in apps}
    run_s = sum(case_s.values())
    nruns = sum(len(r) for r in runs.values())
    return {
        "attempted": children * len(apps) + nruns,
        "errors": [error for r in reports for error in r["errors"]],
        "metrics": end_to_end(
            setup_s=stats.median(setups),
            lat_p50_ms=stats.median(list(case_s.values())) * 1e3,
            lat_p90_ms=stats.percentile(list(case_s.values()), 90.0) * 1e3,
            throughput_rps=len(apps) / run_s,
            run_s=run_s,
            peak_rss_mb=stats.median([r["rss_kib"] for r in reports]) / 1024.0,
        ),
        "detail": {
            "setups_s": setups,
            "sweeps": nruns // len(apps),
            "case_s": case_s,
            "case_median_s": {app: stats.median(s) for app, s in runs.items()},
            "case_runs_s": [r["runs"] for r in reports],
        },
    }


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
