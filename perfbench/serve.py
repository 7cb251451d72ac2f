"""The serve workloads: a real server subprocess under open-loop load.

``serve_miss``: every request carries a fresh ``seed`` field, so every
cache key is new and the whole job path does the work (HTTP, admission,
linger/batching, pool IPC, ``execute`` with tracing on, Chrome export,
cache store, metrics merge).  ``serve_hit``: requests draw from 36 keys
stored during set-up, so pool, executor and runtime do nothing and
protocol validation, key digest, cache lookup, outputs unpickle and HTTP
do everything.

One run: set up :data:`perfbench.run.SETUPS` servers (spawn -> healthy ->
one cold job per app to result -> for ``serve_hit`` all 36 keys stored),
keep the last, then ``cruise`` (open loop, Poisson arrivals at
:data:`CRUISE_RPS`; every latency metric comes from here) and ``burst``
(back-to-back posts on :data:`perfbench.loadgen.BURST_CONNECTIONS`
connections until the server is drained).
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from typing import Any

from perfbench import cases, loadgen, pins, schedule, stats
from perfbench.hermetic import Scratch
from perfbench.run import end_to_end, nsetups
from perfbench.server import Server, peak_rss_mib

CRUISE_RPS = 8.0
#: share of ``--seconds`` spent in ``cruise``; the burst gets the rest.
#: 160 requests at the 25 s of ``BENCHMARK.json``: on ``serve_hit`` p90
#: spreads 2 % across seeds at 160 and 200 requests, 19 % at 104
CRUISE_SHARE = 0.8
#: burst jobs per second of ``--seconds``
BURST_JOBS_PER_SECOND = 12
#: generator lag beyond which a cruise phase is not a valid measurement
MAX_LAG_P99_S = 0.250


class JobSource:
    """Request documents for one workload, drawn in a seeded order."""

    def __init__(self, workload: str, seed: int):
        self.hit = workload == "serve_hit"
        self.seed = seed
        self._fresh = itertools.count(cases.FRESH_SEED_BASE)
        self._phase = itertools.count()

    def setup_jobs(self) -> list[dict]:
        """One job per app (cold), then for ``serve_hit`` the other keys."""
        seeds = cases.HIT_SEEDS if self.hit else (next(self._fresh),)
        return [cases.job_body(app, s) for s in seeds for app in cases.SERVE_APPS]

    def draw(self, count: int) -> list[dict]:
        """*count* jobs in a seeded, balanced order (a new one per phase)."""
        napps = len(cases.SERVE_APPS)
        ntemplates = napps * len(cases.HIT_SEEDS) if self.hit else napps
        order = schedule.draw_order(f"{self.seed}:{next(self._phase)}", ntemplates, count)
        return [
            cases.job_body(
                cases.SERVE_APPS[t % napps],
                cases.HIT_SEEDS[t // napps] if self.hit else next(self._fresh),
            )
            for t in order
        ]


def set_up(server: Server, source: JobSource, check) -> tuple[float, list[loadgen.Sample]]:
    """Start *server* and bring it to the state the workload measures;
    ``(spawn -> last set-up result in hand seconds, the set-up samples)``."""
    server.start()
    jobs = source.setup_jobs()
    samples = loadgen.open_loop(server, jobs, [0.0] * len(jobs), check)
    return time.perf_counter() - server.spawned_at, samples


def latency_report(samples: list[loadgen.Sample]) -> dict[str, Any]:
    """p50 / p90 / lag of one open-loop phase."""
    latencies = [s.latency for s in samples if s.ok]
    report: dict[str, Any] = {
        "requests": len(samples),
        "samples": len(latencies),
        "failed": len(samples) - len(latencies),
        "percentile_supported": stats.highest_supported(len(latencies)),
        "lag_p99_ms": stats.percentile([s.lag for s in samples], 99.0) * 1e3,
    }
    if latencies:
        report["p50_ms"] = stats.median(latencies) * 1e3
        report["p90_ms"] = stats.percentile(latencies, 90.0) * 1e3
    return report


def run_untraced(
    workload: str, seed: int, seconds: float, scratch: Scratch, smoke: bool = False
) -> dict[str, Any]:
    """The end-to-end metrics of one serve run (*smoke*: one set-up)."""
    expected = pins.load()
    check = pins.serve_check(expected)
    source = JobSource(workload, seed)
    setups: list[float] = []
    samples: list[loadgen.Sample] = []
    hangs = 0
    server = None
    try:
        for k in range(nsetups(smoke)):
            if server is not None:
                server.stop()
                hangs += server.shutdown_hangs
            server = Server(scratch, scratch.path / f"cache-{k}")
            took, setup_samples = set_up(server, source, check)
            setups.append(took)
            samples += setup_samples

        cruise_s = seconds * CRUISE_SHARE
        due = schedule.arrivals(seed, CRUISE_RPS, cruise_s)
        cruise = loadgen.open_loop(server, source.draw(len(due)), due, check)
        burst = loadgen.burst(server, source.draw(round(seconds * BURST_JOBS_PER_SECOND)))
        rss = peak_rss_mib(server.pids())
    finally:
        if server is not None:
            server.stop()
            hangs += server.shutdown_hangs

    errors = [s.error or "no result" for s in samples + cruise if not s.ok] + burst.errors
    errors += stored_mismatches(server.cache_dir, expected)
    report = latency_report(cruise)
    if report["samples"] == 0:
        raise RuntimeError(f"no cruise request succeeded: {errors[:3]}")
    return {
        "attempted": len(samples) + len(cruise) + burst.jobs,
        "errors": errors,
        # a smoke pass is too short to support p90, and claims no number
        "valid": report["lag_p99_ms"] <= MAX_LAG_P99_S * 1e3
        and (smoke or (report["percentile_supported"] or 0.0) >= 90.0),
        "metrics": end_to_end(
            setup_s=stats.median(setups),
            lat_p50_ms=report["p50_ms"],
            lat_p90_ms=report["p90_ms"],
            throughput_rps=burst.jobs / burst.wall_s,
            run_s=burst.wall_s,
            peak_rss_mb=rss,
        ),
        "detail": {
            "setups_s": setups,
            "cruise": report,
            "cruise_latencies_ms": [round((s.latency or 0.0) * 1e3, 3) for s in cruise],
            "cruise_rps": CRUISE_RPS,
            "cruise_s": cruise_s,
            "burst_jobs": burst.jobs,
            "burst_connections": loadgen.BURST_CONNECTIONS,
            "connections": loadgen.CONNECTIONS,
            "shutdown_hangs": hangs,
        },
    }


def stored_mismatches(cache_dir: Path, expected: dict) -> list[str]:
    """Check every entry the measured server stored against its pin — the
    burst's outputs are verified here, after the clock has stopped."""
    errors = []
    for path in sorted(cache_dir.glob("*/*/result.json")):
        record = json.loads(path.read_text())
        error = pins.record_mismatch(expected, record["request"]["app"], record)
        if error:
            errors.append(f"stored {path.parent.name[:12]}: {error}")
    return errors
