"""The traced pass: every per-layer metric of one workload.

No end-to-end number comes from here.  The pass has three parts:

1. what the *workload* shows of its layers — for the serve workloads a
   rate ladder under the load generator plus HTTP micro-exchanges and the
   server's own counters; for the sim workloads one sweep with the
   program's tracer on (exact counts) and one with it off;
2. the one battery of :mod:`perfbench.layers` that explains the workload:
   ``serve_path`` on the serve workloads, ``runtime`` on ``sim_comm``,
   ``kernels`` on ``sim_kernel`` (a battery times synthetic calls, so it
   would read the same on every workload: it is made once);
3. the spans of 1 and 2, written to ``perfbench/out/trace-<workload>.json``.

A metric whose layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import time
from typing import Any

from perfbench import cases, layers, loadgen, pins, schedule, spec, stats
from perfbench.hermetic import OUT, Scratch
from perfbench.serve import JobSource, latency_report, set_up
from perfbench.server import Conn, Server, cpu_seconds
from perfbench.spans import Recorder

#: the rate ladder; each step lasts :data:`LADDER_SHARE` of ``--seconds``
LADDER_RPS = (4.0, 8.0, 16.0)
LADDER_SHARE = 0.3
#: latency limit on p90, per workload, for ``loadgen.rate_within_limit_rps``
P90_LIMIT_MS = {"serve_miss": 500.0, "serve_hit": 100.0}
MICRO_EXCHANGES = 20

#: what the serve workloads show under the generator (0 on the sim workloads)
SERVE_OBSERVED_METRICS = (
    "loadgen.lag_p99_ms", "loadgen.lat_p90_ms.r4", "loadgen.lat_p90_ms.r16",
    "loadgen.rate_within_limit_rps", "serve.executor.exec_ms_p50", "serve.wait_ms_p50",
    "serve.scheduler.batch_size_mean", "serve.server.shutdown_hangs", "serve.server.http_rtt_ms",
    "serve.server.post_hit_ms", "serve.server.http_rtt_fresh_ms", "serve.unattributed_ms",
    "serve.cpu_ms_per_op",
)
#: what every workload's own cases show
CASE_METRICS = (
    "perfbench.trace_overhead_ratio", "trace.overhead_ratio", "runtime.msgs", "runtime.bytes",
    "machines.predict_error_max", "perfbench.error_ratio",
)

#: server counters reported as they stand after the run
SERVER_COUNTERS = {
    "serve.cache.hits": "core.serve.cache.hits",
    "serve.cache.misses": "core.serve.cache.misses",
    "serve.cache.stores": "core.serve.cache.stores",
    "serve.cache.evictions": "core.serve.cache.evictions",
    "serve.cache.verify_failures": "core.serve.cache.verify_failures",
    "serve.scheduler.batches": "core.serve.batches.dispatched",
    "serve.pool.restarts": "core.serve.workers.restarts",
    "serve.pool.requeued": "core.serve.jobs.requeued",
    "serve.pool.timeouts": "core.serve.jobs.timeouts",
}

#: exact-repeat counts, summed over the workload's cases
CASE_COUNTERS = {
    "runtime.blocks": "runtime.scheduler.blocks",
    "kernels.loops": "core.kernels.loops",
    "kernels.groups": "core.kernels.groups",
    "kernels.tiles": "core.kernels.tiles",
    "kernels.exchanges_hoisted": "core.kernels.exchanges_hoisted",
    "comm.redistribute_bytes": "comm.redistribute.bytes",
}


def emitted_names() -> set[str]:
    """Every per-layer name the traced pass assigns."""
    return {
        *SERVE_OBSERVED_METRICS, *CASE_METRICS, *SERVER_COUNTERS, *CASE_COUNTERS,
        *layers.SERVE_PATH_METRICS, *layers.RUNTIME_METRICS, *layers.KERNEL_METRICS,
    }


def run(workload: str, seed: int, seconds: float, scratch: Scratch) -> dict[str, Any]:
    rec = Recorder()
    metrics = dict.fromkeys(spec.per_layer(), 0.0)
    expected = pins.load()
    errors: list[str] = []
    serving = workload in cases.SERVE_WORKLOADS
    if serving:
        attempted, detail = _serve_observed(workload, seed, seconds, scratch, rec, expected, metrics, errors)
        run_cases = [(app, {}) for app in cases.SERVE_APPS]
    else:
        attempted, detail = 0, {}
        run_cases = list(cases.SIM_CASES[workload])
    case_pins = {
        app: expected[cases.case_id("serve" if serving else workload, app)] for app, _ in run_cases
    }
    attempted += _case_sweeps(rec, run_cases, case_pins, metrics, errors, detail)
    if serving:
        emitted, names = layers.serve_path(rec, scratch), layers.SERVE_PATH_METRICS
    elif workload == "sim_comm":
        emitted, names = layers.runtime(rec), layers.RUNTIME_METRICS
    else:
        emitted, names = layers.kernels(rec), layers.KERNEL_METRICS
    if set(emitted) != set(names):
        raise RuntimeError(f"battery emitted {sorted(set(emitted) ^ set(names))} unexpectedly")
    metrics.update(emitted)
    if serving:
        path_ms = layers.job_path_ms(rec, hit=workload == "serve_hit")
        metrics["serve.unattributed_ms"] = detail["ladder"]["r8"]["p50_ms"] - path_ms
        detail["job_path_ms"] = path_ms
    metrics["perfbench.error_ratio"] = len(errors) / max(attempted, 1)
    rec.write(OUT / f"trace-{workload}.json", {"workload": workload, "seed": seed})
    detail["spans"] = len(rec.spans)
    return {"attempted": max(attempted, 1), "errors": errors, "metrics": metrics, "detail": detail}


# -- the workload's own view: sim cases and serve templates ----------------------


def _case_sweeps(rec, run_cases, case_pins, metrics, errors, detail) -> int:
    """Every case run with spans on, spans off, and the program's tracer
    on: the two overhead ratios and the exact counts."""
    from repro.trace.analysis import summarize

    kinds = {"spans": (rec, False), "plain": (Recorder(enabled=False), False), "traced": (rec, True)}
    walls = {kind: {app: [] for app, _ in run_cases} for kind in kinds}
    runs: dict[str, dict[str, pins.CaseRun]] = {kind: {} for kind in kinds}
    # On one CPU: unpinned, the rank threads' wakeups cross cores or not
    # from one second to the next (README, findings), which would swamp a
    # few per cent of overhead.  The three kinds alternate case by case,
    # in an order that turns each round, and the ratios are of per-case
    # medians; short cases (the serve templates) get more rounds.
    with layers.pinned():
        for app, params in run_cases:  # warm: imports, allocator, caches
            pins.run_case(app, params)
        started = time.perf_counter()
        rounds = 0
        while rounds < 2 or (rounds < 6 and time.perf_counter() - started < 4.0):
            order = list(kinds)[rounds % 3 :] + list(kinds)[: rounds % 3]
            for app, params in run_cases:
                for kind in order:
                    recorder, trace = kinds[kind]
                    began = time.perf_counter()
                    with recorder.span("apps.registry.run.case", app=app, traced=trace):
                        runs[kind][app] = pins.run_case(app, params, trace=trace)
                    walls[kind][app].append(time.perf_counter() - began)
            rounds += 1
    total = {kind: sum(stats.median(w) for w in walls[kind].values()) for kind in kinds}
    metrics["perfbench.trace_overhead_ratio"] = total["spans"] / total["plain"]
    metrics["trace.overhead_ratio"] = total["traced"] / total["plain"]
    detail["sweep_rounds"] = rounds

    per_case: dict[str, dict[str, float]] = {}
    worst_model_error = 0.0
    for app, params in run_cases:
        run, traced_run = runs["plain"][app], runs["traced"][app]
        error = run.mismatch(case_pins[app])
        if error:
            errors.append(f"{app}: {error}")
        summary = summarize(traced_run.result.tracer)
        counts = {"runtime.msgs": summary.total_messages, "runtime.bytes": summary.total_bytes}
        for name, counter in CASE_COUNTERS.items():
            counts[name] = traced_run.counters.get(counter, {}).get("value", 0.0)
        model = _predicted(app, params)
        if model is not None:
            counts["predict_error"] = abs(model - run.result.elapsed) / run.result.elapsed
            worst_model_error = max(worst_model_error, counts["predict_error"])
        per_case[app] = counts
        for name in ("runtime.msgs", "runtime.bytes", *CASE_COUNTERS):
            metrics[name] += counts[name]
    metrics["machines.predict_error_max"] = worst_model_error
    detail["case_counts"] = per_case
    return len(run_cases)


def _predicted(app: str, params: dict) -> float | None:
    """The closed-form virtual makespan, where ``bench/predict.py`` has a model."""
    from repro.apps import registry
    from repro.bench import predict
    from repro.machines.catalog import get_machine

    p = registry.get(app).params_with(params)
    machine = get_machine(cases.MACHINE)
    if app == "mergesort":
        return predict.predict_onedeep_sort(p["n"], p["nprocs"], machine)
    if app == "poisson":
        return predict.predict_poisson(
            p["nx"], p["ny"], p["max_iters"], p["nprocs"], machine, overlap=p["overlap"]
        )
    if app == "fft2d":
        return predict.predict_fft2d(p["rows"], p["cols"], p["repeats"], p["nprocs"], machine)
    if app == "smog":
        return predict.predict_smog(
            p["nx"], p["ny"], p["steps"], p["nprocs"], machine, chem_substeps=p["chem_substeps"]
        )
    if app == "cfd":
        return predict.predict_cfd(
            p["nx"], p["ny"], p["steps"], p["nprocs"], machine,
            cfl_interval=p["cfl_interval"], overlap=p["overlap"],
        )
    return None


# -- the serve workloads under the generator -------------------------------------


def _serve_observed(workload, seed, seconds, scratch, rec, expected, metrics, errors) -> tuple[int, dict]:
    check = pins.serve_check(expected)
    source = JobSource(workload, seed)
    server = Server(scratch, scratch.cache_dir)
    ladder: dict[str, dict] = {}
    phases: dict[str, list[loadgen.Sample]] = {}
    try:
        _, phases["setup"] = set_up(server, source, check)
        tree = server.pids()
        cpu_before = cpu_seconds(tree)
        within_limit = 0.0
        for rate in LADDER_RPS:
            due = schedule.arrivals(seed, rate, seconds * LADDER_SHARE)
            phase = phases[f"r{rate:g}"] = loadgen.open_loop(server, source.draw(len(due)), due, check)
            report = latency_report(phase)
            report["backlog_grew"] = _backlog_grew(phase)
            ladder[f"r{rate:g}"] = report
            if (
                not report["failed"]
                and not report["backlog_grew"]
                and report["p90_ms"] <= P90_LIMIT_MS[workload]
            ):
                within_limit = rate
        ladder_requests = sum(report["requests"] for report in ladder.values())
        metrics["serve.cpu_ms_per_op"] = (cpu_seconds(tree) - cpu_before) * 1e3 / ladder_requests
        cruise = [s for s in phases["r8"] if s.ok]
        metrics["loadgen.lag_p99_ms"] = ladder["r8"]["lag_p99_ms"]
        metrics["loadgen.lat_p90_ms.r4"] = ladder["r4"].get("p90_ms", 0.0)
        metrics["loadgen.lat_p90_ms.r16"] = ladder["r16"].get("p90_ms", 0.0)
        metrics["loadgen.rate_within_limit_rps"] = within_limit
        metrics["serve.executor.exec_ms_p50"] = stats.median([s.exec_s for s in cruise]) * 1e3
        metrics["serve.wait_ms_p50"] = stats.median([s.latency - s.exec_s for s in cruise]) * 1e3

        _http_micro(server, rec, source.hit, metrics, errors)
        conn = server.conn()
        status, counters = conn.call("GET", "/v1/metrics")
        conn.close()
        if status != 200:
            errors.append(f"/v1/metrics returned {status}")
            counters = {}
        for name, counter in SERVER_COUNTERS.items():
            metrics[name] = counters.get(counter, {}).get("value", 0.0)
        sizes = counters.get("core.serve.batch.size", {})
        metrics["serve.scheduler.batch_size_mean"] = sizes.get("sum", 0.0) / max(sizes.get("count", 0), 1)
    finally:
        server.stop()
    metrics["serve.server.shutdown_hangs"] = float(server.shutdown_hangs)
    samples = [s for phase in phases.values() for s in phase]
    errors += [s.error or "no result" for s in samples if not s.ok]
    return len(samples) + 3 * MICRO_EXCHANGES, {"ladder": ladder}


def _backlog_grew(phase: list[loadgen.Sample]) -> bool:
    """Did requests late in the phase wait markedly longer than early ones?"""
    latencies = [s.latency for s in phase if s.ok]
    third = len(latencies) // 3
    if third < 3:
        return False
    return stats.median(latencies[-third:]) > 2.0 * stats.median(latencies[:third])


def _http_micro(server: Server, rec: Recorder, hit: bool, metrics, errors) -> None:
    """Back-to-back exchanges on one persistent connection, posts of a
    key that set-up stored, and exchanges on a new connection each."""
    hit_body = cases.job_body(
        cases.SERVE_APPS[0], cases.HIT_SEEDS[0] if hit else cases.FRESH_SEED_BASE
    )
    conn = server.conn()
    try:
        for _ in range(MICRO_EXCHANGES):
            with rec.span("serve.server.http_rtt"):
                status, _ = conn.call("GET", "/v1/health")
            if status != 200:
                errors.append(f"/v1/health returned {status}")
        for _ in range(MICRO_EXCHANGES):
            with rec.span("serve.server.post_hit"):
                status, doc = conn.call("POST", "/v1/jobs", hit_body)
            if status != 200 or not doc.get("cache_hit"):
                errors.append(f"post of a stored key was not a hit ({status}): {doc}")
    finally:
        conn.close()
    for _ in range(MICRO_EXCHANGES):
        with rec.span("serve.server.http_rtt_fresh"):
            fresh = Conn(server.host, server.port)
            status, _ = fresh.call("GET", "/v1/health")
            fresh.close()
        if status != 200:
            errors.append(f"/v1/health returned {status}")
    for name in ("http_rtt", "post_hit", "http_rtt_fresh"):
        durations = [s.duration for s in rec.named(f"serve.server.{name}")]
        metrics[f"serve.server.{name}_ms"] = stats.median(durations) * 1e3
