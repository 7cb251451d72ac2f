"""Per-layer timings, taken from outside: spans around calls into each
layer's public functions.  Module names are the layers.

Three batteries of synthetic calls (they need no server and no workload),
each made in the traced pass of the workload it explains:

- :func:`serve_path` (the serve workloads) walks one job through the
  server's layers by hand — the *miss* path and the *hit* path, once per
  app template and repetition — so each stage is a child span of a
  ``job.miss`` / ``job.hit`` root and self-time arithmetic applies;
- :func:`runtime` (``sim_comm``) times the message-passing substrate on
  small messages: launch, scheduler handoff, mailbox, collectives;
- :func:`kernels` (``sim_kernel``) times what large grids spend host time
  on: par-loop bodies, planning, payload copies, digests, the catalog.

Every figure is a median over repetitions of a per-call time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from perfbench import cases, stats
from perfbench.hermetic import Scratch
from perfbench.spans import Recorder

REPS = 3

#: what each battery emits, stated once so ``perfbench/tests`` can hold
#: the code and ``BENCHMARK.json`` to the same names
SERVE_PATH_METRICS = (
    "serve.protocol.parse_us", "serve.protocol.validate_us", "serve.protocol.cache_key_us",
    "serve.protocol.dumps_us", "serve.scheduler.push_us", "serve.scheduler.pop_batch_us",
    "serve.pool.roundtrip_ms", "serve.pool.overhead_ms", "serve.executor.execute_ms",
    "apps.registry.run_ms", "verify.digest_us", "trace.summarize_ms", "obs.chrome_trace_ms",
    "obs.metrics.snapshot_us", "serve.cache.store_ms", "obs.metrics.merge_snapshot_us",
    "serve.cache.lookup_us", "serve.cache.outputs_load_us", "serve.executor.jsonable_outputs_us",
)
RUNTIME_METRICS = (
    "runtime.spmd.launch_ms", "runtime.scheduler.handoff_us", "runtime.scheduler.handoff_p16_us",
    "runtime.scheduler.handoff_pinned_us", "runtime.threads.handoff_us",
    "runtime.fuzzed.handoff_us", "runtime.mailbox.put_take_us", "runtime.mailbox.wildcard_us",
    "comm.allreduce_us", "comm.bcast_us", "comm.alltoall_us",
    "comm.ghost_exchange_us", "comm.redistribute_ms", "host_cpus", "runtime.parallel.launch_ms",
    "runtime.parallel.msg_us", "runtime.parallel.shm_mb_s",
)
KERNEL_METRICS = (
    "runtime.context.payload_mb_s", "kernels.parloop_ns_per_cell", "kernels.plan_us",
    "verify.digest_mb_s", "tune.catalog.consult_us",
)


def timed(rec: Recorder, name: str, fn: Callable[[], Any], reps: int = 5, calls: int = 1) -> float:
    """Record *reps* spans called *name* around ``fn()`` (which makes
    *calls* calls); the median seconds per call."""
    for _ in range(reps):
        with rec.span(name, calls=calls):
            fn()
    return stats.median(rec.per_call(name)[-reps:])


def _per_job(rec: Recorder, name: str) -> float:
    """Seconds of span *name* per job of the uniform app mix: the mean
    over apps of the median over repetitions (0 when never recorded)."""
    by_app: dict[str, list[float]] = {}
    for span in rec.named(name):
        by_app.setdefault(span.args["app"], []).append(span.duration)
    if not by_app:
        return 0.0
    return sum(stats.median(d) for d in by_app.values()) / len(by_app)


# -- the serve path ------------------------------------------------------------


def serve_path(rec: Recorder, scratch: Scratch) -> dict[str, float]:
    """Walk the miss path and the hit path of every app template."""
    from repro.obs.metrics import get_registry, scoped_registry
    from repro.serve.cache import ResultCache
    from repro.serve.executor import execute, jsonable_outputs, result_digest
    from repro.serve.pool import WorkerPool
    from repro.serve.protocol import JobRequest, dumps, loads
    from repro.serve.scheduler import AdmissionQueue, Job
    from repro.obs.chrome import chrome_trace
    from repro.runtime import backends
    from repro.apps import registry
    from repro.machines.catalog import get_machine
    from repro.trace.analysis import summarize

    cache = ResultCache(scratch.path / "layers-cache")
    queue = AdmissionQueue()
    pool = WorkerPool(1)
    worker = pool.workers()[0]
    fresh = iter(range(cases.FRESH_SEED_BASE * 1000, cases.FRESH_SEED_BASE * 2000))
    stored: dict[str, dict] = {}

    def read_side(app: str, key: str, status: dict) -> None:
        """What ``GET /v1/jobs/<id>/result`` does."""
        with rec.span("serve.cache.lookup", app=app):
            cached = cache.lookup(key)
        with rec.span("serve.cache.outputs_load", app=app):
            values = cached.outputs()
        with rec.span("serve.executor.jsonable_outputs", app=app):
            outputs = jsonable_outputs(values)
        with rec.span("serve.protocol.dumps", app=app):
            dumps(dict(status, record=cached.record, outputs=outputs))

    def admit(app: str, raw: bytes) -> tuple[Any, str]:
        """What ``POST /v1/jobs`` does before the cache decides."""
        with rec.span("serve.protocol.parse", app=app):
            body = loads(raw)
        with rec.span("serve.protocol.validate", app=app):
            request = JobRequest.from_json(body).validated()
        with rec.span("serve.protocol.cache_key", app=app):
            key = request.cache_key()
        return request, key

    try:
        for _ in range(REPS):
            for app in cases.SERVE_APPS:
                raw = dumps(cases.job_body(app, next(fresh)))
                with rec.span("job.miss", app=app), scoped_registry():
                    request, key = admit(app, raw)
                    with rec.span("serve.cache.lookup_miss", app=app):
                        cache.lookup(key)
                    job = Job(id=f"layers-{key[:8]}", request=request, key=key)
                    with rec.span("serve.scheduler.push", app=app):
                        queue.push(job)
                    with rec.span("serve.scheduler.pop_batch", app=app):
                        batch = queue.pop_batch()
                    with rec.span("serve.pool.roundtrip", app=app) as roundtrip:
                        pool.dispatch(worker, [(j.id, j.request.to_json()) for j in batch])
                        outcome = _await_outcome(pool, worker)
                    rec.add_child(roundtrip, "serve.executor.execute.worker", outcome.host_seconds, app=app)
                    record = {
                        "request": request.to_json(), "digest": outcome.digest,
                        "times": outcome.times, "elapsed": outcome.elapsed,
                        "summary": outcome.summary, "host_seconds": outcome.host_seconds,
                    }
                    with rec.span("serve.cache.store", app=app):
                        cache.store(key, record, outcome.values, outcome.metrics, outcome.trace)
                    with rec.span("obs.metrics.merge_snapshot", app=app):
                        get_registry().merge_snapshot(outcome.metrics)
                    read_side(app, key, job.status_json())
                stored[app] = {"raw": raw, "status": job.status_json()}

            for app in cases.SERVE_APPS:
                with rec.span("job.hit", app=app):
                    request, key = admit(app, stored[app]["raw"])
                    with rec.span("serve.cache.lookup", app=app):
                        cache.lookup(key)
                    with rec.span("serve.protocol.dumps", app=app):
                        dumps(stored[app]["status"])
                    read_side(app, key, stored[app]["status"])

            # execute, in this process, and then its body's public calls
            # again as children of a ``.parts`` span: the real call gives
            # execute_ms, the parts say where it goes.
            machine = get_machine(cases.MACHINE)
            for app in cases.SERVE_APPS:
                request = JobRequest.from_json(cases.job_body(app, 0)).validated()
                with rec.span("serve.executor.execute", app=app):
                    execute(request)
                spec = registry.get(app)
                with rec.span("serve.executor.execute.parts", app=app), scoped_registry() as job_metrics:
                    with rec.span("apps.registry.run", app=app):
                        result = spec.run(
                            request.params, machine=machine,
                            mode=backends.get(request.backend).mode, trace=True,
                        )
                    with rec.span("obs.metrics.snapshot", app=app):
                        job_metrics.snapshot()
                    with rec.span("verify.digest", app=app):
                        result_digest(result)
                    with rec.span("trace.summarize", app=app):
                        summarize(result.tracer)
                    with rec.span("obs.chrome_trace", app=app):
                        chrome_trace(result.tracer)
    finally:
        pool.stop()

    roundtrip_s = _per_job(rec, "serve.pool.roundtrip")
    return {
        "serve.protocol.parse_us": _per_job(rec, "serve.protocol.parse") * 1e6,
        "serve.protocol.validate_us": _per_job(rec, "serve.protocol.validate") * 1e6,
        "serve.protocol.cache_key_us": _per_job(rec, "serve.protocol.cache_key") * 1e6,
        "serve.protocol.dumps_us": _per_job(rec, "serve.protocol.dumps") * 1e6,
        "serve.scheduler.push_us": _per_job(rec, "serve.scheduler.push") * 1e6,
        "serve.scheduler.pop_batch_us": _per_job(rec, "serve.scheduler.pop_batch") * 1e6,
        "serve.pool.roundtrip_ms": roundtrip_s * 1e3,
        "serve.pool.overhead_ms": (roundtrip_s - _per_job(rec, "serve.executor.execute.worker")) * 1e3,
        "serve.executor.execute_ms": _per_job(rec, "serve.executor.execute") * 1e3,
        "apps.registry.run_ms": _per_job(rec, "apps.registry.run") * 1e3,
        "verify.digest_us": _per_job(rec, "verify.digest") * 1e6,
        "trace.summarize_ms": _per_job(rec, "trace.summarize") * 1e3,
        "obs.chrome_trace_ms": _per_job(rec, "obs.chrome_trace") * 1e3,
        "obs.metrics.snapshot_us": _per_job(rec, "obs.metrics.snapshot") * 1e6,
        "serve.cache.store_ms": _per_job(rec, "serve.cache.store") * 1e3,
        "obs.metrics.merge_snapshot_us": _per_job(rec, "obs.metrics.merge_snapshot") * 1e6,
        "serve.cache.lookup_us": _per_job(rec, "serve.cache.lookup") * 1e6,
        "serve.cache.outputs_load_us": _per_job(rec, "serve.cache.outputs_load") * 1e6,
        "serve.executor.jsonable_outputs_us": _per_job(rec, "serve.executor.jsonable_outputs") * 1e6,
    }


def job_path_ms(rec: Recorder, hit: bool) -> float:
    """Milliseconds the hand-walked job path takes per job: the sum of
    the self times of every span under the ``job.*`` roots."""
    return _per_job(rec, "job.hit" if hit else "job.miss") * 1e3


def _await_outcome(pool, worker):
    """Poll the pool until the dispatched one-job batch has come back."""
    outcome = None
    deadline = time.monotonic() + 120.0
    while not worker.idle:
        if time.monotonic() > deadline:
            raise RuntimeError("pool worker never answered")
        for kind, worker_id, *rest in pool.poll(timeout=0.02):
            if kind == "batch-done":
                pool.mark_batch_done(worker_id, rest[0])
            elif kind == "done":
                outcome = rest[1]
            else:
                raise RuntimeError(f"pool worker failed: {rest[1]}")
    return outcome


# -- the runtime ---------------------------------------------------------------

PING_PONGS = 1000
RING_LAPS = 60
COLLECTIVE_CALLS = 60
PAYLOAD_BYTES = 8 << 20
PAYLOAD_SENDS = 8


def _ping_pong(comm, rounds: int) -> None:
    token = b"8 bytes."
    for _ in range(rounds):
        if comm.rank == 0:
            comm.send(1, token)
            comm.recv(1)
        else:
            comm.recv(0)
            comm.send(0, token)


def _ring(comm, laps: int) -> None:
    token = b"8 bytes."
    succ, pred = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for _ in range(laps):
        if comm.rank == 0:
            comm.send(succ, token)
            comm.recv(pred)
        else:
            comm.recv(pred)
            comm.send(succ, token)


def _stream(comm, array: np.ndarray, sends: int) -> None:
    for _ in range(sends):
        if comm.rank == 0:
            comm.send(1, array)
        elif comm.rank == 1:
            comm.recv(0)


def _noop(comm) -> None:
    return None


def _spmd(
    rec: Recorder, name: str, nprocs: int, body, args=(), backend="deterministic", reps=3, calls=1
) -> float:
    """Median seconds of one ``spmd_run`` of *body* (spans divide by *calls*)."""
    from repro.machines.catalog import get_machine
    from repro.runtime.spmd import spmd_run

    machine = get_machine(cases.MACHINE)
    return timed(
        rec, name, lambda: spmd_run(nprocs, body, args=args, machine=machine, backend=backend),
        reps=reps, calls=calls,
    ) * calls


def _per_call(total_s: float, launch_s: float, calls: int) -> float:
    """Seconds per call of a body once the empty launch is taken off."""
    return max(total_s - launch_s, 0.0) / calls


def runtime(rec: Recorder) -> dict[str, float]:
    from repro.comm import SUM, CartGrid, redistribute
    from repro.comm.boundary import exchange_ghosts
    from repro.comm.layout import col_layout, row_layout
    from repro.runtime.mailbox import Mailbox
    from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message

    spmd, per_call = functools.partial(_spmd, rec), _per_call
    out: dict[str, float] = {}
    launch16 = spmd("runtime.spmd.launch", 16, _noop, reps=9)
    launch2 = spmd("runtime.spmd.launch.p2", 2, _noop, reps=9)
    out["runtime.spmd.launch_ms"] = launch16 * 1e3

    # scheduler handoff: one message send + blocking receive = one switch
    handoffs = 2 * PING_PONGS
    total = spmd("runtime.scheduler.handoff", 2, _ping_pong, (PING_PONGS,), calls=handoffs)
    out["runtime.scheduler.handoff_us"] = per_call(total, launch2, handoffs) * 1e6
    total = spmd("runtime.scheduler.handoff_p16", 16, _ring, (RING_LAPS,), calls=16 * RING_LAPS)
    out["runtime.scheduler.handoff_p16_us"] = per_call(total, launch16, 16 * RING_LAPS) * 1e6
    with pinned():
        launch = spmd("runtime.spmd.launch.p2_pinned", 2, _noop, reps=9)
        total = spmd("runtime.scheduler.handoff_pinned", 2, _ping_pong, (PING_PONGS,), calls=handoffs)
    out["runtime.scheduler.handoff_pinned_us"] = per_call(total, launch, handoffs) * 1e6
    for engine in ("threads", "fuzzed"):
        name = f"runtime.{engine}.handoff"
        launch = spmd(f"{name}.launch", 2, _noop, backend=engine)
        total = spmd(name, 2, _ping_pong, (PING_PONGS // 4,), backend=engine, calls=handoffs // 4)
        out[f"{name}_us"] = per_call(total, launch, handoffs // 4) * 1e6

    # mailbox: the data structure alone, no scheduler
    def put_take(n: int = 2000) -> None:
        box = Mailbox()
        for i in range(n):
            box.put(Message(0, 1, 5, None, 8, float(i), seq=i))
            box.take_match(0, 5)

    def wildcard(n: int = 500, depth: int = 64) -> None:
        box = Mailbox()
        for i in range(depth):
            box.put(Message(i % 8, 1, i % 4, None, 8, float(i), seq=i))
        for i in range(depth, depth + n):
            box.put(Message(i % 8, 1, i % 4, None, 8, float(i), seq=i))
            box.take_match(ANY_SOURCE, ANY_TAG)

    out["runtime.mailbox.put_take_us"] = timed(rec, "runtime.mailbox.put_take", put_take, calls=2000) * 1e6
    out["runtime.mailbox.wildcard_us"] = timed(rec, "runtime.mailbox.wildcard", wildcard, calls=500) * 1e6

    # collectives at P=16: host time of one call, all ranks' work included
    grid = CartGrid((4, 4))

    def allreduce(comm) -> None:
        for _ in range(COLLECTIVE_CALLS):
            comm.allreduce(1.0, SUM)

    def bcast(comm) -> None:
        for _ in range(COLLECTIVE_CALLS):
            comm.bcast(1.0 if comm.rank == 0 else None, root=0)

    def alltoall(comm) -> None:
        for _ in range(COLLECTIVE_CALLS // 4):
            comm.alltoall([comm.rank] * comm.size)

    def ghost_exchange(comm) -> None:
        local = np.zeros((18, 18))
        for _ in range(COLLECTIVE_CALLS):
            exchange_ghosts(comm, local, grid)

    for name, body, calls in (
        ("allreduce", allreduce, COLLECTIVE_CALLS),
        ("bcast", bcast, COLLECTIVE_CALLS),
        ("alltoall", alltoall, COLLECTIVE_CALLS // 4),
        ("ghost_exchange", ghost_exchange, COLLECTIVE_CALLS),
    ):
        total = spmd(f"comm.{name}", 16, body, calls=calls)
        out[f"comm.{name}_us"] = per_call(total, launch16, calls) * 1e6

    shape = (256, 256)
    rows, cols = row_layout(shape, 16), col_layout(shape, 16)

    def rows_to_cols(comm) -> None:
        redistribute(comm, np.zeros(rows.shape(comm.rank)), rows, cols)

    total = spmd("comm.redistribute", 16, rows_to_cols, reps=5)
    out["comm.redistribute_ms"] = per_call(total, launch16, 1) * 1e3

    # the process-parallel engine: evidence rows (read beside host_cpus)
    out["host_cpus"] = float(os.cpu_count() or 1)
    launch4 = spmd("runtime.parallel.launch", 4, _noop, backend="parallel")
    out["runtime.parallel.launch_ms"] = launch4 * 1e3
    laps = 50
    total = spmd("runtime.parallel.msg", 4, _ring, (laps,), backend="parallel", calls=4 * laps)
    out["runtime.parallel.msg_us"] = per_call(total, launch4, 4 * laps) * 1e6
    array = np.zeros(PAYLOAD_BYTES // 8)
    total = spmd("runtime.parallel.shm", 4, _stream, (array, 4), backend="parallel", calls=4)
    out["runtime.parallel.shm_mb_s"] = PAYLOAD_BYTES / 2**20 / per_call(total, launch4, 4)
    return out


@contextlib.contextmanager
def pinned() -> Iterator[None]:
    """Confine this process (and the rank threads it starts) to one CPU:
    what the engines cost when no thread wakeup crosses cores."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# -- kernels, digests, catalog ---------------------------------------------------

PARLOOP_GRID = 512
PARLOOP_STEPS = 3


def kernels(rec: Recorder) -> dict[str, float]:
    import repro.kernels.runtime as kernel_runtime
    from repro.apps import registry
    from repro.kernels.plan import build_groups, plan_exchanges
    from repro.tune import catalog
    from repro.verify.digest import value_digest

    smog = registry.get("smog")
    params = {"nprocs": 1, "nx": PARLOOP_GRID, "ny": PARLOOP_GRID, "steps": PARLOOP_STEPS}
    run_s = timed(rec, "kernels.parloop", lambda: smog.run(params, machine=cases.MACHINE), reps=3)

    # smog's declared loops, captured as the engine hands them to the
    # planner (one fused step), then planned again under spans
    captured: list[list] = []
    real = kernel_runtime.build_groups

    def capture(loops):
        captured.append(list(loops))
        return real(loops)

    kernel_runtime.build_groups = capture
    try:
        smog.run({"nprocs": 1, "nx": 16, "ny": 16, "steps": 1}, machine=cases.MACHINE)
    finally:
        kernel_runtime.build_groups = real
    loops = max(captured, key=len)

    def plan() -> None:
        for group in build_groups(loops):
            plan_exchanges(group, epoch=-1)

    # payload transfer: 8 MiB ndarray send/recv between two ranks
    array = np.zeros(PAYLOAD_BYTES // 8)
    launch2 = _spmd(rec, "runtime.spmd.launch.p2", 2, _noop, reps=9)
    total = _spmd(
        rec, "runtime.context.payload", 2, _stream, (array, PAYLOAD_SENDS), calls=PAYLOAD_SENDS
    )

    digest_s = timed(rec, "verify.digest.8MiB", lambda: value_digest(array))
    return {
        "runtime.context.payload_mb_s": PAYLOAD_BYTES / 2**20 / _per_call(total, launch2, PAYLOAD_SENDS),
        "kernels.parloop_ns_per_cell": run_s / (PARLOOP_GRID**2 * PARLOOP_STEPS) * 1e9,
        "kernels.plan_us": timed(rec, "kernels.plan", plan, reps=9) * 1e6,
        "verify.digest_mb_s": PAYLOAD_BYTES / 2**20 / digest_s,
        "tune.catalog.consult_us": timed(
            rec, "tune.catalog.consult",
            lambda: [catalog.consult("poisson", cases.MACHINE, 4) for _ in range(100)],
            calls=100,
        ) * 1e6,
    }
