"""The job server: HTTP front end over queue + pool + cache.

One :class:`ServeServer` owns three moving parts and two threads:

- the **admission queue** (:mod:`repro.serve.scheduler`) holding
  submitted jobs in priority order with small-job batching;
- the **worker pool** (:mod:`repro.serve.pool`) of persistent processes
  that actually execute jobs;
- the **result cache** (:mod:`repro.serve.cache`), consulted at submit
  time — a hit completes the job instantly, with no worker dispatch,
  and is provably correct because identical canonical requests yield
  identical digests (``verify_cache_every=N`` re-executes every Nth hit
  and asserts exactly that, bitwise);
- an **HTTP thread** (stdlib ``ThreadingHTTPServer``) serving the JSON
  API, and a **dispatcher thread** running the control loop: drain
  worker results, detect dead workers and requeue their jobs (bounded
  retries), enforce per-job timeouts, and hand the backlog to workers
  as they free.

No job waits on a server timer: a submission that finds an idle worker
is dispatched from its own HTTP thread before the reply is written, and
a finished batch wakes the dispatcher through the result queue.  Batches
are what a backlog behind busy workers produces, never something a job
is held back for.

Every mutation of the job table goes through one lock (serial state, in
the pipeline archetype's access-pattern vocabulary); workers share
nothing with the server but queues.

HTTP API (all bodies JSON)::

    POST /v1/jobs             submit; body is a JobRequest; -> job status
    GET  /v1/jobs             all job statuses
    GET  /v1/jobs/<id>        one job's status
    GET  /v1/jobs/<id>/result completed record + JSON-rendered outputs
    GET  /v1/jobs/<id>/trace  the job's Chrome trace document
    GET  /v1/jobs/<id>/metrics the job's metrics snapshot
    GET  /v1/apps             the app registry (names, params, defaults)
    GET  /v1/health           workers, queue depth, job counts
    GET  /v1/metrics          the server's metrics registry snapshot
    POST /v1/shutdown         stop the server
"""

from __future__ import annotations

import itertools
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.apps import registry
from repro.obs.metrics import (
    COUNT_BUCKETS,
    counter_handle,
    gauge_handle,
    get_registry,
    histogram_handle,
)
from repro.serve.cache import ResultCache
from repro.serve.executor import JobOutcome, jsonable_outputs
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (
    DEFAULT_TIMEOUT,
    JobRequest,
    JobState,
    ServeError,
    dumps,
    loads,
)
from repro.serve.scheduler import AdmissionQueue, Job

_SUBMITTED = counter_handle("core.serve.jobs.submitted", help="jobs accepted")
_COMPLETED = counter_handle("core.serve.jobs.completed", help="jobs finished ok")
_FAILED = counter_handle("core.serve.jobs.failed", help="jobs finished in error")
_REQUEUED = counter_handle(
    "core.serve.jobs.requeued", help="jobs re-admitted after a worker died"
)
_TIMEOUTS = counter_handle("core.serve.jobs.timeouts", help="jobs killed on deadline")
_DISPATCHED = counter_handle(
    "core.serve.jobs.dispatched", help="jobs handed to a worker"
)
_BATCHES = counter_handle(
    "core.serve.batches.dispatched", help="worker dispatches (batches)"
)
_BATCH_SIZE = histogram_handle(
    "core.serve.batch.size", buckets=COUNT_BUCKETS, help="jobs per dispatch"
)
_HITS = counter_handle("core.serve.cache.hits", help="requests served from cache")
_MISSES = counter_handle("core.serve.cache.misses", help="requests that had to run")
_VERIFIED = counter_handle(
    "core.serve.cache.verified", help="sampled hits re-executed, digest equal"
)
_VERIFY_FAILURES = counter_handle(
    "core.serve.cache.verify_failures",
    help="sampled hits whose re-execution diverged (should stay 0 forever)",
)
_DEPTH = gauge_handle("core.serve.queue.depth", help="jobs waiting for a worker")

#: histogram buckets for *host* seconds: 1-2-5 steps from 0.5 ms to 10 s
#: (TIME_BUCKETS is decade-wide, sized for virtual time)
HOST_TIME_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
)  # fmt: skip
_QUEUE_SECONDS = histogram_handle(
    "core.serve.latency.queue_seconds",
    buckets=HOST_TIME_BUCKETS,
    help="host seconds from (re)queueing to dispatch",
)
_EXEC_SECONDS = histogram_handle(
    "core.serve.latency.exec_seconds",
    buckets=HOST_TIME_BUCKETS,
    help="host seconds a job ran inside its worker",
)
_TOTAL_SECONDS = histogram_handle(
    "core.serve.latency.total_seconds",
    buckets=HOST_TIME_BUCKETS,
    help="host seconds from submission to completion",
)

#: dispatcher tick (seconds): the liveness / timeout detection grain only.
#: Results wake the dispatcher through ``pool.poll`` and submissions
#: dispatch themselves, so no job waits on it.
_TICK = 0.02

_JOB_IDS = itertools.count(1)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, serve: "ServeServer"):
        self.serve = serve
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # Quiet by default: the request log is noise in tests and CI.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _reply(self, status: int, payload: Any) -> None:
        body = dumps(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The request body, consumed whatever the route does with it —
        unread bytes would be parsed as the connection's next request."""
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            # The body's extent is unknown, so the connection cannot be reused.
            self.close_connection = True
            raise ServeError(f"invalid Content-Length {raw!r}") from None
        return self.rfile.read(length)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        serve = self.server.serve
        try:
            raw = self._read_body()
            if self.path == "/v1/jobs":
                job = serve.submit(loads(raw) if raw else {})
                self._reply(200, job.status_json())
            elif self.path == "/v1/shutdown":
                self._reply(200, {"status": "stopping"})
                serve.request_shutdown()
            else:
                self._reply(404, {"error": f"no such endpoint {self.path}"})
        except ServeError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        serve = self.server.serve
        try:
            parts = [p for p in self.path.split("/") if p]
            if parts == ["v1", "health"]:
                self._reply(200, serve.health())
            elif parts == ["v1", "metrics"]:
                self._reply(200, get_registry().snapshot())
            elif parts == ["v1", "apps"]:
                self._reply(200, serve.apps())
            elif parts == ["v1", "jobs"]:
                self._reply(200, [j.status_json() for j in serve.jobs()])
            elif len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
                job_id = parts[2]
                kind = parts[3] if len(parts) > 3 else "status"
                status, payload = serve.job_view(job_id, kind)
                self._reply(status, payload)
            else:
                self._reply(404, {"error": f"no such endpoint {self.path}"})
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})


class ServeServer:
    """The archetype job server (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_dir: str = ".repro-serve-cache",
        batch_max: int = 4,
        small_weight: float = 1.0,
        default_timeout: float = DEFAULT_TIMEOUT,
        max_retries: int = 2,
        verify_cache_every: int = 0,
        heartbeat_timeout: float | None = None,
        start_method: str | None = None,
    ):
        self.cache = ResultCache(cache_dir)
        self.queue = AdmissionQueue(batch_max=batch_max, small_weight=small_weight)
        pool_kwargs = {} if heartbeat_timeout is None else {"heartbeat_timeout": heartbeat_timeout}
        self.pool = WorkerPool(workers, start_method=start_method, **pool_kwargs)
        self.default_timeout = default_timeout
        self.max_retries = max_retries
        self.verify_cache_every = verify_cache_every
        self._jobs: dict[str, Job] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._stop = threading.Event()
        self._httpd = _HTTPServer((host, port), self)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True, name="serve-http"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="serve-dispatch"
        )
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServeServer":
        self._started = True
        self._http_thread.start()
        self._dispatcher.start()
        return self

    def request_shutdown(self) -> None:
        """Ask the server to stop (safe from handler threads)."""
        threading.Thread(target=self.stop, daemon=True, name="serve-stop").start()

    def stop(self) -> None:
        """Stop accepting, stop dispatching, and tear the pool down."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._started:
            self._dispatcher.join(10.0)
        self._httpd.shutdown()
        self._httpd.server_close()
        self.pool.stop()

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission and views ----------------------------------------------
    def submit(self, body: dict[str, Any]) -> Job:
        """Validate, consult the cache, and either complete or enqueue —
        and dispatch at once when a worker is idle."""
        request = JobRequest.from_json(body).validated()
        key = request.cache_key()
        job = Job(id=f"job-{next(_JOB_IDS):06d}", request=request, key=key)
        with self._lock:
            self._jobs[job.id] = job
            _SUBMITTED.inc()
            cached = self.cache.lookup(key)
            if cached is not None:
                _HITS.inc()
                self._hits += 1
                job.cache_hit = True
                if self.verify_cache_every and self._hits % self.verify_cache_every == 0:
                    # Sampled hit: re-execute and assert digest equality
                    # instead of answering from the cache.
                    job.expect_digest = cached.digest
                    self._enqueue(job)
                else:
                    job.record = cached.record
                    job.state = JobState.DONE
                    job.finished_at = time.time()
            else:
                _MISSES.inc()
                self._enqueue(job)
            if job.state is JobState.QUEUED:
                self._dispatch_ready()
        return job

    def _enqueue(self, job: Job) -> None:
        job.state = JobState.QUEUED
        job.worker = None
        job.deadline = None
        job.queued_mono = time.monotonic()
        self.queue.push(job)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def job_view(self, job_id: str, kind: str) -> tuple[int, Any]:
        """(HTTP status, payload) for one job's ``status``/``result``/
        ``trace``/``metrics`` view."""
        job = self.job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if kind == "status":
            return 200, job.status_json()
        if kind not in ("result", "trace", "metrics"):
            return 404, {"error": f"no such job view {kind!r}"}
        if job.state is JobState.FAILED:
            return 410, {"error": job.error or "job failed", **job.status_json()}
        if job.state is not JobState.DONE:
            return 409, {"error": f"job is {job.state.value}", **job.status_json()}
        cached = self.cache.lookup(job.key)
        if kind == "result":
            payload = dict(job.status_json(), record=job.record)
            if cached is not None:
                payload["outputs"] = jsonable_outputs(cached.outputs())
            return 200, payload
        if cached is None:
            return 404, {"error": "cache entry for this job has been evicted"}
        if kind == "trace":
            trace = cached.trace()
            if trace is None:
                return 404, {"error": "job ran untraced"}
            return 200, trace
        return 200, cached.metrics()

    def apps(self) -> list[dict[str, Any]]:
        return [
            {
                "name": spec.name,
                "archetype": spec.archetype,
                "description": spec.description,
                "defaults": dict(spec.defaults),
            }
            for spec in registry.specs()
        ]

    def health(self) -> dict[str, Any]:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            return {
                "status": "ok",
                "url": self.url,
                "queue_depth": len(self.queue),
                "jobs": states,
                "workers": [
                    {
                        "id": w.id,
                        "pid": w.process.pid,
                        "alive": w.process.is_alive(),
                        "idle": w.idle,
                        "jobs": sorted(w.batch[1]) if w.batch else [],
                    }
                    for w in self.pool.workers()
                ],
            }

    # -- the control loop --------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            records = self.pool.poll(timeout=_TICK)
            with self._lock:
                for record in records:
                    self._handle_record(record)
                self._reap_dead_workers()
                self._enforce_timeouts()
                self._dispatch_ready()

    def _handle_record(self, record: tuple) -> None:
        kind, worker_id, *rest = record
        worker = self.pool.worker(worker_id)
        if kind == "batch-done":
            self.pool.mark_batch_done(worker_id, rest[0])
            return
        job_id, payload = rest
        if worker is not None and worker.batch is not None:
            worker.batch[1].discard(job_id)
        job = self._jobs.get(job_id)
        if job is None or job.state in (JobState.DONE, JobState.FAILED):
            return
        if kind == "done":
            self._complete(job, payload)
        else:
            self._fail(job, str(payload))

    def _complete(self, job: Job, outcome: JobOutcome) -> None:
        if job.expect_digest is not None and outcome.digest != job.expect_digest:
            _VERIFY_FAILURES.inc()
            self._fail(
                job,
                "cache verification failed: re-execution produced digest "
                f"{outcome.digest[:16]}, cache holds {job.expect_digest[:16]} "
                "(determinism violation — do not trust this cache)",
            )
            return
        if job.expect_digest is not None:
            job.verified = True
            _VERIFIED.inc()
        record = {
            "request": job.request.to_json(),
            "digest": outcome.digest,
            "times": outcome.times,
            "elapsed": outcome.elapsed,
            "summary": outcome.summary,
            "host_seconds": outcome.host_seconds,
        }
        self.cache.store(
            job.key, record, outcome.values, outcome.metrics, outcome.trace
        )
        get_registry().merge_snapshot(outcome.metrics)
        job.record = dict(record, key=job.key)
        job.state = JobState.DONE
        job.finished_at = time.time()
        job.deadline = None
        _COMPLETED.inc()
        _EXEC_SECONDS.observe(outcome.host_seconds)
        _TOTAL_SECONDS.observe(job.finished_at - job.submitted_at)

    def _fail(self, job: Job, error: str) -> None:
        job.state = JobState.FAILED
        job.error = error
        job.finished_at = time.time()
        job.deadline = None
        _FAILED.inc()

    def _requeue_outstanding(self, worker, reason: str) -> None:
        """Re-admit (or fail) whatever a dead/killed worker still owned."""
        if worker.batch is None:
            return
        for job_id in sorted(worker.batch[1]):
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.RUNNING:
                continue
            if job.attempts > self.max_retries:
                self._fail(job, f"{reason} (gave up after {job.attempts} attempts)")
            else:
                _REQUEUED.inc()
                self._enqueue(job)
        worker.batch = None

    def _reap_dead_workers(self) -> None:
        for worker in self.pool.dead_workers():
            self._requeue_outstanding(worker, f"worker {worker.id} died")
            self.pool.replace(worker)

    def _enforce_timeouts(self) -> None:
        now = time.monotonic()
        for worker in self.pool.workers():
            if worker.batch is None:
                continue
            expired = None
            for job_id in sorted(worker.batch[1]):
                job = self._jobs.get(job_id)
                if (
                    job is not None
                    and job.state is JobState.RUNNING
                    and job.deadline is not None
                    and now > job.deadline
                ):
                    expired = job
                    break
            if expired is None:
                continue
            _TIMEOUTS.inc()
            worker.batch[1].discard(expired.id)
            self._fail(
                expired,
                f"timed out after {expired.request.timeout or self.default_timeout:g}s",
            )
            # The worker is wedged on the expired job: replace it and
            # give its innocent batchmates another chance.
            self._requeue_outstanding(worker, f"worker {worker.id} killed on timeout")
            self.pool.replace(worker)

    def _dispatch_ready(self) -> None:
        """Work-conserving dispatch (caller holds the lock): while a worker
        is idle and anything is queued, the head batch leaves now."""
        while len(self.queue) and (worker := self.pool.idle_worker()) is not None:
            batch = [j for j in self.queue.pop_batch() if j.state is JobState.QUEUED]
            if not batch:
                continue
            now = time.monotonic()
            for job in batch:
                _QUEUE_SECONDS.observe(now - job.queued_mono)
                job.state = JobState.RUNNING
                job.worker = worker.id
                job.attempts += 1
                job.started_at = job.started_at or time.time()
                job.deadline = now + (job.request.timeout or self.default_timeout)
                _DISPATCHED.inc()
            self.pool.dispatch(
                worker, [(j.id, j.request.to_json()) for j in batch]
            )
            _BATCHES.inc()
            _BATCH_SIZE.observe(len(batch))
        _DEPTH.set(len(self.queue))
