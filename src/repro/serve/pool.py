"""The persistent worker pool: reusable processes executing job batches.

The FastFlow shape: instead of paying process start-up per run, the
server keeps ``nworkers`` OS processes alive for its whole lifetime and
feeds each one batches of jobs through a per-worker inbox queue.  Inside
a worker a job runs exactly as it would inline — through
:func:`repro.serve.executor.execute`, which resolves the app registry
and the backend registry, so a worker can itself fan out to the PR 5
process-parallel backend (``backend="parallel"`` forks rank processes
from the worker).

Liveness: each worker publishes a heartbeat (a shared double it bumps
from a daemon thread a few times a second, plus between jobs).  The
parent combines process liveness (``Process.is_alive`` — catches hard
kills) with heartbeat age (catches a wedged-but-alive worker) to decide
a worker is dead; the server then requeues the worker's in-flight jobs
(bounded retries) and spawns a replacement.  This mirrors the dead-rank
detection the parallel backend does per run, lifted to pool lifetime.

Result records travel back on one shared queue as plain tuples:
``("done", worker, job_id, outcome)``, ``("error", worker, job_id,
message)``, and a trailing ``("batch-done", worker, batch_id)`` that
lets the server mark the worker idle again.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from queue import Empty

from repro.errors import ReproError
from repro.obs.metrics import counter_handle
from repro.serve.protocol import JobRequest

_RESTARTS = counter_handle(
    "core.serve.workers.restarts", help="dead workers replaced by the pool"
)

#: seconds between worker heartbeat bumps
_BEAT = 0.1
#: heartbeat age (seconds) past which an *alive* worker counts as wedged
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

_WORKER_IDS = itertools.count()


def _portable_message(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _worker_main(worker_id: int, inbox, results, heartbeat) -> None:
    """One pool worker: drain batches from the inbox until the sentinel.

    The heartbeat thread keeps beating through long job computations —
    a busy worker is *alive*, and must never be mistaken for a dead one.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            time.sleep(_BEAT)

    threading.Thread(target=beat, daemon=True, name="serve-heartbeat").start()

    from repro.serve.executor import execute

    try:
        while True:
            item = inbox.get()
            if item is None:
                return
            batch_id, jobs = item
            for job_id, request_json in jobs:
                try:
                    request = JobRequest.from_json(request_json).validated()
                    outcome = execute(request)
                    results.put(("done", worker_id, job_id, outcome))
                except BaseException as exc:  # noqa: BLE001 - reported upstream
                    results.put(("error", worker_id, job_id, _portable_message(exc)))
            results.put(("batch-done", worker_id, batch_id))
    finally:
        stop.set()


class _Worker:
    """Parent-side handle for one worker process."""

    def __init__(self, ctx, results):
        self.id = next(_WORKER_IDS)
        self.inbox = ctx.Queue()
        self.heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.id, self.inbox, results, self.heartbeat),
            name=f"repro-serve-worker-{self.id}",
            daemon=True,
        )
        #: batch currently dispatched to this worker, or None when idle:
        #: (batch_id, {job_id, ...} outstanding)
        self.batch: tuple[int, set[str]] | None = None
        self.process.start()

    @property
    def idle(self) -> bool:
        return self.batch is None

    def alive(self, heartbeat_timeout: float) -> bool:
        if not self.process.is_alive():
            return False
        return time.monotonic() - self.heartbeat.value <= heartbeat_timeout

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join(5.0)


class WorkerPool:
    """A fixed-size pool of persistent job-executing processes."""

    def __init__(
        self,
        nworkers: int,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        start_method: str | None = None,
    ):
        import multiprocessing as mp

        if nworkers < 1:
            raise ReproError(f"pool needs >= 1 worker, got {nworkers}")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self.heartbeat_timeout = heartbeat_timeout
        self.results = self._ctx.Queue()
        self._workers: dict[int, _Worker] = {}
        self._batch_ids = itertools.count()
        self._stopped = False
        for _ in range(nworkers):
            worker = _Worker(self._ctx, self.results)
            self._workers[worker.id] = worker

    # -- introspection -----------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    def workers(self) -> list[_Worker]:
        return list(self._workers.values())

    def worker(self, worker_id: int) -> _Worker | None:
        return self._workers.get(worker_id)

    def idle_worker(self) -> _Worker | None:
        for worker in self._workers.values():
            if worker.idle and worker.process.is_alive():
                return worker
        return None

    # -- dispatch ----------------------------------------------------------
    def dispatch(self, worker: _Worker, jobs: list[tuple[str, dict]]) -> int:
        """Send a batch to *worker*; returns the batch id."""
        if not worker.idle:
            raise ReproError(f"worker {worker.id} already has a batch in flight")
        batch_id = next(self._batch_ids)
        worker.batch = (batch_id, {job_id for job_id, _ in jobs})
        worker.inbox.put((batch_id, jobs))
        return batch_id

    def dead_workers(self) -> list[_Worker]:
        """Busy-or-idle workers that are gone or wedged (see module doc)."""
        return [
            w
            for w in self._workers.values()
            if not w.alive(self.heartbeat_timeout)
        ]

    def replace(self, worker: _Worker) -> _Worker:
        """Kill *worker* (if needed) and spawn a fresh one in its slot.

        Returns the replacement; the caller owns requeueing whatever the
        dead worker still had outstanding (``worker.batch``).
        """
        worker.kill()
        self._workers.pop(worker.id, None)
        fresh = _Worker(self._ctx, self.results)
        self._workers[fresh.id] = fresh
        _RESTARTS.inc()
        return fresh

    def poll(self, timeout: float = 0.0) -> list[tuple]:
        """Drain available result records (waiting up to *timeout* for one)."""
        records: list[tuple] = []
        deadline = time.monotonic() + timeout
        while True:
            try:
                remaining = max(0.0, deadline - time.monotonic())
                if remaining > 0 and not records:
                    records.append(self.results.get(timeout=remaining))
                else:
                    records.append(self.results.get_nowait())
            except Empty:
                return records

    def mark_batch_done(self, worker_id: int, batch_id: int) -> None:
        worker = self._workers.get(worker_id)
        if worker is not None and worker.batch and worker.batch[0] == batch_id:
            worker.batch = None

    # -- shutdown ----------------------------------------------------------
    def stop(self, grace: float = 5.0) -> None:
        """Sentinel every inbox, join, and terminate stragglers."""
        if self._stopped:
            return
        self._stopped = True
        for worker in self._workers.values():
            try:
                worker.inbox.put(None)
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        deadline = time.monotonic() + grace
        for worker in self._workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in self._workers.values():
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(2.0)
        # Release queue feeder threads so interpreter shutdown is clean.
        for worker in self._workers.values():
            try:
                worker.inbox.close()
            except Exception:  # noqa: BLE001
                pass
        try:
            self.results.close()
        except Exception:  # noqa: BLE001
            pass


def fork_available() -> bool:
    """True when the host supports the fork start method (test gating)."""
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods() and os.name == "posix"
