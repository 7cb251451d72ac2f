"""The load generator: one process, :data:`CONNECTIONS` threads, one
persistent HTTP/1.1 connection each.

*Open loop*: connection 0 submits on the schedule whether or not earlier
requests have finished; the other connections collect, request *i* on
collector ``i mod 3`` (poll ``GET /v1/jobs/<id>`` with a 5 ms pause, then
``GET .../result``).  Latency
runs from the instant a request was *due* to the instant its result
document is in hand, so a stall anywhere — server or generator — is
charged to every request it delays; how late the generator itself ran is
reported as lag.  *Burst*: :data:`BURST_CONNECTIONS` connections post
back-to-back and the clock stops when ``/v1/health`` shows nothing queued or running.

The generator deliberately does what a plain ``http.client`` user does:
no ``TCP_QUICKACK``, no connection per request.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from perfbench.server import Server, placement

POLL_PAUSE = 0.005
#: a request with no result this long after it was due has failed
RESULT_TIMEOUT = 30.0

#: ``check(app, result_document) -> error text or None``
Check = Callable[[str, dict], "str | None"]


#: threads (= connections): one submits, the rest collect.  Fixed, not
#: scaled to the host's cores — the threads wait on sockets, and a run
#: must mean the same on every host.  With a single collector the
#: generator itself saturates near 10 results/s (each exchange stalls
#: ~44 ms, see README) and its queue, not the server, sets the tail.
CONNECTIONS = 4
#: connections the burst posts on.  Two (the issue's ``min(nproc, 4)`` on
#: the 2-core host it was sized on): each back-to-back post stalls 44 ms
#: (README, findings), so the burst is bound by 2 / 44 ms = 45 posts/s and
#: the workers keep up.  With four the workers bind instead, both CPUs
#: saturate, and the rate follows the host's speed from one minute to the
#: next (49-70 jobs/s inside one hour; spread 15-27 % across ten seeds).
BURST_CONNECTIONS = 2


def _generator_thread(target: Callable[..., None], name: str, *args: Any) -> threading.Thread:
    """A thread of the generator, confined to the generator's CPU
    (:func:`perfbench.server.placement`)."""

    def run() -> None:
        cpus = placement()
        if cpus is not None:
            os.sched_setaffinity(0, {cpus[0]})  # 0: the calling thread
        target(*args)

    return threading.Thread(target=run, name=name)


@dataclass
class Sample:
    """One open-loop request."""

    app: str
    due: float
    #: seconds the submit ran late
    lag: float = 0.0
    #: due -> result in hand, seconds (``None``: failed)
    latency: float | None = None
    #: host seconds the run took inside the worker, from the record
    #: (0 for a cache hit: nothing ran)
    exec_s: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.latency is not None


def open_loop(server: Server, jobs: list[dict], due: list[float], check: Check) -> list[Sample]:
    """Submit ``jobs[i]`` at ``due[i]`` seconds from now; return when every
    result is in hand (or has failed)."""
    samples = [Sample(app=job["app"], due=at) for job, at in zip(jobs, due)]
    # Request i goes to collector i mod ncollect: which connection a
    # result is fetched on decides whether the fetch stalls (README, the
    # 44 ms finding), so it must not depend on thread wake-up order.
    ncollect = CONNECTIONS - 1
    handoffs: list[queue.Queue] = [queue.Queue() for _ in range(ncollect)]
    origin = time.perf_counter() + 0.02

    def submit() -> None:
        conn = server.conn()
        try:
            for index, (job, sample) in enumerate(zip(jobs, samples)):
                wait = origin + sample.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sample.lag = time.perf_counter() - (origin + sample.due)
                status, doc = conn.call("POST", "/v1/jobs", job)
                if status == 200:
                    handoffs[index % ncollect].put((index, doc))
                else:
                    sample.error = f"submit returned {status}: {doc.get('error')}"
        finally:
            conn.close()
            for handoff in handoffs:
                handoff.put(None)

    def collect(handoff: queue.Queue) -> None:
        conn = server.conn()
        try:
            while (item := handoff.get()) is not None:
                index, doc = item
                _collect_one(conn, doc, samples[index], origin, check)
        finally:
            conn.close()

    threads = [_generator_thread(submit, "loadgen-submit")]
    threads += [
        _generator_thread(collect, f"loadgen-collect-{i}", handoff)
        for i, handoff in enumerate(handoffs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def _collect_one(conn, doc: dict, sample: Sample, origin: float, check: Check) -> None:
    deadline = origin + sample.due + RESULT_TIMEOUT
    job_id = doc["id"]
    status = 200
    while status == 200 and doc["state"] not in ("done", "failed"):
        if time.perf_counter() > deadline:
            sample.error = f"no result {RESULT_TIMEOUT:g} s after due (last: {doc['state']})"
            return
        status, doc = conn.call("GET", f"/v1/jobs/{job_id}")
        if status == 200 and doc["state"] not in ("done", "failed"):
            time.sleep(POLL_PAUSE)
    if status != 200 or doc["state"] == "failed":
        sample.error = f"job failed ({status}): {doc.get('error')}"
        return
    status, result = conn.call("GET", f"/v1/jobs/{job_id}/result")
    done = time.perf_counter()
    if status != 200:
        sample.error = f"result returned {status}: {result.get('error')}"
        return
    sample.latency = done - (origin + sample.due)
    # a hit's record still carries the seconds of the run that stored it
    sample.exec_s = 0.0 if result.get("cache_hit") else result["record"]["host_seconds"]
    sample.error = check(sample.app, result)


@dataclass
class Burst:
    jobs: int
    wall_s: float
    errors: list[str]


def burst(server: Server, jobs: list[dict]) -> Burst:
    """Post *jobs* back-to-back on every burst connection; time until the
    server has nothing queued or running; then check every job is done."""
    pending = iter(jobs)
    lock = threading.Lock()
    ids: list[str] = []
    errors: list[str] = []

    def post() -> None:
        conn = server.conn()
        try:
            while True:
                with lock:
                    job = next(pending, None)
                if job is None:
                    return
                status, doc = conn.call("POST", "/v1/jobs", job)
                with lock:
                    if status == 200:
                        ids.append(doc["id"])
                    else:
                        errors.append(f"submit returned {status}: {doc.get('error')}")
        finally:
            conn.close()

    threads = [_generator_thread(post, f"loadgen-burst-{i}") for i in range(BURST_CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    conn = server.conn()
    try:
        deadline = started + RESULT_TIMEOUT + len(jobs)
        while True:
            status, health = conn.call("GET", "/v1/health")
            states: dict[str, Any] = health.get("jobs", {}) if status == 200 else {}
            if status == 200 and not states.get("queued") and not states.get("running"):
                break
            if status != 200 or time.perf_counter() > deadline:
                errors.append(f"burst never drained ({status}): {states or health}")
                break
            time.sleep(POLL_PAUSE)
        wall = time.perf_counter() - started
        status, listing = conn.call("GET", "/v1/jobs")
    finally:
        conn.close()
    if status == 200:
        state_of = {job["id"]: job for job in listing}
        for job_id in ids:
            if state_of[job_id]["state"] != "done":
                errors.append(f"{job_id} ended {state_of[job_id]['state']}: {state_of[job_id]['error']}")
    else:
        errors.append(f"job listing returned {status}")
    return Burst(len(jobs), wall, errors)
