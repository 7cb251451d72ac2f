"""Job bookkeeping and the admission queue with small-job batching.

The queue orders jobs by ``(-priority, submission sequence)`` — strict
priority, FIFO within a priority.  Admission is *batched*: when a worker
frees and asks for work, a job at or below the small-weight threshold
pulls further small jobs (in queue order) into the same dispatch, up to
``batch_max`` — one worker wake-up, one IPC round-trip, and one metrics
merge for a whole group of cheap runs.  A job above the threshold always
dispatches alone.  Grouping never reorders: every job in a batch was
ahead of every job left behind.  Batching is work-conserving: it groups
whatever is already queued and never holds a job back to wait for more.

State discipline (the Danelutto–Torquati access-pattern vocabulary the
pipeline archetype uses): the queue and the job table are *serial* state
— every mutation happens under one lock, from whichever server thread
(HTTP handler or dispatcher) holds it; workers never touch either.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.serve.protocol import JobRequest, JobState


@dataclass
class Job:
    """One submitted job's server-side record."""

    id: str
    request: JobRequest
    key: str
    state: JobState = JobState.QUEUED
    #: dispatch attempts so far (requeues after worker death increment it)
    attempts: int = 0
    cache_hit: bool = False
    #: set when a sampled cache hit was re-executed and digest-checked
    verified: bool = False
    error: str | None = None
    worker: int | None = None
    submitted_at: float = field(default_factory=time.time)
    #: monotonic timestamp of the last (re)queueing — queue-wait latency
    #: (``core.serve.latency.queue_seconds``) is measured from here
    queued_mono: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: completed result record (also what the cache stores)
    record: dict[str, Any] | None = None
    #: deadline (monotonic) while running; None when not running
    deadline: float | None = None
    #: internal: cached-digest to check when this run verifies a hit
    expect_digest: str | None = None

    def status_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "state": self.state.value,
            "app": self.request.app,
            "key": self.key,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "verified": self.verified,
            "error": self.error,
            "worker": self.worker,
        }


class AdmissionQueue:
    """Priority queue with batched admission (thread-safe)."""

    def __init__(self, batch_max: int = 4, small_weight: float = 1.0):
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.batch_max = batch_max
        self.small_weight = small_weight
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()

    def push(self, job: Job) -> None:
        with self._lock:
            heapq.heappush(self._heap, (-job.request.priority, next(self._seq), job))

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def peek(self) -> Job | None:
        """The job the next :meth:`pop_batch` would start with."""
        with self._lock:
            return self._heap[0][2] if self._heap else None

    def pop_batch(self) -> list[Job]:
        """The next dispatch: one big job, or up to ``batch_max`` small ones.

        Returns ``[]`` when the queue is empty.
        """
        with self._lock:
            if not self._heap:
                return []
            batch = [heapq.heappop(self._heap)[2]]
            if batch[0].request.weight > self.small_weight:
                return batch
            while (
                len(batch) < self.batch_max
                and self._heap
                and self._heap[0][2].request.weight <= self.small_weight
            ):
                batch.append(heapq.heappop(self._heap)[2])
            return batch
