"""One job's execution: run, digest, summarise, package.

This is the code a pool worker runs per job (and what ``--verify-cache``
re-runs to re-derive a cached digest).  It resolves the app through
:mod:`repro.apps.registry`, maps the requested backend onto the runtime
— ``fuzzed`` wraps the run in :func:`repro.runtime.spmd.fuzzed_schedule`
with the request's seed, every other name goes through the backend
registry's mode resolution — and reduces the :class:`RunResult` to a
wire-friendly outcome: the verify digest (the cache key's counterpart on
the result side), per-rank virtual clocks, a trace summary, the run's
event log (the Chrome document is built from it only when
``GET /v1/jobs/<id>/trace`` asks), and the run's metrics snapshot.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.apps import registry
from repro.machines.catalog import get_machine
from repro.obs.metrics import counter_handle, scoped_registry
from repro.runtime import backends
from repro.runtime.spmd import RunResult, fuzzed_schedule
from repro.serve.protocol import JobRequest
from repro.trace.analysis import summarize
from repro.trace.tracer import Tracer
from repro.verify.digest import value_digest

_TUNED_RUNS = counter_handle(
    "core.serve.jobs.tuned", help="jobs executed under a pinned tuned config"
)


@dataclass
class JobOutcome:
    """Everything a completed run ships back to the server."""

    digest: str
    times: list[float]
    elapsed: float
    #: per-rank body return values (arbitrary picklable objects)
    values: list[Any]
    #: plain-data trace summary (per-rank compute/comm/idle and totals)
    summary: dict[str, Any]
    #: the run's columnar event log (``None`` when untraced)
    trace: Tracer | None
    #: the run's metrics snapshot (shipped per job, merged server-side)
    metrics: dict[str, dict]
    #: host seconds the run took inside the worker
    host_seconds: float = 0.0
    #: wall-clock attempt count is tracked server-side; this field lets
    #: cache records carry it without a second schema
    extra: dict[str, Any] = field(default_factory=dict)


def _summary_json(result: RunResult) -> dict[str, Any]:
    if result.tracer is None:
        return {}
    summary = summarize(result.tracer)
    return {
        "ranks": [
            {
                "rank": rs.rank,
                "compute_time": rs.compute_time,
                "comm_time": rs.comm_time,
                "idle_time": rs.idle_time,
                "messages_sent": rs.messages_sent,
                "messages_received": rs.messages_received,
                "bytes_sent": rs.bytes_sent,
                "bytes_received": rs.bytes_received,
            }
            for rs in summary.ranks
        ],
        "total_messages": summary.total_messages,
        "total_bytes": summary.total_bytes,
        "total_idle_time": summary.total_idle_time,
        "comm_fraction": summary.comm_fraction(),
    }


def jsonable_outputs(values: list[Any], max_elements: int = 64) -> list[Any]:
    """A JSON-safe rendering of per-rank outputs for HTTP responses.

    Small ndarrays are inlined as lists; large ones are summarised by
    dtype/shape (the full objects live in the cache's pickle, and the
    digest is the fidelity guarantee).
    """

    def render(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            if value.size <= max_elements:
                return {"dtype": str(value.dtype), "shape": list(value.shape), "data": value.tolist()}
            return {"dtype": str(value.dtype), "shape": list(value.shape), "summary": True}
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, (list, tuple)):
            return [render(v) for v in value]
        if isinstance(value, dict):
            return {str(k): render(v) for k, v in value.items()}
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        return repr(value)

    return [render(v) for v in values]


def result_digest(result: RunResult) -> str:
    """The run's verify digest: times and values, canonically encoded."""
    return value_digest([result.times, result.values])


def execute(request: JobRequest, trace: bool = True) -> JobOutcome:
    """Run *request* to completion in this process and package the outcome.

    The run happens under a scoped metrics registry so the snapshot
    contains exactly this job's instrumentation — the server merges
    per-job snapshots into its own registry.

    The tuned configuration applied is exactly the one pinned into the
    request at admission (see :mod:`repro.serve.protocol`), passed as
    ``AppSpec.run(tuned=...)``: an empty one runs untuned, and either
    way this worker's local catalog is never read, so it can never shift
    a result away from what the cache key promises.
    """
    from repro.tune.catalog import TunedConfig

    spec = registry.get(request.app)
    machine = get_machine(request.machine)
    tuned = TunedConfig.from_dict(request.tuned or {})
    if request.backend == "fuzzed":
        schedule, mode = fuzzed_schedule(request.seed), "sequential"
    else:
        schedule, mode = nullcontext(), backends.get(request.backend).mode
    started = time.perf_counter()
    with scoped_registry() as job_registry, schedule:
        if request.tuned:
            _TUNED_RUNS.inc()
        result = spec.run(
            request.params, machine=machine, mode=mode, trace=trace, tuned=tuned
        )
        snapshot = job_registry.snapshot()
    host_seconds = time.perf_counter() - started
    return JobOutcome(
        digest=result_digest(result),
        times=list(result.times),
        elapsed=result.elapsed,
        values=list(result.values),
        summary=_summary_json(result),
        trace=result.tracer,
        metrics=snapshot,
        host_seconds=host_seconds,
    )
