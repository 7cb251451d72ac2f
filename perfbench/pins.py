"""Pinned outputs: digest, virtual makespan and message count of every
serve job template and sim case (``perfbench/expected.json``).

Any mismatch is a failed operation, so a host-time change that shifts
one simulated statistic cannot pass.  The pins hold on every seed (the
seed never touches job contents) and for every ``seed`` request field
(the deterministic engine ignores it).  ``python3 -m perfbench --pin``
regenerates the file — only ever as a deliberate benchmark change.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any

from perfbench import cases
from perfbench.hermetic import PACKAGE

PATH = PACKAGE / "expected.json"


def load() -> dict[str, dict[str, Any]]:
    return json.loads(PATH.read_text())


def mismatch(pin: dict[str, Any], digest: str, elapsed: float, msgs: int) -> str | None:
    """What differs from *pin*, or ``None`` when all three agree."""
    wrong = [
        f"{name} {got!r} != pinned {pin[name]!r}"
        for name, got in (("digest", digest), ("elapsed", elapsed), ("msgs", msgs))
        if got != pin[name]
    ]
    return "; ".join(wrong) or None


def serve_check(pins: dict[str, dict]):
    """The load generator's result check for the serve job templates."""

    def check(app: str, result: dict) -> str | None:
        return record_mismatch(pins, app, result.get("record") or {})

    return check


def record_mismatch(pins: dict[str, dict], app: str, record: dict) -> str | None:
    summary = record.get("summary") or {}
    error = mismatch(
        pins[cases.case_id("serve", app)],
        record.get("digest"),
        record.get("elapsed"),
        summary.get("total_messages"),
    )
    return f"{app}: {error}" if error else None


@dataclass
class CaseRun:
    """One sim-case run, timed tightly around the ``run`` call."""

    result: Any
    host_s: float
    #: the run's metrics-registry snapshot (exact counts of what it did)
    counters: dict[str, dict]

    @property
    def msgs(self) -> int:
        return int(self.counters["runtime.mailbox.enqueued"]["value"])

    def mismatch(self, pin: dict[str, Any]) -> str | None:
        from repro.serve.executor import result_digest

        return mismatch(pin, result_digest(self.result), self.result.elapsed, self.msgs)


def run_case(app: str, params: dict, trace: bool = False) -> CaseRun:
    from repro.apps import registry
    from repro.obs.metrics import scoped_registry

    spec = registry.get(app)
    with scoped_registry() as metrics:
        started = time.perf_counter()
        result = spec.run(params, machine=cases.MACHINE, trace=trace)
        host_s = time.perf_counter() - started
        counters = metrics.snapshot()
    return CaseRun(result, host_s, counters)


def regenerate() -> dict[str, dict[str, Any]]:
    """Recompute every pin from the program as it is now."""
    from repro.serve.executor import execute, result_digest
    from repro.serve.protocol import JobRequest

    pins: dict[str, dict[str, Any]] = {}
    for app in cases.SERVE_APPS:
        outcome = execute(JobRequest.from_json(cases.job_body(app, 0)).validated())
        pins[cases.case_id("serve", app)] = {
            "digest": outcome.digest,
            "elapsed": outcome.elapsed,
            "msgs": outcome.summary["total_messages"],
        }
    for workload, sim_cases in cases.SIM_CASES.items():
        for app, params in sim_cases:
            run = run_case(app, params)
            pins[cases.case_id(workload, app)] = {
                "digest": result_digest(run.result),
                "elapsed": run.result.elapsed,
                "msgs": run.msgs,
            }
    PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return pins
