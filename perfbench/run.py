"""One run of one workload: scratch in, result line out."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

from perfbench import cases, hermetic, spec


#: times a run sets up; ``setup_s`` is their median
SETUPS = 3


def nsetups(smoke: bool) -> int:
    """A smoke pass (a quick does-it-run, not a measurement) sets up once."""
    return 1 if smoke else SETUPS


def end_to_end(
    *,
    setup_s: float,
    lat_p50_ms: float,
    lat_p90_ms: float,
    throughput_rps: float,
    run_s: float,
    peak_rss_mb: float,
) -> dict[str, float]:
    """The end-to-end metrics of one run: both workload families build
    theirs here, so the names are stated once (and checked against
    ``BENCHMARK.json`` by ``perfbench/tests``)."""
    return dict(locals())


@dataclass
class Result:
    traced: bool
    attempted: int
    errors: list[str]
    #: metric name -> value, exactly the declared end-to-end names
    #: (untraced) or per-layer names (traced)
    metrics: dict[str, float]
    detail: dict[str, Any] = field(default_factory=dict)
    valid: bool = True

    @property
    def failed(self) -> int:
        return min(len(self.errors), self.attempted)

    def report(self) -> dict[str, Any]:
        """Everything about the run, for the result set ``--out`` writes."""
        return {
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors[:20], "valid": self.valid,
            "metrics": self.metrics, "detail": self.detail,
        }

    def line(self) -> dict[str, Any]:
        """The result object the driver reads from the last stdout line."""
        declared = spec.per_layer() if self.traced else spec.end_to_end()
        if set(self.metrics) != set(declared):
            raise RuntimeError(
                f"metrics emitted and declared differ: {sorted(set(self.metrics) ^ set(declared))}"
            )
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": declared[name]["unit"]}
                for name in declared
            },
        }


def one(workload: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> Result:
    """Make one run (*smoke*: see :func:`nsetups`)."""
    scratch = hermetic.make_scratch(workload)
    try:
        hermetic.import_repro()
        if traced:
            from perfbench import traced as traced_pass

            out = traced_pass.run(workload, seed, seconds, scratch)
        elif workload in cases.SIM_CASES:
            from perfbench import sim

            out = sim.run_untraced(workload, seed, seconds, scratch, smoke)
        else:
            from perfbench import serve

            out = serve.run_untraced(workload, seed, seconds, scratch, smoke)
        leaks = scratch.leaks()
    finally:
        scratch.remove()
    result = Result(
        traced, out["attempted"], out["errors"], out["metrics"], out["detail"],
        out.get("valid", True),
    )
    result.detail["leaks"] = leaks
    result.detail["provenance"] = hermetic.provenance(seed, seconds, scratch.scrubbed)
    for error in result.errors[:10]:
        print(f"FAILED: {error}", file=sys.stderr)
    if leaks:
        print(f"LEAKED: {leaks}", file=sys.stderr)
    if not result.valid:
        print("INVALID: the generator lagged or the sample was too short", file=sys.stderr)
    return result
