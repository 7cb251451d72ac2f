#!/usr/bin/env python3
"""Where one serve job's host time goes, layer by layer, per job template.

    python3 tools/job_cost.py            # this checkout's src/
    python3 tools/job_cost.py OTHER/src  # another checkout, for a before/after

Pins itself to one CPU and, for each of the serve workloads' nine job
templates (``perfbench.cases``: every registry app at its defaults),
prints the fastest of N runs of each step a cache miss takes:

- ``traced`` / ``untraced``: ``repro.serve.executor.execute`` with the
  run's tracer on (what a worker does per job) and off;
- ``summary``: ``repro.trace.analysis.summarize`` of the run's tracer;
- ``export``: ``repro.obs.chrome.chrome_trace`` of it (the Chrome
  document; built per job where the executor exports eagerly, per
  ``GET /v1/jobs/<id>/trace`` where the cache stores the log);
- ``pickled``: the pickled ``JobOutcome`` a worker ships to the server;
- ``store``: ``ResultCache.store`` of the outcome (server side);
- ``get``: a cached entry's ``trace()`` plus its JSON encoding — what
  ``GET /v1/jobs/<id>/trace`` costs.

Times in ms, sizes in KiB; the last row sums the templates.  Candidates
only — claims go through ``make bench-pairs``.
"""

import os
import pickle
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
COLUMNS = ("traced", "untraced", "summary", "export", "pickled", "store", "get")


def fastest(step) -> float:
    """Milliseconds of the fastest of :data:`RUNS` calls of *step*."""
    runs = []
    for _ in range(RUNS):
        started = time.perf_counter()
        step()
        runs.append(time.perf_counter() - started)
    return min(runs) * 1e3


def main(src: str) -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [src, str(ROOT)]
    from perfbench import cases
    from repro.apps import registry
    from repro.obs.chrome import chrome_trace
    from repro.serve.cache import ResultCache
    from repro.serve.executor import execute
    from repro.serve.protocol import JobRequest, dumps
    from repro.runtime import backends
    from repro.trace.analysis import summarize
    from repro.tune.catalog import TunedConfig

    print(f"{'template':<13}" + "".join(f"{name:>10}" for name in COLUMNS))
    totals = dict.fromkeys(COLUMNS, 0.0)
    with tempfile.TemporaryDirectory(prefix="job-cost-") as tmp:
        cache = ResultCache(tmp)
        stores = iter(range(10**9))
        for app in cases.SERVE_APPS:
            request = JobRequest.from_json(cases.job_body(app, 0)).validated()
            spec, mode = registry.get(app), backends.get(request.backend).mode
            outcome = execute(request)
            tracer = spec.run(
                request.params, machine=request.machine, mode=mode, trace=True,
                tuned=TunedConfig.from_dict(request.tuned or {}),
            ).tracer  # fmt: skip
            record = {"digest": outcome.digest}

            def store() -> None:
                key = f"{next(stores):064x}"
                cache.store(key, record, outcome.values, outcome.metrics, outcome.trace)

            key = f"{next(stores):064x}"
            cache.store(key, record, outcome.values, outcome.metrics, outcome.trace)
            entry = cache.lookup(key)
            row = {
                "traced": fastest(lambda: execute(request)),
                "untraced": fastest(lambda: execute(request, trace=False)),
                "summary": fastest(lambda: summarize(tracer)),
                "export": fastest(lambda: chrome_trace(tracer)),
                "pickled": len(pickle.dumps(outcome)) / 1024,
                "store": fastest(store),
                "get": fastest(lambda: dumps(entry.trace())),
            }
            for name in COLUMNS:
                totals[name] += row[name]
            print(f"{app:<13}" + "".join(f"{row[name]:>10.2f}" for name in COLUMNS))
    print(f"{'total':<13}" + "".join(f"{totals[name]:>10.2f}" for name in COLUMNS))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "src"))
