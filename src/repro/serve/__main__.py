"""Command-line entry point for the job server.

Usage::

    python -m repro.serve start --port 8642 --workers 2 --cache-dir CACHE
    python -m repro.serve submit poisson --param nx=64 --machine ibm-sp --wait
    python -m repro.serve status [JOB]
    python -m repro.serve result JOB [--trace trace.json] [--metrics]
    python -m repro.serve apps
    python -m repro.serve shutdown
    python -m repro.serve smoke        # the make serve-smoke CI gate

``start`` runs the server in the foreground until interrupted (or until
a ``shutdown`` request arrives).  Every other command is a thin HTTP
client against ``--server`` (default ``http://127.0.0.1:8642``).
``smoke`` is self-contained: it starts a server on an ephemeral port,
submits the same job twice over real HTTP, asserts the second submission
is answered from the cache with the identical digest and no additional
worker dispatch, fetches both jobs' traces (exported from the stored log
on GET) and checks they are valid and equal, verifies a sampled hit
bitwise, and shuts down cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import urllib.error
import urllib.request
from typing import Any

from repro.serve.protocol import DEFAULT_TIMEOUT, ServeError

#: default port the CLI client and `start` agree on
DEFAULT_PORT = 8642


# -- tiny HTTP client ------------------------------------------------------


def _call(server: str, method: str, path: str, body: dict | None = None) -> Any:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        server.rstrip("/") + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60.0) as resp:
            return json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        payload = exc.read().decode(errors="replace")
        try:
            message = json.loads(payload).get("error", payload)
        except json.JSONDecodeError:
            message = payload
        raise ServeError(f"server returned {exc.code}: {message}") from None
    except urllib.error.URLError as exc:
        raise ServeError(
            f"cannot reach {server!r} ({exc.reason}); is the server running? "
            "(python -m repro.serve start)"
        ) from None


def _wait_for(server: str, job_id: str, timeout: float) -> dict:
    deadline = time.monotonic() + timeout
    pause = 0.005  # backs off 5 -> 50 ms: short jobs are not kept waiting
    while True:
        status = _call(server, "GET", f"/v1/jobs/{job_id}")
        if status["state"] in ("done", "failed"):
            return status
        if time.monotonic() > deadline:
            raise ServeError(f"timed out waiting for {job_id} (last: {status['state']})")
        time.sleep(pause)
        pause = min(pause * 2, 0.05)


def _timed_job(server: str, request: dict) -> tuple[dict, float]:
    """Submit *request* and wait; (final status, submit -> done milliseconds)."""
    started = time.perf_counter()
    status = _call(server, "POST", "/v1/jobs", request)
    if status["state"] not in ("done", "failed"):
        status = _wait_for(server, status["id"], 60.0)
    return status, (time.perf_counter() - started) * 1e3


def _parse_params(pairs: list[str]) -> dict:
    """``k=v`` pairs with JSON-typed values (``nx=64`` is the int 64)."""
    params: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ServeError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


# -- commands --------------------------------------------------------------


def cmd_start(args: argparse.Namespace) -> int:
    from repro.serve.server import ServeServer

    server = ServeServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        batch_max=args.batch_max,
        default_timeout=args.timeout,
        verify_cache_every=args.verify_cache,
    )
    server.start()
    print(f"repro.serve listening on {server.url}")
    print(f"  workers: {server.pool.size}   cache: {server.cache.root}")
    try:
        while not server._stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    body: dict[str, Any] = {
        "app": args.app,
        "params": _parse_params(args.param),
        "machine": args.machine,
        "seed": args.seed,
        "backend": args.backend,
        "priority": args.priority,
        "weight": args.weight,
    }
    if args.job_timeout is not None:
        body["timeout"] = args.job_timeout
    status = _call(args.server, "POST", "/v1/jobs", body)
    hit = " (cache hit)" if status.get("cache_hit") else ""
    print(f"{status['id']}: {status['state']}{hit}")
    if args.wait and status["state"] not in ("done", "failed"):
        status = _wait_for(args.server, status["id"], args.wait_timeout)
    if status["state"] == "failed":
        print(f"FAILED: {status.get('error')}", file=sys.stderr)
        return 1
    if args.wait:
        result = _call(args.server, "GET", f"/v1/jobs/{status['id']}/result")
        record = result.get("record") or {}
        print(f"digest:  {record.get('digest')}")
        print(f"elapsed: {record.get('elapsed'):.6g}s (virtual)")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    if args.job:
        print(json.dumps(_call(args.server, "GET", f"/v1/jobs/{args.job}"), indent=2))
        return 0
    health = _call(args.server, "GET", "/v1/health")
    print(f"server:      {health['url']}")
    print(f"queue depth: {health['queue_depth']}")
    print(f"jobs:        {health['jobs'] or '(none yet)'}")
    for w in health["workers"]:
        state = "idle" if w["idle"] else f"running {', '.join(w['jobs'])}"
        liveness = "" if w["alive"] else " [DEAD]"
        print(f"worker {w['id']} (pid {w['pid']}){liveness}: {state}")
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    result = _call(args.server, "GET", f"/v1/jobs/{args.job}/result")
    record = result.get("record") or {}
    print(f"{result['id']}: {result['state']}"
          f"{' (cache hit)' if result.get('cache_hit') else ''}")
    print(f"digest:  {record.get('digest')}")
    print(f"elapsed: {record.get('elapsed'):.6g}s (virtual)")
    summary = record.get("summary") or {}
    if summary:
        print(
            f"traffic: {summary.get('total_messages')} messages, "
            f"{summary.get('total_bytes')} B, "
            f"comm fraction {summary.get('comm_fraction', 0.0):.1%}"
        )
    if args.json:
        print(json.dumps(result, indent=2))
    if args.metrics:
        metrics = _call(args.server, "GET", f"/v1/jobs/{args.job}/metrics")
        print(json.dumps(metrics, indent=2, sort_keys=True))
    if args.trace:
        trace = _call(args.server, "GET", f"/v1/jobs/{args.job}/trace")
        with open(args.trace, "w") as fh:
            json.dump(trace, fh, indent=1)
        print(
            f"wrote {len(trace['traceEvents'])} trace events to {args.trace} "
            "(open in https://ui.perfetto.dev)"
        )
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    for spec in _call(args.server, "GET", "/v1/apps"):
        print(f"{spec['name']:>10} [{spec['archetype']}] {spec['description']}")
        print(f"{'':>10} defaults: {json.dumps(spec['defaults'], sort_keys=True)}")
    return 0


def cmd_shutdown(args: argparse.Namespace) -> int:
    print(_call(args.server, "POST", "/v1/shutdown")["status"])
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    """The ``make serve-smoke`` gate (see module docstring)."""
    from repro.obs.chrome import validate_chrome_trace
    from repro.obs.metrics import scoped_registry
    from repro.serve.server import ServeServer

    request = {
        "app": "mergesort",
        "params": {"n": 512},
        "machine": "ibm-sp",
        "backend": "deterministic",
    }
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp, \
            scoped_registry():
        with ServeServer(
            port=0, workers=args.workers, cache_dir=tmp, verify_cache_every=2
        ) as server:
            url = server.url
            first, miss_ms = _timed_job(url, request)
            metrics_between = _call(url, "GET", "/v1/metrics")
            second, hit_ms = _timed_job(url, request)
            if not second.get("cache_hit"):
                failures.append("second identical submission was not a cache hit")
            d1 = _call(url, "GET", f"/v1/jobs/{first['id']}/result")["record"]["digest"]
            d2 = _call(url, "GET", f"/v1/jobs/{second['id']}/result")["record"]["digest"]
            if d1 != d2:
                failures.append(f"cache-hit digest diverged: {d1[:16]} vs {d2[:16]}")
            # The trace is exported from the stored log on GET: the miss
            # and the hit read one entry, so both documents must be
            # valid and equal.
            traces = [
                _call(url, "GET", f"/v1/jobs/{job['id']}/trace") for job in (first, second)
            ]
            for job, trace in zip(("miss", "hit"), traces):
                problems = validate_chrome_trace(trace)
                if problems:
                    failures.append(f"{job} trace fails validation: {problems[:3]}")
            if traces[0] != traces[1]:
                failures.append("miss and hit trace documents differ")
            metrics_after = _call(url, "GET", "/v1/metrics")
            dispatched = lambda m: m.get("core.serve.jobs.dispatched", {}).get("value", 0)  # noqa: E731
            if dispatched(metrics_after) != dispatched(metrics_between):
                failures.append(
                    "cache hit dispatched a worker "
                    f"({dispatched(metrics_between)} -> {dispatched(metrics_after)})"
                )
            if metrics_after.get("core.serve.cache.hits", {}).get("value") != 1:
                failures.append("cache-hit counter did not increment to 1")
            # Third submission: the sampled (every-2nd) hit re-executes
            # and must reproduce the cached digest bitwise.
            third, verify_ms = _timed_job(url, request)
            if not third.get("verified"):
                failures.append(f"sampled hit was not verified: {third}")
            verify_fail = _call(url, "GET", "/v1/metrics").get(
                "core.serve.cache.verify_failures", {}
            ).get("value", 0)
            if verify_fail:
                failures.append(f"{verify_fail} cache verification failure(s)")
            print(
                f"[{'FAIL' if failures else 'ok'}] submit/run/cache-hit/verify "
                f"round-trip on {url}: digest {d1[:16]}, "
                f"{len(traces[0]['traceEvents'])} trace events on GET, "
                f"hit verified={third.get('verified')}"
            )
            print(
                f"     submit -> done: miss {miss_ms:.1f} ms, hit {hit_ms:.1f} ms, "
                f"verified re-run {verify_ms:.1f} ms"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("serve smoke: all checks passed (clean shutdown)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Archetype-as-a-service: job server, client, and smoke gate.",
    )
    parser.add_argument(
        "--server",
        default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help="server URL for client commands (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("start", help="run the job server in the foreground")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--cache-dir", default=".repro-serve-cache")
    p.add_argument("--batch-max", type=int, default=4,
                   help="max small jobs grouped into one dispatch")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                   help="default per-job timeout (seconds)")
    p.add_argument("--verify-cache", type=int, default=0, metavar="N",
                   help="re-execute every Nth cache hit and assert the "
                   "digest matches bitwise (0: trust the cache)")
    p.set_defaults(fn=cmd_start)

    p = sub.add_parser("submit", help="submit one job")
    p.add_argument("app", help="registered app name (see 'apps')")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="app parameter override (JSON-typed; repeatable)")
    p.add_argument("--machine", default="ideal")
    p.add_argument("--seed", type=int, default=0,
                   help="schedule seed (fuzzed backend)")
    p.add_argument("--backend", default="deterministic")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--weight", type=float, default=1.0,
                   help="admission cost hint (<= server threshold batches)")
    p.add_argument("--job-timeout", type=float, default=None)
    p.add_argument("--wait", action="store_true", help="poll until done")
    p.add_argument("--wait-timeout", type=float, default=300.0)
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("status", help="server health, or one job's status")
    p.add_argument("job", nargs="?", default=None)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("result", help="fetch a completed job's result")
    p.add_argument("job")
    p.add_argument("--json", action="store_true", help="dump the full record")
    p.add_argument("--metrics", action="store_true", help="dump the job's metrics")
    p.add_argument("--trace", metavar="PATH",
                   help="write the job's Chrome trace document to PATH")
    p.set_defaults(fn=cmd_result)

    p = sub.add_parser("apps", help="list the server's app registry")
    p.set_defaults(fn=cmd_apps)

    p = sub.add_parser("shutdown", help="stop the server")
    p.set_defaults(fn=cmd_shutdown)

    p = sub.add_parser("smoke", help="self-contained CI gate (ephemeral server)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_smoke)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
