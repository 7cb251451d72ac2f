"""The job server: protocol, cache, admission, worker pool, HTTP E2E.

The serving claim under test: for deterministic archetype runs, a
request's canonical form *is* its result — so a cache hit may be served
without re-execution, and a sampled re-execution must reproduce the
cached digest bitwise.  The failure-handling claim: a worker killed
mid-job costs latency, never correctness (requeue, bounded retries, same
digest).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.apps import registry
from repro import spmd_run
from repro.apps.registry import AppSpec
from repro.comm.reductions import SUM
from repro.obs.chrome import chrome_trace
from repro.obs.metrics import get_registry, scoped_registry
from repro.serve.__main__ import main as serve_main
from repro.serve.cache import ResultCache
from repro.serve.executor import execute
from repro.serve.pool import WorkerPool, fork_available
from repro.serve.protocol import JobRequest, ServeError, dumps
from repro.serve.scheduler import AdmissionQueue, Job
from repro.serve.server import HOST_TIME_BUCKETS, ServeServer
from repro.verify import fuzzed_schedule
from repro.verify.digest import value_digest
from tests.conftest import wait_until

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="serve tests exercise forked worker processes",
)


def _direct_digest(app: str, params: dict, machine: str, seed: int = 0, fuzzed=False):
    """The digest the server must reproduce: a direct in-process run."""
    spec = registry.get(app)
    if fuzzed:
        with fuzzed_schedule(seed):
            result = spec.run(params, machine=machine, mode="sequential")
    else:
        result = spec.run(params, machine=machine, mode="sequential")
    return value_digest([result.times, result.values])


# -- a gate-controlled app for crash/timeout/batching tests -----------------
def _sleeper_build(params):
    deadline = time.monotonic() + params["max_wait"]
    while params["gate"] and os.path.exists(params["gate"]):
        if time.monotonic() > deadline:  # pragma: no cover - safety net
            break
        time.sleep(0.02)
    return registry.get("mergesort").build(
        {"nprocs": 2, "n": params["n"], "seed": params["seed"]}
    )


# Registered at import time so forked pool workers inherit it.
registry.register(
    AppSpec(
        name="serve-test-sleeper",
        archetype="test",
        description="blocks while its gate file exists, then sorts",
        build=_sleeper_build,
        defaults={"gate": "", "n": 256, "seed": 0, "max_wait": 30.0},
    )
)


def _counter(name: str) -> float:
    instrument = get_registry().get(name)
    return instrument.value if instrument is not None else 0.0


def _http(url: str, method: str = "GET", body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _persistent(server: ServeServer) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(*server.address, timeout=10)


def _exchange(conn, method: str, path: str, body: dict | None = None):
    """One request/response on a persistent connection: (status, raw body)."""
    data = json.dumps(body) if body is not None else None
    conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _wait_done(url: str, job_id: str, timeout: float = 20.0) -> dict:
    last = {}

    def finished():
        nonlocal last
        _, last = _http(f"{url}/v1/jobs/{job_id}")
        return last["state"] in ("done", "failed")

    wait_until(finished, timeout=timeout, desc=f"{job_id} finishing")
    return last


@pytest.fixture
def server(tmp_path):
    with scoped_registry():
        with ServeServer(
            port=0,
            workers=1,
            cache_dir=tmp_path / "cache",
            heartbeat_timeout=5.0,
        ) as srv:
            yield srv


# -- protocol ---------------------------------------------------------------
class TestProtocol:
    def test_validated_merges_defaults(self):
        req = JobRequest(app="mergesort", params={"n": 128}).validated()
        assert req.params == {"nprocs": 4, "n": 128, "seed": 0}
        assert req.backend == "deterministic"

    def test_cache_key_canonicalises_defaults(self):
        implicit = JobRequest(app="mergesort").validated()
        explicit = JobRequest(
            app="mergesort", params={"nprocs": 4, "n": 4096, "seed": 0}
        ).validated()
        assert implicit.cache_key() == explicit.cache_key()

    def test_scheduling_fields_do_not_enter_the_key(self):
        base = JobRequest(app="poisson").validated()
        hurried = JobRequest(
            app="poisson", priority=9, timeout=5.0, weight=100.0
        ).validated()
        assert base.cache_key() == hurried.cache_key()

    @pytest.mark.parametrize(
        "field,value",
        [("params", {"n": 64}), ("machine", "ibm-sp"), ("seed", 1), ("backend", "fuzzed")],
    )
    def test_semantic_fields_change_the_key(self, field, value):
        base = JobRequest(app="mergesort").validated()
        varied = JobRequest(**{"app": "mergesort", field: value}).validated()
        assert base.cache_key() != varied.cache_key()

    @pytest.mark.parametrize(
        "bad",
        [
            {"app": "no-such-app"},
            {"app": "mergesort", "params": {"bogus": 1}},
            {"app": "mergesort", "params": 7},
            {"app": "mergesort", "machine": "no-such-machine"},
            {"app": "mergesort", "backend": "no-such-backend"},
            {"app": "mergesort", "timeout": -1.0},
            {"app": "mergesort", "weight": 0.0},
        ],
    )
    def test_invalid_requests_raise(self, bad):
        with pytest.raises(ServeError):
            JobRequest(**bad).validated()

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ServeError, match="unknown request field"):
            JobRequest.from_json({"app": "mergesort", "turbo": True})
        with pytest.raises(ServeError, match="missing"):
            JobRequest.from_json({})


# -- result cache -----------------------------------------------------------
class TestResultCache:
    RECORD = {"digest": "d" * 64, "times": [1.0], "elapsed": 1.0}

    def test_store_lookup_roundtrip(self, tmp_path):
        tracer = spmd_run(2, lambda comm: comm.allreduce(comm.rank, SUM), trace=True).tracer
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.store(key, self.RECORD, outputs=[1, 2], metrics={}, trace=tracer)
        hit = cache.lookup(key)
        assert hit is not None
        assert hit.digest == self.RECORD["digest"]
        assert hit.record["key"] == key
        assert hit.outputs() == [1, 2]
        # The entry holds the event log; the Chrome document is built on read.
        assert sorted(p.name for p in (tmp_path / key[:2] / key).iterdir()) == [
            "metrics.json", "outputs.pkl", "result.json", "trace.pkl",
        ]
        assert hit.trace() == chrome_trace(tracer)
        assert len(cache) == 1

    def test_untraced_entry_has_no_trace(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ac" + "0" * 62
        cache.store(key, self.RECORD, outputs=[], metrics={}, trace=None)
        assert cache.lookup(key).trace() is None

    def test_missing_key_is_a_miss(self, tmp_path):
        assert ResultCache(tmp_path).lookup("ff" + "0" * 62) is None

    def test_corrupt_entry_evicts_as_miss(self, tmp_path):
        with scoped_registry():
            cache = ResultCache(tmp_path)
            key = "cd" + "0" * 62
            cache.store(key, self.RECORD, outputs=[], metrics={}, trace=None)
            entry = tmp_path / key[:2] / key
            (entry / "result.json").write_text("{not json")
            assert cache.lookup(key) is None
            assert not entry.exists()
            assert _counter("core.serve.cache.evictions") == 1
            assert len(cache) == 0

    def test_store_race_keeps_incumbent(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "0" * 62
        cache.store(key, self.RECORD, outputs=["first"], metrics={}, trace=None)
        cache.store(key, self.RECORD, outputs=["second"], metrics={}, trace=None)
        assert cache.lookup(key).outputs() == ["first"]
        assert len(cache) == 1


class TestTraceExportOnGet:
    """``GET /v1/jobs/<id>/trace`` exports the stored log on read, and
    the body is byte for byte what the eager export at execute time
    gave for every serve job template (pinned before the export moved)."""

    PINS = json.loads((Path(__file__).parent / "data" / "serve_trace_pins.json").read_text())

    @pytest.mark.parametrize("app", sorted(PINS["pins"]))
    def test_get_time_export_matches_eager_pin(self, app, tmp_path):
        request = JobRequest.from_json(dict(self.PINS["request"], app=app)).validated()
        outcome = execute(request)
        cache = ResultCache(tmp_path)
        key = request.cache_key()
        cache.store(key, {"digest": outcome.digest}, outcome.values, outcome.metrics, outcome.trace)
        body = dumps(cache.lookup(key).trace())
        pin = self.PINS["pins"][app]
        assert (len(body), hashlib.sha256(body).hexdigest()) == (pin["bytes"], pin["sha256"])


# -- admission queue --------------------------------------------------------
def _job(job_id: str, priority: int = 0, weight: float = 1.0) -> Job:
    request = JobRequest(app="mergesort", priority=priority, weight=weight)
    return Job(id=job_id, request=request, key=job_id)


class TestAdmissionQueue:
    def test_priority_then_fifo(self):
        q = AdmissionQueue(batch_max=1)
        for job in (_job("a"), _job("b", priority=5), _job("c"), _job("d", priority=5)):
            q.push(job)
        order = [q.pop_batch()[0].id for _ in range(4)]
        assert order == ["b", "d", "a", "c"]

    def test_small_jobs_batch_up_to_max(self):
        q = AdmissionQueue(batch_max=3)
        for i in range(5):
            q.push(_job(f"j{i}"))
        assert [j.id for j in q.pop_batch()] == ["j0", "j1", "j2"]
        assert [j.id for j in q.pop_batch()] == ["j3", "j4"]
        assert q.pop_batch() == []

    def test_big_job_dispatches_alone(self):
        q = AdmissionQueue(batch_max=4, small_weight=1.0)
        q.push(_job("big", weight=8.0))
        q.push(_job("small"))
        assert [j.id for j in q.pop_batch()] == ["big"]

    def test_big_job_stops_a_small_batch(self):
        # Grouping never reorders: the batch ends where the big job starts.
        q = AdmissionQueue(batch_max=4)
        q.push(_job("s1"))
        q.push(_job("big", weight=8.0))
        q.push(_job("s2"))
        assert [j.id for j in q.pop_batch()] == ["s1"]
        assert [j.id for j in q.pop_batch()] == ["big"]

    def test_peek_does_not_pop(self):
        q = AdmissionQueue()
        assert q.peek() is None
        q.push(_job("a"))
        assert q.peek().id == "a"
        assert len(q) == 1


# -- executor ---------------------------------------------------------------
class TestExecutor:
    def test_outcome_matches_direct_run(self):
        req = JobRequest(app="mergesort", params={"n": 256}, machine="ibm-sp").validated()
        outcome = execute(req)
        assert outcome.digest == _direct_digest("mergesort", req.params, "ibm-sp")
        assert outcome.trace is not None
        assert any(name.startswith("core.") for name in outcome.metrics)

    def test_fuzzed_backend_reproduces_deterministic_digest(self):
        # Race-free programs are schedule-independent: the fuzzed seed
        # changes the interleaving, never the observable outcome.
        det = execute(JobRequest(app="knapfarm", machine="ibm-sp").validated())
        fuzz = execute(
            JobRequest(app="knapfarm", machine="ibm-sp", backend="fuzzed", seed=5).validated()
        )
        assert det.digest == fuzz.digest


# -- the HTTP server, end to end --------------------------------------------
class TestServerE2E:
    BODY = {"app": "mergesort", "params": {"n": 256}, "machine": "ibm-sp"}

    def test_submit_poll_result_roundtrip(self, server):
        status, job = _http(f"{server.url}/v1/jobs", "POST", self.BODY)
        assert status == 200
        final = _wait_done(server.url, job["id"])
        assert final["state"] == "done"
        status, result = _http(f"{server.url}/v1/jobs/{job['id']}/result")
        assert status == 200
        assert result["record"]["digest"] == _direct_digest(
            "mergesort", {"n": 256}, "ibm-sp"
        )
        assert result["outputs"]
        status, trace = _http(f"{server.url}/v1/jobs/{job['id']}/trace")
        assert status == 200 and trace["traceEvents"]
        status, metrics = _http(f"{server.url}/v1/jobs/{job['id']}/metrics")
        assert status == 200 and "comm.requests.posted" in metrics

    def test_repeat_request_is_served_from_cache(self, server):
        _, first = _http(f"{server.url}/v1/jobs", "POST", self.BODY)
        assert _wait_done(server.url, first["id"])["state"] == "done"
        dispatched = _counter("core.serve.jobs.dispatched")

        _, second = _http(f"{server.url}/v1/jobs", "POST", self.BODY)
        # The hit completes at submit time: no polling, no dispatch.
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        assert _counter("core.serve.jobs.dispatched") == dispatched
        assert _counter("core.serve.cache.hits") == 1
        assert _counter("core.serve.cache.misses") == 1

        _, a = _http(f"{server.url}/v1/jobs/{first['id']}/result")
        _, b = _http(f"{server.url}/v1/jobs/{second['id']}/result")
        assert a["record"]["digest"] == b["record"]["digest"]

    def test_equivalent_spellings_share_one_cache_entry(self, server):
        _, first = _http(f"{server.url}/v1/jobs", "POST", self.BODY)
        _wait_done(server.url, first["id"])
        spelled_out = dict(
            self.BODY, params={"n": 256, "nprocs": 4, "seed": 0}, priority=3
        )
        _, second = _http(f"{server.url}/v1/jobs", "POST", spelled_out)
        assert second["cache_hit"] is True
        assert second["key"] == first["key"]

    def test_invalid_submissions_return_400(self, server):
        for bad in (
            {"app": "no-such-app"},
            {"app": "mergesort", "params": {"bogus": 1}},
            {"app": "mergesort", "frobnicate": True},
            {"app": "mergesort", "seed": "abc"},
            {"app": "mergesort", "priority": "hi"},
            {"app": "mergesort", "timeout": "5"},
            {"app": "mergesort", "weight": None},
            {"app": "mergesort", "seed": True},
        ):
            status, payload = _http(f"{server.url}/v1/jobs", "POST", bad)
            assert status == 400 and "error" in payload

    def test_unknown_job_views(self, server):
        status, _ = _http(f"{server.url}/v1/jobs/job-999999")
        assert status == 404
        status, _ = _http(f"{server.url}/v1/jobs/job-999999/result")
        assert status == 404

    def test_health_apps_and_metrics_endpoints(self, server):
        status, health = _http(f"{server.url}/v1/health")
        assert status == 200 and health["status"] == "ok"
        assert len(health["workers"]) == 1
        _, apps = _http(f"{server.url}/v1/apps")
        assert [a["name"] for a in apps] == list(registry.names())
        _, job = _http(f"{server.url}/v1/jobs", "POST", self.BODY)
        _wait_done(server.url, job["id"])
        _, metrics = _http(f"{server.url}/v1/metrics")
        assert metrics["core.serve.jobs.submitted"]["value"] >= 1
        # Per-job snapshots merged into the server registry on completion.
        assert "comm.requests.posted" in metrics


class TestClientCLI:
    """``python -m repro.serve``'s client commands against a live server."""

    def test_every_client_command(self, server, tmp_path, capsys):
        def cli(*argv: str):
            code = serve_main(["--server", server.url, *argv])
            return code, capsys.readouterr()

        ids, digests = [], []
        for backend in ("fuzzed", "deterministic"):
            code, out = cli(
                "submit", "mergesort", "--param", "n=256", "--backend", backend,
                "--seed", "3", "--wait",
            )  # fmt: skip
            assert code == 0, out.err
            lines = out.out.splitlines()
            ids.append(lines[0].split(":")[0])
            digests.append(next(line.split()[1] for line in lines if line.startswith("digest:")))
        # The fuzzed job ran the seeded engine; mergesort is schedule-free.
        assert digests[0] == digests[1] and len(digests[0]) == 64

        code, out = cli("status")
        assert code == 0 and "queue depth" in out.out
        code, out = cli("status", ids[0])
        assert code == 0 and json.loads(out.out)["state"] == "done"

        trace_path = tmp_path / "trace.json"
        code, out = cli("result", ids[0], "--json", "--metrics", "--trace", str(trace_path))
        assert code == 0, out.err
        assert f"digest:  {digests[0]}" in out.out
        assert json.loads(trace_path.read_text())["traceEvents"]

        code, out = cli("apps")
        assert code == 0
        assert all(name in out.out for name in registry.names())

        code, out = cli("submit", "mergesort", "--param", "n")
        assert code == 1 and "--param expects key=value" in out.err

        code, out = cli("shutdown")
        assert code == 0 and out.out.strip() == "stopping"
        wait_until(
            lambda: not any(w.process.is_alive() for w in server.pool.workers()),
            timeout=15.0, desc="workers stopped after shutdown",
        )  # fmt: skip


class TestKeepAliveFraming:
    """A persistent connection stays in sync whatever a POST's route does
    with its body."""

    def test_unrouted_post_body_is_consumed(self, server):
        conn = _persistent(server)
        try:
            status, raw = _exchange(conn, "POST", "/v1/nope", TestServerE2E.BODY)
            assert status == 404 and "error" in json.loads(raw)
            # Parsed from leftover body bytes, this would be the stdlib's HTML 400.
            status, raw = _exchange(conn, "GET", "/v1/health")
            assert status == 200 and json.loads(raw)["status"] == "ok"
            status, raw = _exchange(conn, "POST", "/v1/jobs", TestServerE2E.BODY)
            assert status == 200 and json.loads(raw)["app"] == "mergesort"
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_a_json_400(self, server, length):
        conn = _persistent(server)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "Content-Length" in payload["error"]
            # The body's extent is unknown: the server gives the connection up
            # rather than guess where the next request starts.
            assert response.getheader("Connection") == "close"
            status, raw = _exchange(conn, "GET", "/v1/health")  # reconnects
            assert status == 200 and json.loads(raw)["status"] == "ok"
        finally:
            conn.close()

    def test_malformed_tuned_is_a_json_400(self, server):
        """A ``tuned`` the config cannot be built from is refused at
        admission — not a 500, not a job that fails in the worker — and
        the connection stays usable."""
        conn = _persistent(server)
        try:
            for tuned in (
                {"params": [1]},
                {"proc_grid": "ab"},
                {"proc_grid": [0, 4]},
                [],
            ):
                body = dict(TestServerE2E.BODY, tuned=tuned)
                status, raw = _exchange(conn, "POST", "/v1/jobs", body)
                assert status == 400 and "tuned" in json.loads(raw)["error"], tuned
            status, raw = _exchange(conn, "POST", "/v1/jobs", TestServerE2E.BODY)
            assert status == 200 and json.loads(raw)["app"] == "mergesort"
        finally:
            conn.close()


class TestWorkConservingDispatch:
    def test_idle_worker_takes_a_submission_before_the_reply(self, server, tmp_path):
        gate = tmp_path / "gate"
        gate.touch()
        conn = _persistent(server)
        try:
            conn.request(
                "POST",
                "/v1/jobs",
                body=json.dumps(
                    {"app": "serve-test-sleeper", "params": {"gate": str(gate)}}
                ),
            )
            # Dispatched from the submitting thread: the batch counter moves
            # with the reply still unread, on no dispatcher tick.
            wait_until(
                lambda: _counter("core.serve.batches.dispatched") == 1,
                desc="dispatch at submit",
            )
            response = conn.getresponse()
            job = json.loads(response.read())
            assert response.status == 200
            assert job["state"] == "running"
            assert job["attempts"] == 1 and job["worker"] is not None
            gate.unlink()
            assert _wait_done(server.url, job["id"])["state"] == "done"
        finally:
            conn.close()
            gate.unlink(missing_ok=True)

    def test_concurrent_submitters_never_double_book_a_worker(self, tmp_path):
        # HTTP threads now dispatch too: with more submitters than cores,
        # every job must still leave exactly once (a worker handed a second
        # batch while busy would raise inside submit).
        nthreads, each = 8, 6
        errors: list[BaseException] = []
        jobs: list[Job] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with scoped_registry(), ServeServer(
                port=0, workers=2, cache_dir=tmp_path / "cache"
            ) as server:

                def submitter(base: int) -> None:
                    try:
                        for seed in range(base, base + each):
                            jobs.append(
                                server.submit(
                                    {"app": "mergesort", "params": {"n": 64, "seed": seed}}
                                )
                            )
                    except BaseException as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=submitter, args=(i * each,))
                    for i in range(nthreads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                wait_until(
                    lambda: all(j.state.value in ("done", "failed") for j in jobs),
                    timeout=30.0,
                    desc="every concurrent job finishing",
                )
                total = nthreads * each
                assert [j.state.value for j in jobs] == ["done"] * total
                assert [j.attempts for j in jobs] == [1] * total
                assert _counter("core.serve.jobs.dispatched") == total
                sizes = get_registry().get("core.serve.batch.size").snapshot()
                assert sizes["sum"] == total
                assert sizes["count"] == _counter("core.serve.batches.dispatched")
        finally:
            sys.setswitchinterval(interval)

    def test_latency_histograms_record_host_seconds(self, server):
        _, job = _http(f"{server.url}/v1/jobs", "POST", TestServerE2E.BODY)
        assert _wait_done(server.url, job["id"])["state"] == "done"
        _, result = _http(f"{server.url}/v1/jobs/{job['id']}/result")
        snap = {
            part: get_registry().get(f"core.serve.latency.{part}_seconds").snapshot()
            for part in ("queue", "exec", "total")
        }
        assert [snap[part]["count"] for part in ("queue", "exec", "total")] == [1, 1, 1]
        assert snap["exec"]["sum"] == result["record"]["host_seconds"]
        assert snap["total"]["sum"] >= snap["exec"]["sum"] + snap["queue"]["sum"]
        # An idle worker took it at once: queueing is not a timer any more.
        assert snap["queue"]["sum"] < 0.02
        # Cache hits complete at submit: they never enter these histograms.
        _http(f"{server.url}/v1/jobs", "POST", TestServerE2E.BODY)
        assert get_registry().get("core.serve.latency.total_seconds").snapshot()["count"] == 1

    def test_host_time_buckets_resolve_milliseconds(self):
        # 1-2-5 steps, 0.5 ms .. 10 s: 3 ms and 9 ms land in different buckets
        # (the decade-wide virtual-time TIME_BUCKETS would merge them).
        assert HOST_TIME_BUCKETS[0] == 0.0005 and HOST_TIME_BUCKETS[-1] == 10.0
        assert list(HOST_TIME_BUCKETS) == sorted(set(HOST_TIME_BUCKETS))
        bucket_of = lambda x: next(b for b in HOST_TIME_BUCKETS if x <= b)  # noqa: E731
        assert bucket_of(0.003) != bucket_of(0.009)


class TestCacheVerification:
    def test_sampled_hit_reexecutes_and_verifies(self, tmp_path):
        with scoped_registry(), ServeServer(
            port=0,
            workers=1,
            cache_dir=tmp_path / "cache",
            verify_cache_every=1,
        ) as server:
            body = {"app": "mergesort", "params": {"n": 256}, "machine": "ibm-sp"}
            _, first = _http(f"{server.url}/v1/jobs", "POST", body)
            _wait_done(server.url, first["id"])

            _, second = _http(f"{server.url}/v1/jobs", "POST", body)
            assert second["cache_hit"] is True
            # Every hit is sampled here: the job re-executes instead of
            # answering instantly, then must report digest equality.
            final = _wait_done(server.url, second["id"])
            assert final["state"] == "done"
            assert final["verified"] is True
            assert _counter("core.serve.cache.verified") == 1
            assert _counter("core.serve.cache.verify_failures") == 0
            _, a = _http(f"{server.url}/v1/jobs/{first['id']}/result")
            _, b = _http(f"{server.url}/v1/jobs/{second['id']}/result")
            assert a["record"]["digest"] == b["record"]["digest"]


class TestBatchedAdmission:
    def test_small_jobs_share_one_dispatch(self, tmp_path):
        gate = tmp_path / "gate"
        gate.touch()
        with scoped_registry(), ServeServer(
            port=0,
            workers=1,
            cache_dir=tmp_path / "cache",
            batch_max=4,
        ) as server:
            _, blocker = _http(
                f"{server.url}/v1/jobs",
                "POST",
                {"app": "serve-test-sleeper", "params": {"gate": str(gate)}},
            )
            wait_until(
                lambda: _http(f"{server.url}/v1/jobs/{blocker['id']}")[1]["state"]
                == "running",
                desc="blocker occupying the worker",
            )
            # The worker is busy: these queue up behind the blocker and
            # must come out as ONE batch when the worker frees.
            small = [
                _http(
                    f"{server.url}/v1/jobs",
                    "POST",
                    {"app": "mergesort", "params": {"n": 64, "seed": seed}},
                )[1]
                for seed in range(3)
            ]
            gate.unlink()
            for job in [blocker, *small]:
                assert _wait_done(server.url, job["id"])["state"] == "done"
            assert _counter("core.serve.jobs.dispatched") == 4
            assert _counter("core.serve.batches.dispatched") == 2
            sizes = get_registry().get("core.serve.batch.size").snapshot()
            assert sizes["max"] == 3

    def test_big_job_in_a_backlog_dispatches_alone_and_in_order(self, tmp_path):
        gate, big_gate = tmp_path / "gate", tmp_path / "big-gate"
        gate.touch()
        big_gate.touch()
        try:
            with scoped_registry(), ServeServer(
                port=0, workers=1, cache_dir=tmp_path / "cache", batch_max=4
            ) as server:

                def submit(body):
                    return _http(f"{server.url}/v1/jobs", "POST", body)[1]

                def small(seed):
                    return {"app": "mergesort", "params": {"n": 64, "seed": seed}}

                def worker_jobs():
                    return _http(f"{server.url}/v1/health")[1]["workers"][0]["jobs"]

                blocker = submit(
                    {"app": "serve-test-sleeper", "params": {"gate": str(gate)}}
                )
                assert blocker["state"] == "running"
                # Backlog behind the busy worker: small, BIG, small, small.
                s1 = submit(small(1))
                big = submit(
                    {
                        "app": "serve-test-sleeper",
                        "params": {"gate": str(big_gate), "seed": 1},
                        "weight": 8.0,
                    }
                )
                s2, s3 = submit(small(2)), submit(small(3))
                assert [j["state"] for j in (s1, big, s2, s3)] == ["queued"] * 4
                gate.unlink()
                # The big job holds the worker alone, after s1 and before s2/s3.
                wait_until(lambda: worker_jobs() == [big["id"]], desc="big job running")
                states = {
                    j["id"]: j["state"] for j in _http(f"{server.url}/v1/jobs")[1]
                }
                assert states[s1["id"]] == "done"
                assert states[s2["id"]] == states[s3["id"]] == "queued"
                big_gate.unlink()
                for job in (blocker, s1, big, s2, s3):
                    assert _wait_done(server.url, job["id"])["state"] == "done"
                # [blocker] [s1] [big] [s2, s3]
                assert _counter("core.serve.jobs.dispatched") == 5
                assert _counter("core.serve.batches.dispatched") == 4
                sizes = get_registry().get("core.serve.batch.size").snapshot()
                assert sizes["max"] == 2 and sizes["sum"] == 5
        finally:
            gate.unlink(missing_ok=True)
            big_gate.unlink(missing_ok=True)


@pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
class TestWorkerFailure:
    def test_killed_worker_requeues_and_digest_survives(self, tmp_path):
        gate = tmp_path / "gate"
        gate.touch()
        with scoped_registry(), ServeServer(
            port=0,
            workers=1,
            cache_dir=tmp_path / "cache",
            heartbeat_timeout=5.0,
        ) as server:
            _, job = _http(
                f"{server.url}/v1/jobs",
                "POST",
                {
                    "app": "serve-test-sleeper",
                    "params": {"gate": str(gate), "n": 256, "seed": 9},
                },
            )

            def busy_pid():
                _, health = _http(f"{server.url}/v1/health")
                for worker in health["workers"]:
                    if job["id"] in worker["jobs"]:
                        return worker["pid"]
                return None

            wait_until(lambda: busy_pid() is not None, desc="job reaching a worker")
            os.kill(busy_pid(), signal.SIGKILL)
            gate.unlink()

            final = _wait_done(server.url, job["id"])
            assert final["state"] == "done"
            assert final["attempts"] == 2
            assert _counter("core.serve.jobs.requeued") == 1
            assert _counter("core.serve.workers.restarts") == 1
            _, result = _http(f"{server.url}/v1/jobs/{job['id']}/result")
            assert result["record"]["digest"] == _direct_digest(
                "mergesort", {"nprocs": 2, "n": 256, "seed": 9}, "ideal"
            )

    def test_job_timeout_fails_job_and_replaces_worker(self, tmp_path):
        gate = tmp_path / "gate"
        gate.touch()
        try:
            with scoped_registry(), ServeServer(
                port=0,
                workers=1,
                cache_dir=tmp_path / "cache",
            ) as server:
                _, job = _http(
                    f"{server.url}/v1/jobs",
                    "POST",
                    {
                        "app": "serve-test-sleeper",
                        "params": {"gate": str(gate), "max_wait": 20.0},
                        "timeout": 0.3,
                    },
                )
                final = _wait_done(server.url, job["id"])
                assert final["state"] == "failed"
                assert "timed out" in final["error"]
                assert _counter("core.serve.jobs.timeouts") == 1
                assert _counter("core.serve.workers.restarts") == 1
                status, _ = _http(f"{server.url}/v1/jobs/{job['id']}/result")
                assert status == 410
                # The replacement worker still serves fresh jobs.
                _, after = _http(
                    f"{server.url}/v1/jobs",
                    "POST",
                    {"app": "mergesort", "params": {"n": 64}},
                )
                assert _wait_done(server.url, after["id"])["state"] == "done"
        finally:
            gate.unlink(missing_ok=True)

    def test_retries_are_bounded(self, tmp_path):
        gate = tmp_path / "gate"
        gate.touch()
        try:
            with scoped_registry(), ServeServer(
                port=0,
                workers=1,
                cache_dir=tmp_path / "cache",
                max_retries=0,
            ) as server:
                _, job = _http(
                    f"{server.url}/v1/jobs",
                    "POST",
                    {"app": "serve-test-sleeper", "params": {"gate": str(gate)}},
                )

                def busy_pid():
                    _, health = _http(f"{server.url}/v1/health")
                    for worker in health["workers"]:
                        if job["id"] in worker["jobs"]:
                            return worker["pid"]
                    return None

                wait_until(lambda: busy_pid() is not None, desc="job reaching a worker")
                os.kill(busy_pid(), signal.SIGKILL)
                final = _wait_done(server.url, job["id"])
                assert final["state"] == "failed"
                assert "gave up" in final["error"]
                assert _counter("core.serve.jobs.requeued") == 0
        finally:
            gate.unlink(missing_ok=True)

    def test_pool_replace_preserves_outstanding_batch(self):
        with scoped_registry():
            pool = WorkerPool(1, heartbeat_timeout=5.0)
            try:
                worker = pool.workers()[0]
                pool.dispatch(worker, [("job-x", {"app": "mergesort"})])
                replacement = pool.replace(worker)
                assert worker.id not in {w.id for w in pool.workers()}
                assert replacement.process.is_alive()
                assert worker.batch is not None  # caller requeues from this
            finally:
                pool.stop()


class TestServedChaos:
    def test_eight_fuzzed_seeds_match_direct_digests(self, server):
        expected_det = _direct_digest("knapfarm", {}, "ibm-sp")
        jobs = []
        for seed in range(8):
            _, job = _http(
                f"{server.url}/v1/jobs",
                "POST",
                {"app": "knapfarm", "machine": "ibm-sp", "backend": "fuzzed", "seed": seed},
            )
            jobs.append((seed, job))
        for seed, job in jobs:
            final = _wait_done(server.url, job["id"])
            assert final["state"] == "done", final
            _, result = _http(f"{server.url}/v1/jobs/{job['id']}/result")
            served = result["record"]["digest"]
            # Each fuzzed schedule matches its direct in-process run AND
            # the deterministic digest: the server adds no nondeterminism
            # and the program is race-free under every schedule.
            assert served == _direct_digest("knapfarm", {}, "ibm-sp", seed, fuzzed=True)
            assert served == expected_det
