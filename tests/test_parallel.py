"""Process-parallel backend: digest identity, shm lifecycle, obs round-trip.

The correctness bar for ``backend="parallel"`` is bitwise equality with
the deterministic backend — per-rank values *and* final virtual clocks —
on every shipped app, plus a hard no-leak guarantee for the
shared-memory payload segments on every exit path (normal, crashing,
deadlocked).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import spmd_run
from repro.errors import DeadlockError, RankFailedError
from repro.machines.catalog import get_machine
from repro.obs.metrics import scoped_registry
from repro.runtime.parallel import run_parallel
from repro.verify.digest import value_digest

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="parallel backend tests need a POSIX shared-memory filesystem",
)


def _segments() -> list[str]:
    """This run's shared-memory segments currently present on the host."""
    return [f for f in os.listdir("/dev/shm") if f.startswith("repro-")]


def _ring_body(comm, n):
    data = np.full(n, float(comm.rank))
    comm.send((comm.rank + 1) % comm.size, data, tag=7)
    got = comm.recv(source=(comm.rank - 1) % comm.size, tag=7)
    return float(got.sum())


def _crash_body(comm):
    if comm.rank == 1:
        raise ValueError("injected failure")
    comm.send((comm.rank + 1) % comm.size, np.zeros(100_000), tag=1)
    comm.recv(tag=1)
    return comm.rank


def _deadlock_body(comm):
    comm.send((comm.rank + 1) % comm.size, np.ones(90_000), tag=3)
    comm.recv(source=(comm.rank - 1) % comm.size, tag=99)  # never sent
    return comm.rank


def _exchange_body(comm):
    peer = comm.size - 1 - comm.rank
    if comm.rank < peer:
        comm.send(peer, np.arange(50_000, dtype=np.float64), tag=1)
        return float(comm.recv(source=peer, tag=2).sum())
    if comm.rank > peer:
        got = comm.recv(source=peer, tag=1)
        comm.send(peer, got * 2.0, tag=2)
        return -1.0
    return 0.0


def _frozen_probe_body(comm):
    if comm.rank == 0:
        comm.send(1, np.arange(20_000, dtype=np.float64), tag=4)
        comm.send(1, np.arange(4, dtype=np.float64), tag=5)
        return None
    if comm.rank == 1:
        big = comm.recv(source=0, tag=4)
        small = comm.recv(source=0, tag=5)
        return (big.flags.writeable, small.flags.writeable, float(big[1]))
    return None


def _digest(result) -> str:
    return value_digest([result.times, result.values])


class TestDigestIdentity:
    """Per-rank values and clocks bitwise-equal to the reference backend."""

    def test_ring_identity(self):
        machine = get_machine("ibm-sp")
        ser = spmd_run(4, _ring_body, args=(5000,), machine=machine)
        par = spmd_run(4, _ring_body, args=(5000,), machine=machine, backend="parallel")
        assert par.values == ser.values
        assert par.times == ser.times
        assert par.backend == "parallel"

    @pytest.mark.parametrize("app", ["poisson", "fft2d", "mergesort"])
    @pytest.mark.parametrize("backend", ["threads", "parallel"])
    def test_app_matrix(self, app, backend, monkeypatch):
        """The cross-backend matrix: deterministic × threads × parallel."""
        from tests.conftest import WORKLOADS

        runner, _ = WORKLOADS[app]
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = _digest(runner(4, 1))
        monkeypatch.setenv("REPRO_BACKEND", backend)
        assert _digest(runner(4, 1)) == reference

    def test_cross_backend_report(self):
        from repro.verify.crossbackend import cross_backend_matrix

        report = cross_backend_matrix(programs=["mergesort"])
        assert report.ok, report.summary()
        assert {c.backend for c in report.cells} == {
            "deterministic",
            "threads",
            "parallel",
        }


class TestSegmentLifecycle:
    """No /dev/shm leaks: normal exit, crash, and deadlock paths."""

    def test_normal_exit_leaves_no_segments(self):
        spmd_run(4, _ring_body, args=(50_000,), backend="parallel")
        assert _segments() == []

    def test_crash_leaves_no_segments(self):
        with pytest.raises(RankFailedError) as info:
            spmd_run(4, _crash_body, backend="parallel")
        assert info.value.rank == 1
        assert _segments() == []

    def test_deadlock_leaves_no_segments(self):
        with pytest.raises(DeadlockError) as info:
            spmd_run(4, _deadlock_body, backend="parallel", deadlock_timeout=2.0)
        # the heartbeat detector names every blocked rank and its wait
        assert set(info.value.waiting) == {0, 1, 2, 3}
        assert all("recv" in d for d in info.value.waiting.values())
        assert _segments() == []

    def test_received_arrays_are_frozen(self):
        """The COW contract holds across processes: payloads arrive
        read-only whether they travelled via a segment or via pickle."""
        res = spmd_run(2, _frozen_probe_body, backend="parallel")
        big_writeable, small_writeable, sample = res.values[1]
        assert big_writeable is False
        assert small_writeable is False
        assert sample == 1.0

    def test_threshold_routes_transport(self):
        """``threshold`` switches arrays between segment and pickle."""
        with scoped_registry() as registry:
            run_parallel(4, _ring_body, args=(50_000,), threshold=1_000_000_000)
            snap = registry.snapshot()
        assert "runtime.parallel.shm_segments" not in snap
        assert snap["runtime.parallel.pickled_payloads"]["value"] == 4
        assert _segments() == []

        with scoped_registry() as registry:
            run_parallel(4, _ring_body, args=(50_000,), threshold=1024)
            snap = registry.snapshot()
        assert snap["runtime.parallel.shm_segments"]["value"] == 4
        assert _segments() == []


class TestObservabilityRoundTrip:
    """Worker traces and metrics merge into the parent at join."""

    def test_trace_merge_and_critical_path(self):
        from repro.obs.critical import critical_path

        res = spmd_run(4, _exchange_body, backend="parallel", trace=True)
        assert res.tracer is not None
        assert all(res.tracer.events_for(rank) for rank in range(4))
        report = critical_path(res.tracer)
        assert report.length == pytest.approx(max(res.times), abs=1e-12)

    def test_trace_identical_to_deterministic(self):
        ser = spmd_run(4, _exchange_body, trace=True)
        par = spmd_run(4, _exchange_body, backend="parallel", trace=True)
        assert par.tracer.all_events() == ser.tracer.all_events()

    def test_chrome_export_accepts_merged_trace(self, tmp_path):
        from repro.obs.chrome import export_chrome_trace

        res = spmd_run(4, _exchange_body, backend="parallel", trace=True)
        out = tmp_path / "trace.json"
        export_chrome_trace(res.tracer, out)
        assert out.exists()

    def test_metrics_merge(self):
        with scoped_registry() as registry:
            spmd_run(4, _ring_body, args=(50_000,), backend="parallel")
            snap = registry.snapshot()
        # runtime instrumentation recorded inside the workers is visible
        assert snap["runtime.mailbox.enqueued"]["value"] >= 4
        assert snap["runtime.parallel.shm_segments"]["value"] == 4


class TestFailureDetection:
    def test_rank_exception_carries_remote_traceback(self):
        with pytest.raises(RankFailedError) as info:
            spmd_run(4, _crash_body, backend="parallel")
        assert isinstance(info.value.original, ValueError)
        assert "injected failure" in str(info.value)
        assert "ValueError" in getattr(info.value, "remote_traceback", "")

    def test_hard_crash_is_not_a_hang(self):
        with pytest.raises(RankFailedError) as info:
            spmd_run(3, _hard_exit_body, backend="parallel")
        assert "exit code 17" in str(info.value)
        assert _segments() == []


def _hard_exit_body(comm):
    if comm.rank == 1:
        os._exit(17)
    comm.recv(source=1, tag=5)
    return comm.rank


class TestStartMethods:
    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_strict_start_methods(self, method):
        ser = spmd_run(2, _ring_body, args=(2000,))
        par = run_parallel(2, _ring_body, args=(2000,), start_method=method)
        assert par.values == ser.values
        assert par.times == ser.times
        assert _segments() == []
