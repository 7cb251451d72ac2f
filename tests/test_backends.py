"""Backend registry: names, env resolution, runner plumbing."""

from __future__ import annotations

import threading
import time

import pytest

from repro import spmd_run
from repro.core.archetype import ExecutionMode
from repro.errors import DeadlockError, ReproError
from repro.runtime import backends
from tests.conftest import wait_until


def _rank_id(comm):
    return comm.rank


class TestRegistry:
    def test_canonical_names(self):
        assert backends.names() == ("deterministic", "fuzzed", "threads", "parallel")

    def test_unknown_name_raises_listing_choices(self):
        for name in ("warp", "threaded"):
            with pytest.raises(ReproError, match=f"unknown backend '{name}'"):
                backends.resolve(name)

    def test_none_resolves_env_default(self, monkeypatch):
        monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
        assert backends.resolve(None) == "deterministic"
        monkeypatch.setenv(backends.BACKEND_ENV, "threads")
        assert backends.resolve(None) == "threads"

    def test_create_in_process_backends(self):
        from repro.runtime.scheduler import (
            Canonical,
            DeterministicBackend,
            Seeded,
            ThreadedBackend,
        )

        deterministic = backends.create("deterministic", 2)
        assert isinstance(deterministic, DeterministicBackend)
        assert isinstance(deterministic.policy, Canonical)
        fuzzed = backends.create("fuzzed", 2, seed=3)
        assert isinstance(fuzzed, DeterministicBackend)
        assert isinstance(fuzzed.policy, Seeded) and fuzzed.policy.seed == 3
        assert isinstance(backends.create("threads", 2), ThreadedBackend)

    def test_parallel_has_no_in_process_factory(self):
        assert backends.get("parallel").in_process is False
        with pytest.raises(ReproError, match="process-parallel"):
            backends.create("parallel", 2)


class TestRunnerPlumbing:
    def test_spmd_run_honours_env(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "threads")
        res = spmd_run(2, _rank_id)
        assert res.backend == "threads"
        assert res.values == [0, 1]

    def test_spmd_run_rejects_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown backend"):
            spmd_run(2, _rank_id, backend="quantum")

    def test_result_records_backend(self):
        assert spmd_run(2, _rank_id).backend == "deterministic"
        assert spmd_run(2, _rank_id, backend="threads").backend == "threads"

    def test_execution_modes_map_to_backends(self):
        assert ExecutionMode.SEQUENTIAL.backend == "deterministic"
        assert ExecutionMode.THREADS.backend == "threads"
        assert ExecutionMode.PARALLEL.backend == "parallel"

    def test_archetype_mode_none_uses_env(self, monkeypatch):
        import numpy as np

        from repro.apps.sorting.mergesort import one_deep_mergesort

        monkeypatch.setenv(backends.BACKEND_ENV, "threads")
        data = np.random.default_rng(0).integers(0, 100, size=64)
        res = one_deep_mergesort().run(2, data)
        assert res.backend == "threads"


def _starved_recv(comm):
    if comm.rank == 0:
        comm.recv(source=1, tag=9)  # never sent
    return comm.rank


class TestThreadedWait:
    """The condition-variable timeout fix (no 0.1 s polling loop)."""

    def test_deadlock_timeout_does_not_overshoot(self):
        start = time.monotonic()
        with pytest.raises(DeadlockError, match="presumed deadlock"):
            spmd_run(2, _starved_recv, backend="threads", deadlock_timeout=0.4)
        elapsed = time.monotonic() - start
        # one full-budget wait, not ~timeout + up-to-100ms of poll slop
        assert 0.4 <= elapsed < 5.0

    def test_delivery_wakes_waiter_promptly(self):
        waiting = threading.Event()

        def body(comm):
            if comm.rank == 0:
                # hold the send until rank 1 is at (or about to enter) its
                # blocking recv — deadline-based, not a fixed sleep
                wait_until(waiting.is_set, desc="rank 1 reaching its recv")
                comm.send(1, 42, tag=1)
                return None
            waiting.set()
            return comm.recv(source=0, tag=1)

        start = time.monotonic()
        res = spmd_run(2, body, backend="threads", deadlock_timeout=30.0)
        assert res.values[1] == 42
        # the waiter must wake on delivery, nowhere near the deadlock budget
        assert time.monotonic() - start < 5.0
