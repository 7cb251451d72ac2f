"""Deadlock-reporting matrix: the error must name every blocked rank and
what it awaits, under both run-to-block backends and fault injection.

Three canonical shapes:

- head-to-head: two ranks each receive before the matching send is posted;
- cyclic wait: rank i receives from rank i+1 around a 3-cycle;
- recv-from-failed-rank: the awaited peer died, so the run must surface
  the *failure* (naming the dead rank), never a hang or a bare deadlock.
"""

import threading

import pytest

from repro import DeadlockError, spmd_run
from repro.comm import SUM
from repro.errors import RankFailedError
from repro.runtime.scheduler import FaultPlan

RUN_TO_BLOCK = ["deterministic", "fuzzed"]


def _head_to_head(comm):
    peer = 1 - comm.rank
    comm.recv(peer, tag=4)  # both ranks wait first...
    comm.send(peer, comm.rank, tag=4)  # ...so neither send is ever posted


def _cycle3(comm):
    comm.recv((comm.rank + 1) % comm.size, tag=9)


def _recv_from_failed(comm):
    if comm.rank == 1:
        raise ValueError("boom")
    comm.recv(1, tag=0)


class TestHeadToHead:
    @pytest.mark.parametrize("backend", RUN_TO_BLOCK)
    def test_names_both_ranks_and_their_waits(self, backend):
        with pytest.raises(DeadlockError) as info:
            spmd_run(2, _head_to_head, backend=backend)
        assert set(info.value.waiting) == {0, 1}
        assert "recv(source=1, tag=4" in info.value.waiting[0]
        assert "recv(source=0, tag=4" in info.value.waiting[1]
        # The message itself carries the per-rank diagnostics too.
        assert "rank 0" in str(info.value) and "rank 1" in str(info.value)

    def test_threaded_backend_reports_instead_of_hanging(self):
        with pytest.raises(DeadlockError) as info:
            spmd_run(2, _head_to_head, backend="threads", deadlock_timeout=0.4)
        # Timeout-based detection names at least the rank that gave up.
        assert info.value.waiting
        for rank, describe in info.value.waiting.items():
            assert "recv(" in describe


class TestCyclicWait:
    @pytest.mark.parametrize("backend", RUN_TO_BLOCK)
    def test_names_all_three_ranks(self, backend):
        with pytest.raises(DeadlockError) as info:
            spmd_run(3, _cycle3, backend=backend)
        assert set(info.value.waiting) == {0, 1, 2}
        for rank in range(3):
            assert f"recv(source={(rank + 1) % 3}, tag=9" in info.value.waiting[rank]

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_report_is_seed_independent(self, seed):
        with pytest.raises(DeadlockError) as info:
            spmd_run(3, _cycle3, backend="fuzzed", seed=seed)
        assert set(info.value.waiting) == {0, 1, 2}


class TestRecvFromFailedRank:
    @pytest.mark.parametrize("backend", RUN_TO_BLOCK + ["threads"])
    def test_surfaces_the_failure_naming_the_dead_rank(self, backend):
        kwargs = {"deadlock_timeout": 5.0} if backend == "threads" else {}
        with pytest.raises(RankFailedError) as info:
            spmd_run(3, _recv_from_failed, backend=backend, **kwargs)
        assert info.value.rank == 1
        assert isinstance(info.value.original, ValueError)
        assert "rank 1" in str(info.value)


def _allreduce(comm):
    return comm.allreduce(comm.rank, SUM)


#: every way a run-to-block run ends: nprocs, body, spmd_run options, error
_OUTCOMES = {
    "return": (4, _allreduce, {}, None),
    "head-to-head": (2, _head_to_head, {}, DeadlockError),
    "cycle": (3, _cycle3, {}, DeadlockError),
    "body-raises": (3, _recv_from_failed, {}, RankFailedError),
    "crash": (
        4,
        lambda comm: comm.barrier(),
        {"seed": 1, "faults": FaultPlan(crash_rank=2, crash_at_step=3)},
        RankFailedError,
    ),
}


class TestNoRankOutlivesItsRun:
    """The handoff token invariant: every rank thread is woken exactly as
    often as it waits, so each one exits with its run — whichever way the
    run ends.  (``run()`` joins with a timeout, so a rank that never woke
    would be left behind silently.)"""

    @pytest.mark.parametrize(
        ("backend", "outcome"),
        [
            (backend, outcome)
            for backend in RUN_TO_BLOCK
            for outcome in _OUTCOMES
            # a FaultPlan is the fuzzed backend's; the others ignore it
            if outcome != "crash" or backend == "fuzzed"
        ],
    )
    def test_after_every_terminal_outcome(self, backend, outcome):
        nprocs, body, options, error = _OUTCOMES[outcome]
        before = set(threading.enumerate())
        if error is None:
            spmd_run(nprocs, body, backend=backend, **options)
        else:
            with pytest.raises(error):
                spmd_run(nprocs, body, backend=backend, **options)
        ranks = [
            t
            for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-rank-")
        ]
        for t in ranks:
            t.join(timeout=1.0)
        assert [t.name for t in ranks if t.is_alive()] == []

    @pytest.mark.parametrize("backend", RUN_TO_BLOCK)
    def test_back_to_back_runs_leave_no_thread(self, backend):
        started_with = threading.active_count()
        for seed in range(100):
            res = spmd_run(16, _allreduce, backend=backend, seed=seed)
            assert res.values == [120] * 16
        assert threading.active_count() == started_with
