"""The verification subsystem: fuzzed backend, explorer, faults, races."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import spmd_run
from repro.comm import SUM
from repro.errors import DeadlockError, InjectedFaultError, RankFailedError
from repro.machines.catalog import IBM_SP
from repro.runtime.message import ANY_SOURCE
from repro.runtime.scheduler import FaultPlan
from repro.trace.events import MatchEvent
from repro.verify import ScheduleExplorer, fuzzed_schedule, scan_races, value_digest
from repro.verify.demo import (
    race_free_arrival,
    racy_first_arrival,
    racy_float_reduction,
)
from tests.conftest import assert_equal_values


def _allreduce_body(comm):
    return comm.allreduce(comm.rank + 1, SUM)


def _collectives_body(comm):
    total = comm.allreduce(comm.rank + 1, SUM)
    comm.barrier()
    return total, comm.alltoall([comm.rank * 10 + d for d in range(comm.size)])


#: ``tests/data/fault_pins.json``: fault-injected fuzzed runs recorded
#: before the fuzzed engine became a choice policy of the deterministic
#: one (the delay queue and crash logic moved then).  Each row is
#: :func:`_fault_row` of one (plan, seed); regenerate nothing — a change
#: that alters a row alters an interleaving.
_FAULT_PINS = json.loads(
    (Path(__file__).parent / "data" / "fault_pins.json").read_text()
)


def _fault_row(plan: dict, seed: int) -> dict:
    """Run the collectives body under *plan* (``nprocs`` plus
    :class:`FaultPlan` fields) and describe the run: pick-log digest,
    ``float.hex`` clocks, value and trace digests — or, for a run that
    fails, its error text."""
    fields = {k: v for k, v in plan.items() if k != "nprocs"}
    try:
        res = spmd_run(
            plan["nprocs"], _collectives_body, machine=IBM_SP, backend="fuzzed",
            seed=seed, faults=FaultPlan(**fields), trace=True,
        )  # fmt: skip
    except (RankFailedError, DeadlockError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "schedule": value_digest(res.schedule),
        "clocks": [float(t).hex() for t in res.times],
        "values": value_digest(res.values),
        "trace": value_digest([repr(e) for rank in res.tracer.events for e in rank]),
    }


class TestFuzzedBackend:
    def test_is_a_backend_name(self):
        res = spmd_run(4, _allreduce_body, backend="fuzzed", seed=3)
        assert res.values == [10, 10, 10, 10]

    def test_schedules_differ_across_seeds(self):
        logs = {
            tuple(spmd_run(4, _allreduce_body, backend="fuzzed", seed=s).schedule)
            for s in range(8)
        }
        assert len(logs) > 1, "8 seeds produced a single interleaving"

    def test_same_seed_exactly_reproducible(self):
        """Same seed ⇒ same scheduling decisions, same digests, and a
        byte-identical trace event sequence."""
        runs = [
            spmd_run(5, _allreduce_body, backend="fuzzed", seed=11, trace=True)
            for _ in range(2)
        ]
        a, b = runs
        assert a.schedule == b.schedule
        assert [value_digest(v) for v in a.values] == [
            value_digest(v) for v in b.values
        ]
        assert a.times == b.times
        flat_a = [repr(e) for rank in a.tracer.events for e in rank]
        flat_b = [repr(e) for rank in b.tracer.events for e in rank]
        assert flat_a == flat_b

    def test_results_match_deterministic_for_clean_program(self):
        det = spmd_run(6, _allreduce_body)
        for seed in range(8):
            fz = spmd_run(6, _allreduce_body, backend="fuzzed", seed=seed)
            assert_equal_values(fz.values, det.values)
            assert fz.times == det.times

    def test_deadlock_still_reported_with_all_ranks(self):
        def body(comm):
            comm.recv((comm.rank + 1) % comm.size, tag=0)

        with pytest.raises(DeadlockError) as info:
            spmd_run(3, body, backend="fuzzed", seed=0)
        assert set(info.value.waiting) == {0, 1, 2}

    def test_wildcard_perturbation_respects_fifo_per_source(self):
        """Two same-source messages matching one wildcard receive must
        still arrive in send order under matching perturbation."""

        def body(comm):
            if comm.rank == 0:
                return [comm.recv(ANY_SOURCE, tag=5) for _ in range(4)]
            comm.send(0, ("first", comm.rank), tag=5)
            comm.send(0, ("second", comm.rank), tag=5)
            return None

        for seed in range(12):
            res = spmd_run(3, body, backend="fuzzed", seed=seed)
            order = {}
            for label, rank in res.values[0]:
                order.setdefault(rank, []).append(label)
            for rank, labels in order.items():
                assert labels == ["first", "second"], (seed, rank, labels)


class TestFuzzedScheduleOverride:
    def test_promotes_deterministic_runs(self):
        with fuzzed_schedule(7):
            res = spmd_run(4, _allreduce_body)
        assert res.schedule is not None

    def test_leaves_threads_backend_alone(self):
        with fuzzed_schedule(7):
            res = spmd_run(4, _allreduce_body, backend="threads")
        assert res.schedule is None

    def test_restores_on_exit(self):
        with fuzzed_schedule(7):
            pass
        assert spmd_run(2, _allreduce_body).schedule is None


class TestScheduleExplorer:
    def test_clean_program_sixteen_seeds(self):
        report = ScheduleExplorer.for_body(5, _allreduce_body).explore(16)
        assert report.ok
        assert report.seeds == list(range(16))
        assert "no nondeterminism" in report.summary()

    def test_racy_program_detected_with_replayable_seed(self):
        explorer = ScheduleExplorer.for_body(4, racy_first_arrival)
        report = explorer.explore(16)
        assert report.findings, "arrival-order race went undetected over 16 seeds"
        finding = report.findings[0]
        assert finding.rank == 0
        # Replaying the offending seed reproduces the exact divergent digest.
        replayed = explorer.replay(finding.seed)
        assert explorer.digests(replayed)[finding.rank] == finding.digest
        assert str(finding.seed) in finding.describe()

    def test_float_reduction_race_detected(self):
        report = ScheduleExplorer.for_body(5, racy_float_reduction).explore(16)
        assert report.findings

    def test_race_detector_flags_wildcard_receive(self):
        report = ScheduleExplorer.for_body(4, racy_first_arrival).explore(16)
        assert report.races, "no wildcard race observed over 16 seeds"
        race = report.races[0]
        assert race.rank == 0
        assert len(race.candidates) > 1
        assert race.chosen in race.candidates
        assert "could have matched" in race.describe()

    def test_no_races_reported_for_point_to_point(self):
        report = ScheduleExplorer.for_body(4, _allreduce_body).explore(8)
        assert report.races == []

    def test_schedule_dependent_deadlock_is_a_failure_finding(self):
        """A program that deadlocks only under some schedules must be
        reported with the seed, not raised out of explore()."""

        def body(comm):
            # Rank 1 only posts its send after probing; whether the probe
            # sees rank 0's message depends on the schedule.
            if comm.rank == 0:
                comm.send(1, "x", tag=1)
                comm.recv(1, tag=2)
            else:
                if not comm.probe(0, tag=1):
                    comm.recv(0, tag=3)  # wrong tag: blocks forever
                comm.send(0, "y", tag=2)
                comm.recv(0, tag=1)

        report = ScheduleExplorer.for_body(2, body, trace=False).explore(32)
        assert report.failures, "schedule-dependent deadlock never triggered"
        assert "DeadlockError" in report.failures[0].error

    def test_explicit_seed_iterable(self):
        report = ScheduleExplorer.for_body(3, _allreduce_body).explore([5, 9])
        assert report.seeds == [5, 9]
        assert report.ok


class TestApplicationsScheduleIndependent:
    """Acceptance: 16 seeds over the flagship apps, zero findings."""

    def test_mergesort(self):
        from repro.apps.sorting.mergesort import one_deep_mergesort

        data = np.random.default_rng(0).integers(0, 10**6, size=1024)
        explorer = ScheduleExplorer(lambda: one_deep_mergesort().run(4, data))
        report = explorer.explore(16)
        assert report.ok, report.summary()

    def test_fft2d(self):
        from repro.apps.fft2d import fft2d_archetype

        rng = np.random.default_rng(1)
        arr = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        explorer = ScheduleExplorer(lambda: fft2d_archetype().run(4, arr, 1))
        report = explorer.explore(16)
        assert report.ok, report.summary()

    def test_poisson(self):
        from repro.apps.poisson import poisson_archetype

        explorer = ScheduleExplorer(
            lambda: poisson_archetype().run(4, 12, 12, tolerance=1e-3)
        )
        report = explorer.explore(16)
        assert report.ok, report.summary()


class TestFaultInjection:
    def test_crash_reported_as_rank_failure_not_hang(self):
        plan = FaultPlan(crash_rank=2, crash_at_step=3)
        with pytest.raises(RankFailedError) as info:
            spmd_run(4, lambda c: c.barrier(), backend="fuzzed", seed=1, faults=plan)
        assert info.value.rank == 2
        assert isinstance(info.value.original, InjectedFaultError)

    def test_crash_of_blocked_rank_unwinds(self):
        """A rank already blocked on a receive when its crash comes due
        must still fail precisely (not deadlock the run)."""

        def body(comm):
            if comm.rank == 1:
                comm.recv(0, tag=9)  # never sent
            else:
                comm.recv(1, tag=8)  # never sent either

        plan = FaultPlan(crash_rank=1, crash_at_step=5)
        with pytest.raises(RankFailedError) as info:
            spmd_run(2, body, backend="fuzzed", seed=0, faults=plan)
        assert info.value.rank == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_delays_never_corrupt_or_deadlock_collectives(self, seed):
        plan = FaultPlan(delay_prob=0.6, max_delay_steps=8)
        det = spmd_run(5, _allreduce_body)
        fz = spmd_run(5, _allreduce_body, backend="fuzzed", seed=seed, faults=plan)
        assert fz.values == det.values

    def test_delays_preserve_fifo_per_channel(self):
        def body(comm):
            if comm.rank == 0:
                return [comm.recv(1, tag=0) for _ in range(5)]
            for i in range(5):
                comm.send(0, i, tag=0)
            return None

        plan = FaultPlan(delay_prob=0.8, max_delay_steps=10)
        for seed in range(8):
            res = spmd_run(2, body, backend="fuzzed", seed=seed, faults=plan)
            assert res.values[0] == [0, 1, 2, 3, 4], seed

    def test_real_deadlock_still_precise_under_delays(self):
        def body(comm):
            comm.recv((comm.rank + 1) % comm.size, tag=0)

        plan = FaultPlan(delay_prob=0.5, max_delay_steps=4)
        with pytest.raises(DeadlockError) as info:
            spmd_run(3, body, backend="fuzzed", seed=2, faults=plan)
        assert set(info.value.waiting) == {0, 1, 2}

    @pytest.mark.parametrize(
        "index", range(len(_FAULT_PINS)), ids=lambda i: _FAULT_PINS[i]["id"]
    )
    def test_fault_injected_runs_reproduce_pins(self, index):
        """Delay queues and crashes draw from the schedule's seeded
        stream, so every draw and its order is pinned behaviour."""
        pin = _FAULT_PINS[index]
        assert _fault_row(pin["plan"], pin["seed"]) == pin["row"], pin["id"]

    def test_explorer_reports_crash_seeds_as_failures(self):
        explorer = ScheduleExplorer.for_body(
            3, _allreduce_body, faults=FaultPlan(crash_rank=1, crash_at_step=2)
        )
        report = explorer.explore(4)
        assert len(report.failures) == 4
        assert all("InjectedFaultError" in f.error for f in report.failures)


class TestDigest:
    def test_distinguishes_types(self):
        assert value_digest(1) != value_digest("1")
        assert value_digest(1) != value_digest(1.0)
        assert value_digest(True) != value_digest(1)
        assert value_digest([1, 2]) != value_digest((1, 2))

    def test_numpy_arrays(self):
        a = np.arange(6).reshape(2, 3)
        assert value_digest(a) == value_digest(a.copy())
        assert value_digest(a) != value_digest(a.astype(float))
        assert value_digest(a) != value_digest(a.reshape(3, 2))
        # Non-contiguous views digest by content, not memory layout.
        assert value_digest(a.T) == value_digest(np.ascontiguousarray(a.T))

    def test_dict_order_independent(self):
        assert value_digest({"a": 1, "b": 2}) == value_digest({"b": 2, "a": 1})

    def test_dataclasses(self):
        from repro.apps.poisson import PoissonResult

        r1 = PoissonResult(iterations=3, diffmax=0.5, solution=np.eye(2))
        r2 = PoissonResult(iterations=3, diffmax=0.5, solution=np.eye(2))
        r3 = PoissonResult(iterations=4, diffmax=0.5, solution=np.eye(2))
        assert value_digest(r1) == value_digest(r2)
        assert value_digest(r1) != value_digest(r3)


class TestMatchEventRecording:
    def test_recorded_for_wildcard_under_fuzzing(self):
        res = spmd_run(
            4, racy_first_arrival, backend="fuzzed", seed=1, trace=True
        )
        events = [
            e for rank in res.tracer.events for e in rank if isinstance(e, MatchEvent)
        ]
        assert events, "wildcard receives recorded no MatchEvents"
        assert all(e.rank == 0 and e.wildcard_source for e in events)
        assert scan_races(res, seed=1) == [
            r for r in scan_races(res, seed=1)
        ]  # stable

    def test_not_recorded_for_directed_receives(self):
        res = spmd_run(4, _allreduce_body, backend="fuzzed", seed=1, trace=True)
        events = [
            e for rank in res.tracer.events for e in rank if isinstance(e, MatchEvent)
        ]
        assert events == []


class TestSmokeEntryPoint:
    def test_module_main_smoke(self, capsys):
        from repro.verify.__main__ import main

        assert main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "chaos suite: passed" in out

    def test_replay_prints_digests(self, capsys):
        from repro.verify.__main__ import main

        assert main(["--program", "racy-arrival", "--replay", "3"]) == 0
        out = capsys.readouterr().out
        assert "rank 0:" in out


class TestDemoControls:
    """Regression: the detector fires on the racy demo and stays silent
    on the race-free control — same traffic shape, directed receives."""

    SEEDS = 8

    def test_racy_demo_flagged_under_eight_seeds(self):
        report = ScheduleExplorer.for_body(4, racy_first_arrival).explore(self.SEEDS)
        assert report.races, "wildcard race went undetected over 8 seeds"
        assert report.findings, "result divergence went undetected over 8 seeds"
        assert not report.ok

    def test_race_free_control_stays_silent_under_eight_seeds(self):
        report = ScheduleExplorer.for_body(4, race_free_arrival).explore(self.SEEDS)
        assert report.ok
        assert report.races == []
        assert report.findings == []

    def test_control_returns_fixed_first_source(self):
        res = spmd_run(4, race_free_arrival)
        assert res.values[0] == 1
        assert res.values[1:] == [None, None, None]

    def test_control_registered_in_cli_as_clean(self):
        from repro.verify.__main__ import PROGRAMS

        factory, races_expected = PROGRAMS["race-free-arrival"]
        assert races_expected is False
        assert factory().explore(4).ok
