"""Shared test fixtures and helpers.

Schedule fuzzing: marking a test ``@pytest.mark.chaos`` re-runs it once
per seed with every ``backend="deterministic"`` run inside it promoted to
the fuzzed backend — the same run-to-block engine with a
:class:`~repro.runtime.scheduler.Seeded` choice policy (via
:func:`repro.verify.fuzzed_schedule`) — so the test's own assertions check
schedule-independence.  ``--chaos-seeds=N`` sets the seed count globally;
``@pytest.mark.chaos(seeds=K)`` raises it per test (the larger wins).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import spmd_run
from repro.apps import registry
from repro.machines.catalog import IDEAL
from repro.verify import fuzzed_schedule


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--chaos-seeds",
        type=int,
        default=4,
        metavar="N",
        help="seeds per @pytest.mark.chaos test (default 4)",
    )


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    marker = metafunc.definition.get_closest_marker("chaos")
    if marker is None:
        return
    n = max(
        int(marker.kwargs.get("seeds", 0)),
        metafunc.config.getoption("--chaos-seeds"),
    )
    # _chaos_seed is autouse, so it is always parametrisable even though
    # the test function never names it.
    metafunc.parametrize(
        "_chaos_seed", range(n), indirect=True, ids=[f"seed{s}" for s in range(n)]
    )


@pytest.fixture(autouse=True)
def _isolated_tune_catalog(tmp_path, monkeypatch):
    """Point the tuned-config catalog at an empty per-test directory.

    Named-app runs (``AppSpec.run`` — registry, obs, verify, tune) and
    the job server's admission consult the catalog by default; without
    this, entries tuned on the host (under ``~/.cache/repro/tuned``)
    would leak process grids and tuned app parameters into the digest,
    clock, and conformance suites.  ``Archetype.run`` itself never
    consults it.
    """
    monkeypatch.setenv("REPRO_TUNE_DIR", str(tmp_path / "tuned"))


@pytest.fixture(autouse=True)
def _chaos_seed(request: pytest.FixtureRequest):
    """Under the ``chaos`` marker, wrap the test in a fuzzed schedule."""
    if request.node.get_closest_marker("chaos") is None:
        yield None
        return
    seed = getattr(request, "param", 0)
    with fuzzed_schedule(seed):
        yield seed


def wait_until(predicate, timeout=5.0, interval=0.005, desc="condition"):
    """Poll *predicate* until it's true or the deadline expires.

    The replacement for fixed ``time.sleep`` waits in backend tests: a
    sleep long enough to be reliable is slow, and a fast one is flaky —
    a deadline poll is both quick in the common case and generous under
    CI load.  Raises ``AssertionError`` (naming *desc*) on timeout.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    if predicate():  # one last look after the deadline
        return True
    raise AssertionError(f"timed out after {timeout}s waiting for {desc}")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(params=["deterministic", "threads"])
def backend(request) -> str:
    """Run a test under both scheduling backends."""
    return request.param


def _registry_workload(app: str, machine: str, knob: str, base: int):
    def run(nprocs: int, scale: int = 1):
        return registry.get(app).run(
            {"nprocs": nprocs, knob: base * scale}, machine=machine
        )

    return run, registry.get(app).description


#: The messaging-heavy trio — ``name -> (run(nprocs, scale=1), registry
#: description)`` — at the parameters ``tests/data/slowpath_pins.json``
#: was recorded with; also the cross-backend digest matrix's workloads.
WORKLOADS = {
    "poisson": _registry_workload("poisson", "ibm-sp", "max_iters", 8),
    "fft2d": _registry_workload("fft2d", "ibm-sp", "repeats", 2),
    "mergesort": _registry_workload("mergesort", "intel-delta", "n", 4096),
}


def run_both_backends(nprocs, fn, args=(), machine=IDEAL, **kwargs):
    """Run on both backends and assert identical per-rank results.

    Returns the deterministic backend's RunResult.  Results are compared
    with numpy-aware equality.
    """
    det = spmd_run(nprocs, fn, args=args, machine=machine, backend="deterministic", **kwargs)
    thr = spmd_run(nprocs, fn, args=args, machine=machine, backend="threads", **kwargs)
    for rank, (a, b) in enumerate(zip(det.values, thr.values)):
        assert_equal_values(a, b, f"rank {rank} differs between backends")
    assert det.times == thr.times, "virtual clocks differ between backends"
    return det


def assert_equal_values(a, b, msg=""):
    """Deep equality that understands numpy arrays inside containers."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(np.asarray(a), np.asarray(b)), msg
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        assert len(a) == len(b), msg
        for x, y in zip(a, b):
            assert_equal_values(x, y, msg)
    elif isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), msg
        for k in a:
            assert_equal_values(a[k], b[k], msg)
    else:
        assert a == b, msg
