"""Per-run metric totals agree across engines.

The runtime and comm instruments are per-rank tallies that land in the
registry once, when a run ends (:func:`repro.runtime.spmd.publish_run`):
from ``spmd_run`` for the in-process engines and from each process-engine
worker before it ships its snapshot.  A race-free program sends, posts
and completes the same messages and requests whatever the schedule, so
every registered app at its verify sizes must report the same totals on
the deterministic, fuzzed, threaded and process engines.  (Queue depths
and wait times depend on the interleaving; only the wait *count* is
compared.)  The per-operation counters of the reductions, the
redistributions, the mesh ops, the one-deep phases, the par-loop layer
and the pipeline are per-rank tallies landed the same way, and are
compared by name: each engine must report the same set with the same
values.  No instrument of a run is in the registry before that run ends,
on the process engine's workers either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import spmd_run
from repro.apps import registry
from repro.obs.metrics import get_registry, scoped_registry
from repro.runtime import backends, spmd
from repro.verify import fuzzed_schedule
from repro.verify.conformance import run_app

COUNTERS = (
    "runtime.mailbox.enqueued",
    "runtime.mailbox.matched",
    "runtime.mailbox.posted",
    "comm.requests.posted",
    "comm.requests.completed",
)
#: per-operation counters, compared by name (an app reports the ones its
#: skeleton uses)
TALLIED = (
    "comm.reductions.",
    "comm.redistribute.",
    "core.kernels.",
    "core.mesh.",
    "core.onedeep.",
    "core.pipeline.",
)
FUZZ_SEED = 5


def _totals(app: str, engine: str) -> dict[str, float]:
    mode = backends.get("deterministic" if engine == "fuzzed" else engine).mode
    with scoped_registry() as metrics:
        if engine == "fuzzed":
            with fuzzed_schedule(FUZZ_SEED):
                result = run_app(app, mode=mode)
        else:
            result = run_app(app, mode=mode)
        snapshot = metrics.snapshot()
    assert result.backend == engine
    totals = {name: snapshot.get(name, {}).get("value", 0.0) for name in COUNTERS}
    totals.update(
        (name, entry["value"])
        for name, entry in snapshot.items()
        if name.startswith(TALLIED) and entry["kind"] == "counter"
    )
    waits = snapshot.get("comm.requests.wait_seconds", {})
    totals["comm.requests.wait_seconds.count"] = waits.get("count", 0)
    return totals


@pytest.mark.parametrize("app", registry.names())
def test_totals_equal_on_every_engine(app):
    reference = _totals(app, "deterministic")
    assert reference["runtime.mailbox.enqueued"] > 0, f"{app} sent no message"
    assert reference["runtime.mailbox.matched"] == reference["runtime.mailbox.enqueued"]
    assert (
        reference["comm.requests.completed"]
        == reference["comm.requests.posted"]
        == reference["comm.requests.wait_seconds.count"]
    )
    for engine in ("fuzzed", "threads", "parallel"):
        assert _totals(app, engine) == reference, f"{app} on {engine}"


@pytest.mark.parametrize("engine", ["deterministic", "threads"])
@pytest.mark.parametrize("app", registry.names())
def test_instruments_land_when_the_run_ends(app, engine, monkeypatch):
    """The registry holds none of a run's instruments until
    ``publish_run`` lands them: every rank body has returned by then, and
    nothing a body did was written to the registry from its thread.
    (The named run consults the tuned catalog first, outside the run.)"""
    seen: list[list[str]] = []
    publish = spmd.publish_run

    def publish_run(engine_, contexts):
        names = get_registry().names()
        seen.append([name for name in names if name.startswith(("runtime.", *TALLIED))])
        publish(engine_, contexts)

    monkeypatch.setattr(spmd, "publish_run", publish_run)
    with scoped_registry():
        run_app(app, mode=backends.get(engine).mode)
    assert seen == [[]], f"{app} on {engine}: in the registry before the run ended"


TRANSPORT = ("runtime.parallel.shm_segments", "runtime.parallel.pickled_payloads")


def _transport_probe(comm):
    """Rank 0 sends one array past the 32 KiB shared-memory threshold and
    one small payload; each rank then lists the transport instruments
    its worker's registry already holds."""
    if comm.rank == 0:
        comm.send(1, np.zeros(8192))
        comm.send(1, 1.0)
    else:
        comm.recv(source=0)
        comm.recv(source=0)
    return [name for name in TRANSPORT if get_registry().get(name) is not None]


def test_process_engine_transport_lands_when_the_run_ends():
    """The process engine's transport counters are per-run tallies too: a
    worker's registry holds neither while its rank body runs, and the
    parent's totals count the one segment and the one pickled payload."""
    with scoped_registry() as metrics:
        result = spmd_run(2, _transport_probe, backend="parallel")
        snapshot = metrics.snapshot()
    assert result.values == [[], []]
    assert [snapshot[name]["value"] for name in TRANSPORT] == [1, 1]
