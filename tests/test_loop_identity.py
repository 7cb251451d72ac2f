"""Declaring a par-loop once changes nothing an observer can see.

``mesh.loop(...)`` moved validation and planning out of the time loop,
and all five mesh applications declare their loops above it.  What a run
*does* must not move: ``tests/data/loop_pins.json`` holds, for each case
at P in {1, 2, 4, 16}, what the tree produced before the application was
ported — poisson, smog and spectralflow re-planned every sweep through
``mesh.parloop``; cfd and fdtd ran the exchange-every-call mesh
operation that PR 24 deleted (its pins were recorded at 6479e67, where
the 24 older entries came out byte-identical) — value digest, every
rank's final virtual clock (``float.hex``), ``runtime.mailbox.enqueued``,
the ``core.kernels.*`` counters, and a SHA-256 of the trace event list
on the deterministic engine, the process-parallel engine and eight
fuzzed schedules.  The counters sit under ``"fused"``.
``python tests/test_loop_identity.py`` re-records the file from the tree
it runs in (run it at the parent of a port only).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import registry
from repro.obs.metrics import scoped_registry
from repro.verify import fuzzed_schedule, value_digest

_PATH = Path(__file__).parent / "data" / "loop_pins.json"
_MACHINE = "ibm-sp"
_NPROCS = (1, 2, 4, 16)
_ENGINES = ("deterministic", "parallel", *(f"fuzzed-{seed}" for seed in range(8)))
_CASES = {
    "poisson-16": ("poisson", {"nx": 16, "ny": 16, "max_iters": 5}),
    "poisson-24x20": ("poisson", {"nx": 24, "ny": 20, "max_iters": 7}),
    "smog-12": ("smog", {"nx": 12, "ny": 12, "steps": 3}),
    "smog-20x16": ("smog", {"nx": 20, "ny": 16, "steps": 2}),
    "spectralflow-16": ("spectralflow", {"nr": 16, "nz": 16, "steps": 2}),
    "spectralflow-32x16": ("spectralflow", {"nr": 32, "nz": 16, "steps": 3}),
    "cfd-16": ("cfd", {"nx": 16, "ny": 16, "steps": 4, "gather": True}),
    "cfd-24x20-reactive": (
        "cfd",
        {"nx": 24, "ny": 20, "steps": 3, "reactive": True, "gather": True},
    ),
    "cfd-16-smooth": ("cfd", {"nx": 16, "ny": 16, "steps": 3, "ic": "smooth", "gather": True}),
    "cfd-16-blocking": ("cfd", {"nx": 16, "ny": 16, "steps": 3, "overlap": False, "gather": True}),
    "cfd-16-unpacked": (
        "cfd",
        {"nx": 16, "ny": 16, "steps": 3, "packed_exchange": False, "gather": True},
    ),
    "fdtd-8": ("fdtd", {"nx": 8, "ny": 8, "nz": 8, "steps": 3, "gather": True}),
    "fdtd-12x8x10": ("fdtd", {"nx": 12, "ny": 8, "nz": 10, "steps": 2, "gather": True}),
    "fdtd-8-blocking": (
        "fdtd",
        {"nx": 8, "ny": 8, "nz": 8, "steps": 2, "overlap": False, "gather": True},
    ),
}


def observe(case: str, nprocs: int, engine: str) -> dict:
    """Everything one run shows: values, clocks, messages, counters, trace."""
    app, params = _CASES[case]
    with scoped_registry() as reg:
        run = lambda mode=None: registry.get(app).run(  # noqa: E731
            {"nprocs": nprocs, **params}, machine=_MACHINE, mode=mode, trace=True
        )
        if engine.startswith("fuzzed-"):
            with fuzzed_schedule(int(engine.split("-")[1])):
                res = run()
        else:
            res = run("parallel" if engine == "parallel" else None)
        snapshot = reg.snapshot()
    events = "\n".join(repr(e) for rank in res.tracer.events for e in rank)
    return {
        "digest": value_digest(res.values),
        "clocks": [float(t).hex() for t in res.times],
        # absent at P = 1: nothing is ever enqueued
        "enqueued": snapshot.get("runtime.mailbox.enqueued", {"value": 0.0})["value"],
        "counters": {
            name: entry["value"]
            for name, entry in sorted(snapshot.items())
            if name.startswith("core.kernels.")
        },
        "trace": hashlib.sha256(events.encode()).hexdigest(),
    }


def _pin(case: str, nprocs: int) -> dict:
    """One (case, P) entry: what every engine shares, the counters, the
    trace hash per engine."""
    pin: dict = {"counters": {}, "trace": {}}
    for engine in _ENGINES:
        seen = observe(case, nprocs, engine)
        shared = {k: seen[k] for k in ("digest", "clocks", "enqueued")}
        assert pin.setdefault("shared", shared) == shared, (case, nprocs, engine)
        assert pin["counters"].setdefault("fused", seen["counters"]) == seen["counters"]
        assert pin["trace"].setdefault(engine, seen["trace"]) == seen["trace"]
    return pin


_PINS = json.loads(_PATH.read_text()) if _PATH.exists() else {"pins": {}}


@pytest.mark.parametrize("nprocs", _NPROCS)
@pytest.mark.parametrize("case", _CASES)
def test_declared_loops_reproduce_the_parent(case, nprocs):
    assert _pin(case, nprocs) == _PINS["pins"][f"{case}-p{nprocs}"]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    pins = {f"{case}-p{p}": _pin(case, p) for case in _CASES for p in _NPROCS}
    _PATH.write_text(
        json.dumps({"commit": commit, "machine": _MACHINE, "pins": pins}, indent=1) + "\n"
    )
    print(f"recorded {len(pins)} pins at {commit} -> {_PATH}")
