"""The runtime hot path: pinned against its deleted twin, plus the
payload contract.

(The file keeps its historical name because its test ids are on the
suite's floor list; what it tests is described here.)

Two families of checks:

- **A/B identity against recorded pins** — the runtime used to carry a
  second, slower set of host paths (eager deep copies, linear-scan
  mailboxes, an O(P) scheduler scan) whose only job was to be compared
  against.  Before it was deleted, the messaging-heavy workloads (Jacobi
  Poisson, 2-D FFT, one-deep mergesort) were run on it at 8 ranks under
  the deterministic schedule and eight fuzzed-schedule seeds, and the
  per-rank virtual clocks (``float.hex``), the value digest and — for
  fuzzed runs — the digest of the scheduler's pick log were recorded in
  ``tests/data/slowpath_pins.json``.  The A side is that file; the B side
  is the runtime.  Clocks must be *bitwise* identical.
- **Copy-on-write contract** — a received ndarray is read-only
  (``np.asarray(x).copy()`` to mutate) and shares no mutable memory with
  the sender; forwarded frozen payloads are shared zero-copy; a payload
  arrives as its own type (a namedtuple as that namedtuple) and is
  measured exactly as ``nbytes_of`` measures it.
"""

import json
from collections import defaultdict, namedtuple
from pathlib import Path

import numpy as np
import pytest

from repro import spmd_run
from repro.runtime.context import _freeze_measure
from repro.util.nbytes import nbytes_of
from repro.verify import fuzzed_schedule, value_digest
from tests.conftest import WORKLOADS

_PINS = json.loads((Path(__file__).parent / "data" / "slowpath_pins.json").read_text())
NPROCS = _PINS["nprocs"]
PINS = {(row["app"], row["seed"]): row for row in _PINS["rows"]}
CHAOS_SEEDS = range(8)

APPS = sorted(WORKLOADS)


def _assert_reproduces(pin, res, what: str) -> None:
    # Clocks: exact float equality, not approx — not a single virtual
    # timestamp may differ from what the deleted path produced.
    assert [float(t).hex() for t in res.times] == pin["clocks"], (
        f"{what}: virtual clocks differ from the pinned slow-path run"
    )
    assert value_digest(res.values) == pin["values"], (
        f"{what}: results differ from the pinned slow-path run"
    )


# -- A/B identity -----------------------------------------------------------
@pytest.mark.parametrize("app", APPS)
def test_ab_identity_deterministic(app):
    runner, _ = WORKLOADS[app]
    _assert_reproduces(PINS[app, None], runner(NPROCS), app)


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_ab_identity_fuzzed(app, seed):
    """The scheduler's rng stream is part of the observable behaviour:
    an extra draw or a reordered pick changes the pick log, so its digest
    is pinned alongside the clocks and values."""
    runner, _ = WORKLOADS[app]
    pin = PINS[app, seed]
    with fuzzed_schedule(seed):
        res = runner(NPROCS)
    _assert_reproduces(pin, res, f"{app} seed={seed}")
    assert value_digest(res.schedule) == pin["schedule"], (
        f"{app} seed={seed}: scheduler pick log differs from the pinned run"
    )


# -- copy-on-write contract --------------------------------------------------
def _send_then_mutate(comm, nonblocking=False):
    if comm.rank == 0:
        arr = np.arange(8.0)
        if nonblocking:
            req = comm.isend(1, arr)
            arr[0] = 99.0  # must not reach the receiver
            comm.wait(req)
        else:
            comm.send(1, arr)
            arr[0] = 99.0  # must not reach the receiver
        return None
    if comm.rank == 1:
        return comm.recv(0)
    return None


def test_received_array_is_readonly():
    res = spmd_run(2, _send_then_mutate)
    got = res.values[1]
    assert not got.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        got[0] = -1.0
    # The documented mutation idiom always works.
    mine = np.asarray(got).copy()
    mine[0] = -1.0
    assert mine[0] == -1.0


@pytest.mark.parametrize("nonblocking", [False, True])
def test_sender_mutation_after_send_is_isolated(nonblocking):
    """``send`` and ``isend`` each detach the payload at post time."""
    res = spmd_run(2, _send_then_mutate, args=(nonblocking,))
    np.testing.assert_array_equal(res.values[1], np.arange(8.0))


def _bcast_array(comm):
    value = np.arange(16.0) if comm.rank == 0 else None
    return comm.bcast(value, root=0)


def test_forwarded_frozen_payload_is_shared_zero_copy():
    """A non-root bcast hop receives an already-frozen buffer and
    forwards that same object to its children instead of re-copying.
    (In the 4-rank binomial tree rank 2 forwards root's message to
    rank 3.)"""
    res = spmd_run(4, _bcast_array)
    received = [res.values[r] for r in range(1, 4)]
    for arr in received:
        np.testing.assert_array_equal(arr, np.arange(16.0))
        assert not arr.flags.writeable
    assert res.values[3] is res.values[2]


def _recv_then_forward(comm):
    if comm.rank == 0:
        comm.send(1, np.arange(4.0))
        return None
    if comm.rank == 1:
        got = comm.recv(0)
        comm.send(2, got)  # forwarding a frozen array must not re-copy
        return got
    return comm.recv(1)


def test_forwarding_a_received_array_shares_it():
    res = spmd_run(3, _recv_then_forward)
    assert res.values[2] is res.values[1]


# -- what _freeze_measure returns -------------------------------------------
_Point = namedtuple("_Point", "x y")


class _Tagged(tuple):
    pass


class _Stack(list):
    pass


class TestFreezeMeasure:
    """The detachment walk keeps a payload's type and measures exactly
    what ``nbytes_of`` does (less the envelope)."""

    PAYLOADS = [
        None, 7, 2.5, 1 + 2j, True, b"abc", "text", (1, 2.0), [3, (4, 5)],
        {"k": np.zeros(3)}, np.arange(4.0), np.float64(1.5), np.int32(3),
        np.complex128(1j), np.bool_(True), _Point(1, 2.5), _Tagged((1, "a")),
        _Stack([np.zeros(2), 3]), defaultdict(int, a=1), frozenset({1, 2}),
        memoryview(b"abcdef"), memoryview(np.arange(6.0)), bytearray(b"xy"),
    ]  # fmt: skip

    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_size_is_nbytes_of(self, payload):
        _, size = _freeze_measure(payload)
        assert size + 16 == nbytes_of(payload)

    @pytest.mark.parametrize(
        "payload", [_Point(1, 2.5), _Tagged((1, "a")), _Stack([1, 2]), defaultdict(int, a=1)],
        ids=lambda p: type(p).__name__,
    )  # fmt: skip
    def test_subclass_keeps_its_type(self, payload):
        frozen, _ = _freeze_measure(payload)
        assert type(frozen) is type(payload)
        assert frozen == payload

    def test_subclass_keeps_its_attributes(self):
        stack = _Stack([1, 2])
        stack.label = ["halo"]
        frozen, _ = _freeze_measure(stack)
        assert frozen.label == ["halo"] and frozen.label is not stack.label

    def test_namedtuple_arrives_as_itself(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, _Point(np.arange(2.0), 3))
                return None
            return comm.recv(0)

        got = spmd_run(2, body).values[1]
        assert type(got) is _Point and got.y == 3
        np.testing.assert_array_equal(got.x, np.arange(2.0))
        assert not got.x.flags.writeable

    def test_complex128_is_sixteen_bytes(self):
        assert _freeze_measure(np.complex128(1j)) == (np.complex128(1j), 16)

    def test_memoryview_is_detached(self):
        source = bytearray(b"abcd")

        def body(comm):
            if comm.rank == 0:
                comm.send(1, memoryview(source))
                source[0] = ord("z")  # after the send: must not reach rank 1
                return None
            return comm.recv(0)

        got = spmd_run(2, body).values[1]
        assert isinstance(got, memoryview) and got.readonly
        assert got.tobytes() == b"abcd"

    def test_memoryview_keeps_format_and_shape(self):
        view = memoryview(np.arange(6.0).reshape(2, 3))
        frozen, size = _freeze_measure(view)
        assert (frozen.format, frozen.shape) == (view.format, view.shape)
        assert frozen.tolist() == view.tolist()
        assert size == 48  # the buffer's bytes, not its first dimension
