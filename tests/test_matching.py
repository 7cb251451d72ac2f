"""Receives match in send order on every engine (MPI non-overtaking).

``isend`` charges only its post overhead, so a 1 MiB message followed by
a small one on the same channel *arrives* after it in virtual time.  The
receiver must still take them in send order — through a blocking
receive, a wildcard-tag receive and a pair of posted receives — and
give the same answer on the deterministic, fuzzed, threaded and process
engines.  The same matrix holds ``probe``, ``test``, ``wait`` and
``waitany`` to the answers program order fixes.  The per-engine tests
are marked ``chaos``, which runs each eight times and turns their
``deterministic`` runs into seeded fuzzed ones; the last test holds the
unfuzzed deterministic engine to the same answers.
"""

import numpy as np
import pytest

from repro import spmd_run
from repro.machines.catalog import get_machine
from repro.obs.critical import pair_messages
from repro.runtime.message import ANY_TAG

ENGINES = ("deterministic", "fuzzed", "threads", "parallel")
MACHINE = get_machine("ibm-sp")


def _isend_big_then_small(comm, tags):
    big = comm.isend(1, np.zeros(1 << 17), tag=tags[0])
    small = comm.isend(1, "small", tag=tags[1])
    comm.waitall([big, small])


def _recv_twice(comm):
    if comm.rank == 0:
        return _isend_big_then_small(comm, (5, 5))
    return [comm.recv(0, 5), comm.recv(0, 5)]


def _recv_any_tag(comm):
    if comm.rank == 0:
        return _isend_big_then_small(comm, (1, 2))
    return [comm.recv_msg(0, ANY_TAG).tag, comm.recv_msg(0, ANY_TAG).tag]


def _irecv_twice(comm):
    if comm.rank == 0:
        return _isend_big_then_small(comm, (5, 5))
    return comm.waitall([comm.irecv(0, 5), comm.irecv(0, 5)])


def _probe_test_wait(comm):
    """``probe``/``test``/``wait``/``waitany`` only where program order
    fixes the answer: after a later message on the same channel has been
    received, before a message its sender holds back, and on a message a
    rank sent itself.  (A ``test`` spin would never yield on the
    run-to-block engines.)"""
    if comm.rank == 0:
        for word in ("a", "b", "c"):
            comm.send(1, word, tag=5)
        comm.recv(1, 7)
        comm.send(1, "d", tag=6)
        return None
    first, second = comm.irecv(0, 5), comm.irecv(0, 5)
    # "c" is received only after "a" and "b" arrived and bound the posts.
    answers = [comm.recv(0, 5), first.test(), comm.test(second), comm.probe(0, 5)]
    answers += [first.wait(), comm.waitany([first, second])]
    held = comm.irecv(0, 6)  # rank 0 sends it only after "go"
    answers += [held.test(), comm.probe(0, 6)]
    comm.send(1, "self", tag=9)
    answers += [comm.probe(1, 9), comm.recv(1, 9)]
    comm.send(0, "go", tag=7)
    return answers + [comm.waitany([held])]


def _run(body, engine, seed=0, trace=False):
    # An explicit "fuzzed" run is never promoted; seed it apart from the
    # chaos seeds the promoted "deterministic" runs use.
    return spmd_run(
        2, body, machine=MACHINE, backend=engine, trace=trace,
        deadlock_timeout=10.0, seed=100 + seed,
    )


def _assert_big_then_small(got):
    first, second = got
    assert isinstance(first, np.ndarray) and first.shape == (1 << 17,), first
    assert second == "small"


def _check_recv(engine, seed=0):
    _assert_big_then_small(_run(_recv_twice, engine, seed).values[1])


def _check_any_tag(engine, seed=0):
    assert _run(_recv_any_tag, engine, seed).values[1] == [1, 2]


def _check_irecv(engine, seed=0):
    _assert_big_then_small(_run(_irecv_twice, engine, seed).values[1])


def _check_probe_test_wait(engine, seed=0):
    assert _run(_probe_test_wait, engine, seed).values[1] == [
        "c", True, True, False, "a", (1, "b"), False, False, True, "self", (0, "d"),
    ]


def _check_trace_pairs(engine, seed=0):
    pairs = pair_messages(_run(_recv_twice, engine, seed, trace=True).tracer)
    assert len(pairs) == 2
    for pair in pairs:
        assert pair.send.nbytes == pair.recv.nbytes


def per_engine(test):
    """Run *test* on every engine, eight times (chaos seeds)."""
    return pytest.mark.chaos(seeds=8)(pytest.mark.parametrize("engine", ENGINES)(test))


@per_engine
def test_recv_takes_a_channel_in_send_order(engine, _chaos_seed):
    _check_recv(engine, _chaos_seed)


@per_engine
def test_any_tag_recv_takes_the_senders_oldest_message(engine, _chaos_seed):
    _check_any_tag(engine, _chaos_seed)


@per_engine
def test_posted_receives_bind_in_send_order(engine, _chaos_seed):
    _check_irecv(engine, _chaos_seed)


@per_engine
def test_probe_test_wait_answer_as_program_order_fixes(engine, _chaos_seed):
    _check_probe_test_wait(engine, _chaos_seed)


@per_engine
def test_trace_pairs_each_send_with_its_own_receive(engine, _chaos_seed):
    _check_trace_pairs(engine, _chaos_seed)


@pytest.mark.parametrize(
    "check",
    [_check_recv, _check_any_tag, _check_irecv, _check_probe_test_wait, _check_trace_pairs],
)
def test_unfuzzed_deterministic_engine(check):
    check("deterministic")
