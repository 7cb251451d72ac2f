#!/usr/bin/env python3
"""Host cost per small message on the deterministic engine, pinned: µs and
Python calls.

    python3 tools/msg_cost.py            # this checkout's src/
    python3 tools/msg_cost.py OTHER/src  # another checkout, for a before/after

Pins itself to one CPU (as perfbench's sim children are) and prints, for an
8-byte 2-rank ping-pong (``send`` + blocking ``recv``: one thread switch per
message), a 16-rank ring — perfbench's own handoff bodies — and a 2-rank
``sendrecv`` exchange, two costs per message with the empty launch taken
off: microseconds, fastest of N runs, and the Python-level calls made into
``repro`` code (:func:`count_calls`; exact, the same on every run).  Then
the bare thread switch those include — a token passed round 2 and 16
threads by one held-at-rest lock each, the engine's handoff primitive, on
threads under the engine's rank-thread scheduling policy
(``repro.runtime.scheduler.batch_thread``, where the checkout has one) — so
the rest of a message's time is the simulator's own Python.
``docs/performance_model.md`` ("Measuring the simulator itself") has the
table this prints; ``tests/test_message_cost.py`` holds the call counts to
a budget.  Piped into ``head``, it stops quietly.
"""

import itertools
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 9


def count_calls(run, prefixes: tuple[str, ...] | None = None) -> tuple[int, object]:
    """``(calls, run())``: the Python-level calls made while *run* runs, on
    its thread and on every thread started meanwhile.

    A call is a ``"call"`` profile event — one per Python frame entered,
    a generator's resumption included; C functions make none.  With
    *prefixes*, only frames whose code comes from a file starting with one
    of them count (dataclass- and namedtuple-generated methods report the
    file ``<string>``).  The hook only counts (``next`` on a shared
    ``itertools.count`` is atomic), so the figure is exact and the same
    on every run of a deterministic program.
    """
    counter = itertools.count()

    def hook(frame, event, arg) -> None:
        if event == "call" and (
            prefixes is None or frame.f_code.co_filename.startswith(prefixes)
        ):
            next(counter)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return next(counter), result


def _exchange(comm, rounds: int) -> None:
    other = 1 - comm.rank
    for _ in range(rounds):
        comm.sendrecv(other, b"8 bytes.", other)


def _switch(nthreads: int, laps: int, policy) -> float:
    """Seconds per handoff of a token round *nthreads* threads, each of
    which first calls *policy* (the engine's rank-thread setup)."""
    locks = [threading.Lock() for _ in range(nthreads)]
    for lock in locks:
        lock.acquire()

    def body(i: int) -> None:
        policy()
        mine, succ = locks[i], locks[(i + 1) % nthreads]
        for _ in range(laps):
            mine.acquire()
            succ.release()

    threads = [threading.Thread(target=body, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    started = time.perf_counter()
    locks[0].release()
    for t in threads:
        t.join()
    return (time.perf_counter() - started) / (nthreads * laps)


def main(src: str) -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [src, str(ROOT)]
    from perfbench.layers import _ping_pong, _ring
    from repro.machines.catalog import get_machine
    from repro.runtime import scheduler
    from repro.runtime.spmd import spmd_run

    policy = getattr(scheduler, "batch_thread", lambda: None)

    machine = get_machine("ibm-sp")
    repro = (str(Path(src).resolve() / "repro") + os.sep, "<string>")

    def run(nprocs: int, body, rounds: int):
        return lambda: spmd_run(nprocs, body, args=(rounds,), machine=machine)

    def fastest(nprocs: int, body, rounds: int) -> float:
        runs = []
        for _ in range(RUNS):
            started = time.perf_counter()
            run(nprocs, body, rounds)()
            runs.append(time.perf_counter() - started)
        return min(runs)

    def calls(nprocs: int, body, rounds: int) -> int:
        return count_calls(run(nprocs, body, rounds), repro)[0]

    for name, nprocs, body, rounds, messages in (
        ("ping-pong, 2 ranks", 2, _ping_pong, 2000, 4000),
        ("sendrecv, 2 ranks", 2, _exchange, 2000, 4000),
        ("ring, 16 ranks", 16, _ring, 200, 3200),
    ):
        empty = lambda comm, rounds: None  # noqa: E731 - the bare launch
        cost = (fastest(nprocs, body, rounds) - fastest(nprocs, empty, 0)) / messages
        ncalls = (calls(nprocs, body, rounds) - calls(nprocs, empty, 0)) / messages
        print(f"{name:<22} {cost * 1e6:6.2f} us/message {ncalls:6.2f} calls/message")
    for nthreads, laps in ((2, 4000), (16, 400)):
        cost = min(_switch(nthreads, laps, policy) for _ in range(RUNS))
        print(f"switch, {nthreads:>2} threads      {cost * 1e6:6.2f} us")


if __name__ == "__main__":
    try:
        main(sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "src"))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``): point stdout at /dev/null so the
        # interpreter's final flush cannot raise again, and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
