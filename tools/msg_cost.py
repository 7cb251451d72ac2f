#!/usr/bin/env python3
"""Host microseconds per small message on the deterministic engine, pinned.

    python3 tools/msg_cost.py            # this checkout's src/
    python3 tools/msg_cost.py OTHER/src  # another checkout, for a before/after

Pins itself to one CPU (as perfbench's sim children are) and prints, fastest
of N runs with the empty launch taken off, the cost per message of an 8-byte
2-rank ping-pong (``send`` + blocking ``recv``: one thread switch per
message) and a 16-rank ring — perfbench's own handoff bodies — and of a
2-rank ``sendrecv`` exchange; then the bare thread switch those include —
a token passed round 2 and 16 threads by one held-at-rest lock each, the
engine's handoff primitive — so the rest of a message's cost is the
simulator's own Python.  ``docs/performance_model.md`` ("Measuring the
simulator itself") has the table this prints.
"""

import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 9


def _exchange(comm, rounds: int) -> None:
    other = 1 - comm.rank
    for _ in range(rounds):
        comm.sendrecv(other, b"8 bytes.", other)


def _switch(nthreads: int, laps: int) -> float:
    """Seconds per handoff of a token round *nthreads* threads."""
    locks = [threading.Lock() for _ in range(nthreads)]
    for lock in locks:
        lock.acquire()

    def body(i: int) -> None:
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
    from repro.runtime.spmd import spmd_run

    machine = get_machine("ibm-sp")

    def fastest(nprocs: int, body, rounds: int) -> float:
        runs = []
        for _ in range(RUNS):
            started = time.perf_counter()
            spmd_run(nprocs, body, args=(rounds,), machine=machine)
            runs.append(time.perf_counter() - started)
        return min(runs)

    for name, nprocs, body, rounds, messages in (
        ("ping-pong, 2 ranks", 2, _ping_pong, 2000, 4000),
        ("sendrecv, 2 ranks", 2, _exchange, 2000, 4000),
        ("ring, 16 ranks", 16, _ring, 200, 3200),
    ):
        launch = fastest(nprocs, lambda comm, rounds: None, 0)
        cost = (fastest(nprocs, body, rounds) - launch) / messages
        print(f"{name:<22} {cost * 1e6:6.2f} us/message")
    for nthreads, laps in ((2, 4000), (16, 400)):
        cost = min(_switch(nthreads, laps) for _ in range(RUNS))
        print(f"switch, {nthreads:>2} threads      {cost * 1e6:6.2f} us")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "src"))
