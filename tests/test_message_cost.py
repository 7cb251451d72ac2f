"""The run-to-block engine's message path, held to a Python call budget.

Host time on message-heavy runs is the simulator's per-message path, and
most of that is Python calls.  Time is noisy; the number of calls is not:
on the deterministic engine a program makes the same calls on every run.
So each pattern below is run under a counting-only profile hook
(``tools/msg_cost.py``'s ``count_calls``), once with its rounds and once
with one round, and the difference per message — calls into ``repro``
code, dataclass- and namedtuple-generated methods (file ``<string>``)
included — must stay within a ceiling.  Both runs send messages, so
what a run does once whatever it sends (landing its non-zero tallies
when it ends, say) cancels instead of counting as message work.

Each ceiling is the count of the path as written plus at most 10 %; the
path before it was rebuilt made 39.1 (``sendrecv``), 45.7 (ring), 40.0
(halo) and 43.5 (``allreduce``) calls per message on these patterns.  A
change that needs more calls per message must say why and raise the
ceiling.  Python 3.12 inlines comprehensions and counts fewer calls, so
a ceiling set on 3.10 or 3.11 holds there too.

A run of a declared par-loop is held the same way, per rank: planning,
the packed ghost exchange (its messages included), edge fills, charges
and the walk.  What a grid's shape fixes — interior slices, owned
rectangle, edge slabs, each pack's exchange geometry — is built once, so
a run only posts, copies and charges; before it was, a run made 115.2
calls.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

import repro
from repro import spmd_run
from repro.comm import SUM
from repro.core.meshspectral import MeshContext
from repro.kernels import READ, WRITE, Arg
from repro.machines.catalog import get_machine

_SPEC = importlib.util.spec_from_file_location(
    "msg_cost", Path(__file__).resolve().parent.parent / "tools" / "msg_cost.py"
)
msg_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(msg_cost)

REPRO = (str(Path(repro.__file__).resolve().parent) + os.sep, "<string>")
MACHINE = get_machine("ibm-sp")
TOKEN = b"8 bytes."


def _sendrecv(comm, rounds: int) -> None:
    other = 1 - comm.rank
    for _ in range(rounds):
        comm.sendrecv(other, TOKEN, other)


def _ring(comm, laps: int) -> None:
    """Blocking ``send`` and a wildcard-tag ``recv``, a token round."""
    succ, pred = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for _ in range(laps):
        if comm.rank == 0:
            comm.send(succ, TOKEN)
            comm.recv(pred)
        else:
            comm.recv(pred)
            comm.send(succ, TOKEN)


def _halo(comm, rounds: int) -> None:
    left, right = (comm.rank - 1) % comm.size, (comm.rank + 1) % comm.size
    for _ in range(rounds):
        comm.waitall(
            [
                comm.irecv(left, 1),
                comm.irecv(right, 2),
                comm.isend(right, TOKEN, 1),
                comm.isend(left, TOKEN, 2),
            ]
        )


def _allreduce(comm, rounds: int) -> None:
    for _ in range(rounds):
        comm.allreduce(1.5, SUM)


#: (pattern, ranks, body, rounds, messages per round, ceiling in calls/message)
CASES = [
    ("sendrecv-2", 2, _sendrecv, 200, 2, 16.5),  # 15.00 as written
    # 15.00 (16.00 before a wildcard receive that must wait skipped the
    # choice; 17.90 before resumes took the waker)
    ("ring-16", 16, _ring, 50, 16, 15.94),
    ("halo-4", 4, _halo, 50, 8, 14.9),  # 13.50
    ("allreduce-16", 16, _allreduce, 20, 64, 18.7),  # 17.00
]


def calls_per_message(nprocs: int, body, rounds: int, per_round: int) -> float:
    def calls(rounds: int) -> int:
        run = lambda: spmd_run(  # noqa: E731
            nprocs, body, args=(rounds,), machine=MACHINE, backend="deterministic"
        )
        return msg_cost.count_calls(run, REPRO)[0]

    calls(1)  # warm: lazy imports and first-use caches
    return (calls(rounds) - calls(1)) / ((rounds - 1) * per_round)


def _mesh_sweeps(comm, rounds: int) -> None:
    """Two declared loops, each reading a packed pair of grids with a
    halo and copy edges and writing the other pair: every run exchanges."""
    mesh = MeshContext(comm)
    u, v, p, q = (mesh.grid((32, 32), ghost=1, fill=1.0) for _ in range(4))

    def body(out_a, out_b, a, b):
        pass

    def sweep(dst, src):
        return mesh.loop(
            body,
            *(Arg(grid, WRITE) for grid in dst),
            *(Arg(grid, READ, halo=1, edges="copy") for grid in src),
            flops_per_point=4.0,
        )

    forth, back = sweep((p, q), (u, v)), sweep((u, v), (p, q))
    for _ in range(rounds):
        forth()
        back()


#: calls per rank per loop run on 16 ranks (80.16 as written; the first
#: run, which plans, is the one subtracted)
MESH_LOOP_CEILING = 91.6


def test_mesh_loop_run_within_budget():
    measured = calls_per_message(16, _mesh_sweeps, 20, 2 * 16)
    assert measured <= MESH_LOOP_CEILING, (
        f"{measured:.2f} calls per loop run, budget {MESH_LOOP_CEILING}"
    )


@pytest.mark.parametrize(
    "nprocs, body, rounds, per_round, ceiling",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_calls_per_message_within_budget(nprocs, body, rounds, per_round, ceiling):
    measured = calls_per_message(nprocs, body, rounds, per_round)
    assert measured <= ceiling, f"{measured:.2f} calls/message, budget {ceiling}"


@pytest.mark.parametrize(
    "nprocs, body, rounds, per_round",
    [case[1:5] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_figure_does_not_depend_on_rounds(nprocs, body, rounds, per_round):
    """Per-run work cancels: twice the rounds read the same figure."""
    once = calls_per_message(nprocs, body, rounds, per_round)
    twice = calls_per_message(nprocs, body, 2 * rounds, per_round)
    assert abs(twice - once) <= 0.01, (once, twice)


def test_count_is_exact():
    """The gauge is a count, not a sample: two runs agree exactly."""
    first = calls_per_message(2, _sendrecv, 20, 2)
    assert calls_per_message(2, _sendrecv, 20, 2) == first
