"""The arrival schedule and job order: a pure function of the seed.

The seed chooses *when* each request is due and *in which order* job
templates are drawn, never what a job contains (so every pinned digest
holds on every seed) and never how arrivals clump (see :func:`arrivals`).
"""

from __future__ import annotations

import itertools
import math
import random


def arrivals(seed: int | str, rate: float, seconds: float) -> list[float]:
    """Due times (seconds from phase start) of a Poisson stream at *rate*.

    The ``round(rate * seconds)`` gaps between arrivals are the quantile
    midpoints of the exponential distribution in one fixed pseudo-random
    order; the seed *rotates* that sequence.  Every seed therefore sees
    the same count, the same duration and the same clumps of short gaps —
    what the seed moves is when each falls and (with :func:`draw_order`)
    which job meets it.  Tail latency here is set by clumps (each exchange
    closer than 40 ms to the last stalls 44 ms, see README), so with
    freely drawn arrivals the p90 of a hundred requests measured the
    seed's luck, not the system: 25-50 % spread across seeds against
    15 % this way (and 1 % between runs of one seed).
    """
    count = round(rate * seconds)
    gaps = [-math.log(1.0 - (k + 0.5) / count) / rate for k in range(count)]
    random.Random(f"gaps:{rate}:{seconds}").shuffle(gaps)
    turn = random.Random(f"arrivals:{seed}:{rate}:{seconds}").randrange(count)
    return list(itertools.accumulate(gaps[turn:] + gaps[:turn]))


def draw_order(seed: int | str, ntemplates: int, count: int) -> list[int]:
    """*count* template indices: seeded permutations laid end to end, so
    every template is drawn equally often (to within one) on any seed."""
    rng = random.Random(f"order:{seed}:{ntemplates}")
    order: list[int] = []
    while len(order) < count:
        block = list(range(ntemplates))
        rng.shuffle(block)
        order.extend(block)
    return order[:count]
