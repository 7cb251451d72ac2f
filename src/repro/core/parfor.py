"""The paper's "version 1" notation: ``parfor``.

The initial archetype-based version of an algorithm (paper §1.2 step 3)
is written with exploitable-concurrency constructs — CC++'s ``parfor``
(Figure 4) or HPF's ``forall`` (Figures 10/13) — whose iterations must
be independent.  Such a program "can be executed sequentially by
replacing the parfor loops with for loops", and for deterministic
programs gives the same result as parallel execution.

:func:`parfor` makes that notation executable in one address space: it
runs the iteration body over the index range in a *deterministically
shuffled* order.  Independence means order cannot matter, so a program
whose iterations secretly depend on each other fails loudly when its
results change — the shuffle is a built-in independence check, not an
optimisation.

Version 1 is derived from each archetype's declaration, not written
again: :meth:`repro.core.onedeep.OneDeepDC.version1` runs a one-deep
program's phase callbacks under :func:`parfor`, and a mesh program's
version 1 is the same program at P = 1, where every grid operation is a
declared par-loop over the undistributed grid — a ``forall`` whose reads
precede its writes because a loop's output may not overlap its halo
inputs (paper §3.1).  ``tests/test_version1.py`` closes the chain
*sequential == version 1 == version 2 (SPMD)* for every registered
one-deep, traditional and mesh app.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.errors import ArchetypeError


def _shuffled(n: int, seed: int) -> list[int]:
    order = list(range(n))
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    return order


def parfor(
    n: int,
    body: Callable[[int], Any],
    check_independence: bool = True,
    seed: int = 0x5EED,
) -> list[Any]:
    """Execute ``body(i)`` for ``i in range(n)``; iterations must be
    independent.

    Returns the per-iteration results in index order.  With
    ``check_independence`` (the default) the iterations run in a
    deterministically shuffled order — any hidden inter-iteration
    dependence changes the program's behaviour and is caught by the
    version-equality tests rather than silently serialised.
    """
    if n < 0:
        raise ArchetypeError(f"parfor needs a non-negative count, got {n}")
    results: list[Any] = [None] * n
    order = _shuffled(n, seed) if check_independence else range(n)
    for i in order:
        results[i] = body(i)
    return results
