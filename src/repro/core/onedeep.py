"""The one-deep divide-and-conquer archetype (paper §2).

The computational pattern: split the problem into exactly N subproblems in
*one* level, solve them independently, and merge the N subsolutions —
avoiding the deep process tree (and its poor average concurrency) of
traditional divide and conquer, and working on data that is distributed
before the computation starts.

Both the split and the merge phase follow the same shape (paper Figure 2):

1. compute phase *parameters* from a small sample of all parts' data
   (e.g. splitters);
2. independently partition each local part into N pieces according to the
   parameters;
3. redistribute the pieces all-to-all so rank *j* receives every part's
   *j*-th piece;
4. locally combine the received pieces.

Either phase may be *degenerate* (paper §2.1.2): a degenerate split means
the initial data distribution is taken as the split (mergesort, skyline);
a degenerate merge means the result is simply the concatenation of the
local subsolutions (quicksort).

The parameters may be computed by a single master and broadcast, or
replicated on all ranks from an allgathered sample — the two strategies
of paper §2.2, selectable per phase via :class:`SplitterStrategy`.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ArchetypeError
from repro.comm.communicator import Comm
from repro.core.archetype import Archetype
from repro.core.parfor import parfor
from repro.obs.metrics import Metric, counter_handle, histogram_handle
from repro.util.partition import split_evenly

_PHASE_SECONDS = histogram_handle(
    "core.onedeep.phase_seconds", help="per-rank virtual time inside a phase"
)
_PHASE_BY_LABEL: dict[str, Metric] = {}


def _record_phase(comm: Comm, label: str, entry_clock: float) -> None:
    """Tally one completed phase on one rank (count + duration; landed
    when the run ends)."""
    handle = _PHASE_BY_LABEL.get(label)
    if handle is None:
        handle = _PHASE_BY_LABEL[label] = counter_handle(
            f"core.onedeep.phase.{label}", help=f"one-deep {label} phases completed"
        )
    comm.tallies[handle] += 1
    comm.samples[_PHASE_SECONDS].append(comm.clock - entry_clock)


class SplitterStrategy(str, enum.Enum):
    """How phase parameters (splitters) are computed (paper §2.2)."""

    #: rank 0 gathers all samples, computes the parameters, broadcasts them
    MASTER = "master"
    #: every rank allgathers the samples and computes identical parameters
    REPLICATED = "replicated"


@dataclass
class PhaseSpec:
    """Application callbacks for one split or merge phase.

    All callbacks are pure sequential code; the skeleton supplies every
    process interaction.

    Parameters
    ----------
    sample:
        ``sample(local) -> s`` — extract the small local sample used to
        compute phase parameters.
    params:
        ``params(samples, nparts) -> p`` — compute the phase parameters
        from the rank-ordered list of all samples.
    partition:
        ``partition(p, local, nparts) -> pieces`` — cut the local data
        into ``nparts`` pieces; piece ``j`` is shipped to rank ``j``.
    combine:
        ``combine(pieces) -> new_local`` — combine the rank-ordered pieces
        received from all ranks into the new local data.
    sample_cost, params_cost, partition_cost, combine_cost:
        Optional analytic work models (flops), each a function of the data
        its callback processes; used to charge the virtual clock.
    """

    sample: Callable[[Any], Any]
    params: Callable[[Sequence[Any], int], Any]
    partition: Callable[[Any, Any, int], Sequence[Any]]
    combine: Callable[[Sequence[Any]], Any]
    sample_cost: Callable[[Any], float] | None = None
    params_cost: Callable[[Sequence[Any]], float] | None = None
    partition_cost: Callable[[Any], float] | None = None
    combine_cost: Callable[[Any], float] | None = None


class OneDeepDC(Archetype):
    """The one-deep divide-and-conquer skeleton.

    Parameters
    ----------
    solve:
        ``solve(local) -> subsolution`` — the sequential solver applied to
        each part independently (the paper's "local solve").
    split:
        The split :class:`PhaseSpec`, or ``None`` for a degenerate split
        (the initial distribution *is* the split).
    merge:
        The merge :class:`PhaseSpec`, or ``None`` for a degenerate merge
        (the answer is the concatenation of the local subsolutions, which
        the caller assembles from the per-rank return values).
    solve_cost:
        Optional analytic work model for the local solve.
    distribute:
        ``distribute(problem, nparts) -> sections`` used by :meth:`run` to
        stage the initial data distribution (default: contiguous block
        split of a sequence).
    strategy:
        How both phases compute their parameters (paper §2.2).
    """

    name = "one-deep-dc"

    def __init__(
        self,
        solve: Callable[[Any], Any],
        split: PhaseSpec | None = None,
        merge: PhaseSpec | None = None,
        solve_cost: Callable[[Any], float] | None = None,
        distribute: Callable[[Any, int], Sequence[Any]] | None = None,
        strategy: SplitterStrategy | str = SplitterStrategy.REPLICATED,
    ):
        if split is None and merge is None:
            raise ArchetypeError(
                "one-deep D&C with both phases degenerate is embarrassingly "
                "parallel; at least one phase must be supplied"
            )
        self.solve = solve
        self.split = split
        self.merge = merge
        self.solve_cost = solve_cost
        self.distribute = distribute or split_evenly
        self.strategy = SplitterStrategy(strategy)

    # -- staging -------------------------------------------------------------
    def prepare(self, nprocs: int, problem: Any) -> tuple[tuple, dict]:
        """Stage the initial distribution of *problem* over *nprocs* parts."""
        sections = list(self.distribute(problem, nprocs))
        if len(sections) != nprocs:
            raise ArchetypeError(
                f"distribute produced {len(sections)} sections for {nprocs} ranks"
            )
        return (sections,), {}

    # -- skeleton -------------------------------------------------------------
    def body(self, comm: Comm, sections: Sequence[Any]) -> Any:
        """Per-rank skeleton: [split] -> solve -> [merge]."""
        local = sections[comm.rank]
        if self.split is not None:
            entry = comm.clock
            local = self._phase(comm, self.split, local, label="split")
            _record_phase(comm, "split", entry)
        entry = comm.clock
        if self.solve_cost is not None:
            comm.charge(self.solve_cost(local), label="solve")
        sub = self.solve(local)
        _record_phase(comm, "solve", entry)
        if self.merge is not None:
            entry = comm.clock
            sub = self._phase(comm, self.merge, sub, label="merge")
            _record_phase(comm, "merge", entry)
        return sub

    def _phase(self, comm: Comm, spec: PhaseSpec, local: Any, label: str) -> Any:
        """One split/merge phase: params -> partition -> all-to-all -> combine."""
        if spec.sample_cost is not None:
            comm.charge(spec.sample_cost(local), label=f"{label}:sample")
        sample = spec.sample(local)

        if self.strategy is SplitterStrategy.MASTER:
            samples = comm.gather(sample, root=0)
            if comm.rank == 0:
                if spec.params_cost is not None:
                    comm.charge(spec.params_cost(samples), label=f"{label}:params")
                params = spec.params(samples, comm.size)
            else:
                params = None
            params = comm.bcast(params, root=0)
        else:
            samples = comm.allgather(sample)
            if spec.params_cost is not None:
                comm.charge(spec.params_cost(samples), label=f"{label}:params")
            params = spec.params(samples, comm.size)

        if spec.partition_cost is not None:
            comm.charge(spec.partition_cost(local), label=f"{label}:partition")
        received = comm.alltoall(_pieces(spec, params, local, comm.size, label))
        combined = spec.combine(received)
        if spec.combine_cost is not None:
            comm.charge(spec.combine_cost(combined), label=f"{label}:combine")
        return combined

    # -- version 1 ------------------------------------------------------------
    def version1(self, nparts: int, problem: Any) -> list[Any]:
        """The paper's version 1 of this program (§1.2 step 3, Figure 4).

        The same callbacks as :meth:`body`, run in one address space as
        ``parfor`` loops over *nparts* logical processes, with list
        indexing where the skeleton calls ``allgather`` / ``alltoall``.
        :func:`~repro.core.parfor.parfor` runs each loop in shuffled
        order, so a callback that is not independent across parts shows
        up as a result that differs from :meth:`run`'s.  Returns the
        per-part results: :meth:`run`'s per-rank values.
        """
        (sections,), _ = self.prepare(nparts, problem)
        if self.split is not None:
            sections = _phase_v1(self.split, sections, "split")
        subs = parfor(nparts, lambda i: self.solve(sections[i]))
        if self.merge is not None:
            subs = _phase_v1(self.merge, subs, "merge")
        return subs


def _pieces(spec: PhaseSpec, params: Any, local: Any, nparts: int, label: str) -> list:
    """``spec.partition``'s pieces, exactly one per part."""
    pieces = list(spec.partition(params, local, nparts))
    if len(pieces) != nparts:
        raise ArchetypeError(
            f"{label} partition produced {len(pieces)} pieces for {nparts} ranks"
        )
    return pieces


def _phase_v1(spec: PhaseSpec, parts: Sequence[Any], label: str) -> list[Any]:
    """One split/merge phase as parfor loops: sample, params, partition,
    then part *j* combines every part's *j*-th piece."""
    n = len(parts)
    samples = parfor(n, lambda i: spec.sample(parts[i]))
    params = spec.params(samples, n)
    pieces = parfor(n, lambda i: _pieces(spec, params, parts[i], n, label))
    return parfor(n, lambda j: spec.combine([pieces[i][j] for i in range(n)]))
