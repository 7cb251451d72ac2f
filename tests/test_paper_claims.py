"""The paper's claims at the paper's scales.

One test per numeric figure, calling ``figureNN()`` at its defaults —
exactly what ``python -m repro.bench figNN`` regenerates — and asserting
the *shape* claims the paper states in prose; then one test per design
ablation and extension study EXPERIMENTS.md cites.  Every number is
virtual time on a modelled machine, so the assertions are deterministic.
(``tests/test_bench.py`` holds the same figures at toy scale.)
"""

import numpy as np

from repro import spmd_run
from repro.apps import registry
from repro.apps.cfd import cfd_archetype
from repro.apps.knapsack import dp_reference, knapsack_bnb, random_instance
from repro.apps.smog import sequential_smog_time, smog_archetype
from repro.apps.sorting import (
    one_deep_mergesort,
    sequential_sort_time,
    traditional_mergesort,
)
from repro.bench.figures import (
    figure06_mergesort,
    figure12_fft2d,
    figure15_poisson,
    figure16_cfd,
    figure17_fdtd,
    figure18_spectral,
)
from repro.comm.reductions import SUM
from repro.machines.catalog import (
    ETHERNET_SUNS,
    IBM_SP,
    INTEL_DELTA,
    INTEL_PARAGON,
)
from repro.trace.analysis import summarize
from repro.tune.catalog import TunedConfig


class TestFigures:
    def test_fig06_mergesort_speedups(self):
        """Paper: "As anticipated, the one-deep version performs significantly
        better": traditional flattens almost at once, one-deep scales
        close to linearly through 64 processors (1M keys, Intel Delta)."""
        onedeep, traditional = figure06_mergesort()
        # 1. the one-deep version wins decisively at scale;
        assert onedeep.at(64).speedup > 4 * traditional.at(64).speedup
        # 2. one-deep keeps scaling through 64 processors;
        assert onedeep.is_monotonic()
        assert onedeep.at(64).speedup > 20
        # 3. traditional saturates at a small constant speedup;
        assert traditional.at(64).speedup < 6
        assert traditional.at(64).speedup - traditional.at(16).speedup < 1.0
        # 4. at a single processor neither pays much overhead.
        assert 0.5 < onedeep.at(1).speedup <= 1.05

    def test_fig12_fft2d_speedup(self):
        """Paper: "Disappointing performance is a result of too small a ratio of
        computation to communication" (128x128, 5 repeats, IBM SP)."""
        (curve,) = figure12_fft2d()
        # Disappointing: nowhere near perfect speedup anywhere on the curve.
        assert curve.peak().speedup < 8
        assert curve.at(32).efficiency < 0.25
        # Still better than sequential for small P.
        assert curve.at(4).speedup > 1.5
        # Single-rank overhead is negligible.
        assert 0.9 < curve.at(1).speedup <= 1.05

    def test_fig15_poisson_speedup(self):
        """Good, steadily sub-linear scaling through 40 processors
        (512x512, 20 sweeps, IBM SP)."""
        (curve,) = figure15_poisson()
        assert curve.is_monotonic()
        assert curve.at(1).speedup > 0.95
        assert curve.at(8).speedup > 6
        # Good but clearly sub-linear by 40 processors.
        assert 12 < curve.at(40).speedup < 36
        assert curve.at(40).efficiency < 0.85

    def test_fig16_cfd_speedup(self):
        """Close to perfect speedup through ~100 processors (512x512,
        Intel Delta)."""
        (curve,) = figure16_cfd()
        assert curve.is_monotonic()
        # Near-perfect through 100 processors.
        assert curve.at(100).efficiency > 0.85
        assert curve.at(49).efficiency > 0.9
        assert 0.95 < curve.at(1).speedup < 1.1

    def test_fig17_fdtd_speedup(self):
        """Paper: "The decrease in performance for more than ~16 processors
        results from the ratio of computation to communication dropping
        too low for efficiency" (32^3 grid, IBM SP)."""
        (curve,) = figure17_fdtd()
        peak = curve.peak()
        # The curve rises to a mid-teens peak...
        assert 8 <= peak.procs <= 16
        assert peak.speedup > 4
        # ...and decreases beyond it (the paper's claim).
        assert curve.at(18).speedup < peak.speedup
        assert 0.9 < curve.at(1).speedup <= 1.05

    def test_fig18_spectral_speedup(self):
        """Paper: "Inefficiencies in executing the code on the base number of
        processors (e.g. paging) probably explain the better-than-ideal
        speedup for small numbers of processors" (vs a 5-processor base)."""
        (curve,) = figure18_spectral()
        ideal = {p: p / 5 for p in curve.procs}
        # Better than ideal at small processor counts (paging at the base)...
        assert curve.at(10).speedup > ideal[10]
        assert curve.at(15).speedup > ideal[15]
        # ...but below ideal at the largest configurations.
        assert curve.at(40).speedup < ideal[40]
        # The curve keeps rising through 40 processors, as in the figure.
        assert curve.is_monotonic()


class TestAblations:
    """The design choices DESIGN.md calls out, each decided on the
    virtual clock."""

    def test_allreduce_algorithms(self):
        """Recursive doubling (the paper's Figure 8 pattern) vs gather to
        root + broadcast, on the latency-bound Ethernet network."""

        def recursive_doubling(comm):
            for _ in range(5):
                comm.allreduce(float(comm.rank), SUM)

        def gather_then_bcast(comm):
            for _ in range(5):
                values = comm.gather(float(comm.rank), root=0)
                total = sum(values) if comm.rank == 0 else None
                comm.bcast(total, root=0)

        rd, gb = (
            {p: spmd_run(p, body, machine=ETHERNET_SUNS).elapsed for p in (4, 16, 32)}
            for body in (recursive_doubling, gather_then_bcast)
        )
        # The critical path of gather+bcast is O(P) messages at the root;
        # recursive doubling is O(log P): the gap widens with P.
        assert gb[32] / rd[32] > gb[4] / rd[4]
        assert gb[32] > rd[32]

    def test_allreduce_algorithms_agree(self):
        """Both strategies compute the same reduction."""

        def rd(comm):
            return comm.allreduce(comm.rank + 1.0, SUM)

        def gb(comm):
            vals = comm.gather(comm.rank + 1.0, root=0)
            return comm.bcast(sum(vals) if comm.rank == 0 else None, root=0)

        assert np.allclose(spmd_run(8, rd).values, spmd_run(8, gb).values)

    def test_splitter_strategies(self):
        """Master vs replicated splitter computation (paper §2.2) stay
        within a modest factor: the sample traffic is tiny compared with
        the data redistribution."""
        data = np.random.default_rng(3).integers(0, 2**40, size=1 << 17)

        def speedup(strategy, machine, p):
            t = one_deep_mergesort(strategy=strategy).run(p, data, machine=machine).elapsed
            return sequential_sort_time(data.size, machine) / t

        for machine in (INTEL_DELTA, ETHERNET_SUNS):
            for p in (8, 32):
                ratio = speedup("master", machine, p) / speedup("replicated", machine, p)
                assert 0.5 < ratio < 2.0, (machine.name, p)

    def test_block_shape(self):
        """Strips vs 2-D blocks of the same 16 processes (paper §4.4.3:
        "we can later adjust the dimensions of this process grid to
        optimize performance"), compared on communication time — total
        time hides the effect in a compute-dominated stencil code."""

        def comm_profile(machine, proc_grid):
            run = registry.get("poisson").run(
                {"nprocs": 16, "nx": 128, "ny": 128, "max_iters": 10},
                machine=machine,
                trace=True,
                tuned=TunedConfig(proc_grid=proc_grid),
            )
            return summarize(run.tracer)

        profiles = {
            machine: {grid: comm_profile(machine, grid) for grid in ((16, 1), (4, 4))}
            for machine in ("cray-t3d", "ethernet-suns")
        }
        for shapes in profiles.values():
            strips, blocks = shapes[16, 1], shapes[4, 4]
            # The structural trade: blocks halve the bytes, strips halve the
            # messages (boundary exchange only; reductions identical).
            assert blocks.total_bytes < strips.total_bytes
            assert blocks.total_messages > strips.total_messages
        # Low-latency T3D favours square blocks; the high-latency Ethernet
        # network favours strips.
        t3d, eth = profiles["cray-t3d"], profiles["ethernet-suns"]
        assert t3d[4, 4].max_comm_time < t3d[16, 1].max_comm_time
        assert eth[16, 1].max_comm_time < eth[4, 4].max_comm_time

    def test_message_packing(self):
        """One packed boundary message per neighbour vs one per field in
        the CFD code (128^2, 16 ranks, 4 steps)."""

        def elapsed(machine, packed):
            return (
                cfd_archetype()
                .run(
                    16,
                    128,
                    128,
                    4,
                    ic="smooth",
                    machine=machine,
                    gather=False,
                    packed_exchange=packed,
                    cfl_interval=4,
                )
                .elapsed
            )

        times = {
            m.name: {"packed": elapsed(m, True), "per-field": elapsed(m, False)}
            for m in (IBM_SP, ETHERNET_SUNS)
        }
        # Packing always wins, and wins big where latency dominates.
        for t in times.values():
            assert t["packed"] < t["per-field"]
        eth = times["ethernet-suns"]
        assert eth["per-field"] / eth["packed"] > 1.5

    def test_onedeep_vs_tree_decomposition(self):
        """Why *one* level of splitting (paper §2.1): the deep tree's
        serialized top-of-tree data movement, at 128k keys on 32 ranks."""
        data = np.random.default_rng(11).integers(0, 2**40, size=1 << 17)
        onedeep = one_deep_mergesort().run(32, data, machine=INTEL_DELTA, trace=True)
        tree = traditional_mergesort().run(32, data, machine=INTEL_DELTA, trace=True)
        # The tree moves far more bytes (every key travels ~log P hops down
        # and up); one-deep moves each key approximately once.
        assert (
            summarize(tree.tracer).total_bytes > 2 * summarize(onedeep.tracer).total_bytes
        )
        # And the tree's virtual time is much worse despite fewer messages.
        assert tree.elapsed > 3 * onedeep.elapsed


class TestExtensions:
    """Studies beyond the paper's figures, labelled extensions in
    EXPERIMENTS.md."""

    def test_bnb_scaling(self):
        """Branch and bound (the nondeterministic archetype of paper §6)
        in the regime where it pays: a loosened-but-admissible bound gives
        a wide frontier and each bound evaluation costs an LP's worth."""
        inst = random_instance(22, seed=21)
        exact = dp_reference(inst)
        runs = {
            p: knapsack_bnb(inst, chunk=4, bound_flops=1e5, bound_slack=0.03).run(
                p, machine=IBM_SP
            )
            for p in (1, 2, 4, 8, 16)
        }
        for res in runs.values():
            assert abs(-res.values[0].value - exact) < 1e-9
        speedup = {p: runs[1].elapsed / res.elapsed for p, res in runs.items()}
        expanded = {p: res.values[0].expanded for p, res in runs.items()}
        # One rank is the manager, so P=2 has a single worker (speedup ~1)...
        assert 0.8 < speedup[2] < 1.3
        # ...and real speedup appears once multiple workers share the frontier.
        assert speedup[8] > 3
        assert speedup[16] > speedup[8]
        # Search overhead stays bounded: timely incumbent broadcasts keep the
        # node count within a small factor of the sequential search.
        assert expanded[16] < 1.5 * expanded[1]

    def test_bnb_chunk_tradeoff(self):
        """With *cheap* node evaluation, manager round-trips dominate and
        the work-grain decides everything: per-node dispatch drowns in
        latency."""
        inst = random_instance(22, seed=8)
        elapsed = {
            chunk: knapsack_bnb(inst, chunk=chunk).run(8, machine=IBM_SP).elapsed
            for chunk in (1, 8, 64)
        }
        assert elapsed[8] < elapsed[1]
        assert elapsed[64] < elapsed[1]

    def test_smog_strong_scaling(self):
        """The airshed model of paper §4.5.4 (described qualitatively; no
        speedup figure survives in the scan): 192^2, 4 steps, Paragon."""
        n, steps = 192, 4
        t_seq = sequential_smog_time(n, n, steps, INTEL_PARAGON)
        speedups = {
            p: t_seq
            / smog_archetype()
            .run(p, n, n, steps=steps, machine=INTEL_PARAGON, gather=False)
            .elapsed
            for p in (1, 2, 4, 8, 16, 32)
        }
        assert speedups[1] > 0.9
        assert speedups[16] > 8
        series = list(speedups.values())
        assert all(b >= a for a, b in zip(series, series[1:]))
