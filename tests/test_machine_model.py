"""Machine performance models."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.machines import (
    CLOUD_25GBE,
    CRAY_T3D,
    ETHERNET_SUNS,
    GPU_NODE,
    IBM_SP,
    IDEAL,
    INTEL_DELTA,
    INTEL_PARAGON,
    MODERN_MACHINES,
    NUMA_EPYC,
    MachineModel,
    get_machine,
    list_machines,
)
from repro.runtime.context import RankContext


class TestMessageTime:
    def test_ideal_is_free(self):
        assert IDEAL.message_time(10**9) == 0.0

    def test_alpha_beta(self):
        m = MachineModel("m", alpha=1e-4, beta=1e-7, flop_time=1e-8)
        assert m.message_time(0) == pytest.approx(1e-4)
        assert m.message_time(1000) == pytest.approx(1e-4 + 1e-4)

    def test_negative_size_rejected(self):
        with pytest.raises(ReproError):
            INTEL_DELTA.message_time(-1)

    def test_congestion_scales_with_nodes(self):
        m = MachineModel("m", alpha=1e-4, beta=0, flop_time=0, congestion_per_node=0.1)
        assert m.message_time(0, nodes=2) == pytest.approx(1e-4)
        assert m.message_time(0, nodes=12) == pytest.approx(2e-4)

    def test_congestion_floor_at_two_nodes(self):
        m = MachineModel("m", alpha=1e-4, beta=0, flop_time=0, congestion_per_node=0.1)
        assert m.message_time(0, nodes=1) == m.message_time(0, nodes=2)

    @given(nbytes=st.integers(0, 10**8))
    def test_monotone_in_size(self, nbytes):
        assert IBM_SP.message_time(nbytes + 1) >= IBM_SP.message_time(nbytes)


class TestComputeTime:
    def test_linear_in_flops(self):
        assert INTEL_DELTA.compute_time(8e6) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            IDEAL.compute_time(-1)

    def test_paging_penalty(self):
        m = MachineModel(
            "m", alpha=0, beta=0, flop_time=1e-6, mem_per_node=1000, paging_factor=9.0
        )
        base = m.compute_time(100, working_set_bytes=1000)
        paged = m.compute_time(100, working_set_bytes=2000)
        # half the working set overflows: factor 1 + 8*0.5 = 5
        assert paged == pytest.approx(5 * base)

    def test_no_penalty_within_memory(self):
        m = MachineModel("m", alpha=0, beta=0, flop_time=1e-6, mem_per_node=1000)
        assert m.compute_time(100, working_set_bytes=999) == m.compute_time(100)

    def test_memory_model_disabled(self):
        assert IDEAL.compute_time(100, working_set_bytes=1e18) == IDEAL.compute_time(100)


class TestDerived:
    def test_bandwidth(self):
        assert INTEL_DELTA.bandwidth() == pytest.approx(12e6)
        assert IDEAL.bandwidth() == float("inf")

    def test_half_performance_length(self):
        n_half = IBM_SP.half_performance_length()
        assert n_half == pytest.approx(IBM_SP.alpha * 35e6)

    def test_flops_rate(self):
        assert IBM_SP.flops_rate() == pytest.approx(40e6)

    def test_describe_mentions_name(self):
        assert "intel-delta" in INTEL_DELTA.describe()

    def test_comm_to_compute_ratio(self):
        # One byte per flop on the Delta: communication dominates.
        assert INTEL_DELTA.comm_to_compute_ratio(1.0) > 0.5


class TestValidation:
    def test_negative_costs_rejected(self):
        with pytest.raises(ReproError):
            MachineModel("bad", alpha=-1, beta=0, flop_time=0)

    def test_bad_paging_factor(self):
        with pytest.raises(ReproError):
            MachineModel("bad", alpha=0, beta=0, flop_time=0, paging_factor=0.5)


class TestCatalog:
    def test_lookup(self):
        assert get_machine("ibm-sp") is IBM_SP
        assert get_machine("ideal") is IDEAL

    def test_unknown(self):
        with pytest.raises(ReproError, match="unknown machine"):
            get_machine("cm-5")

    def test_list(self):
        names = list_machines()
        assert "intel-delta" in names and "cray-t3d" in names
        assert names == sorted(names)

    def test_latency_ordering_matches_era(self):
        # T3D had by far the lowest latency; Ethernet the highest.
        assert CRAY_T3D.alpha < IBM_SP.alpha < ETHERNET_SUNS.alpha
        assert INTEL_PARAGON.bandwidth() > INTEL_DELTA.bandwidth()

    def test_modern_machines_listed(self):
        names = list_machines()
        for machine in MODERN_MACHINES:
            assert machine.name in names
            assert get_machine(machine.name) is machine

    def test_modern_balance_shift(self):
        # Three decades move every absolute number, but the structural
        # story is the flop/byte balance: the GPU node sustains orders of
        # magnitude more flops per byte moved than the Delta, so the
        # paper's crossover points migrate toward tiny P.
        delta_fpb = INTEL_DELTA.flops_rate() / INTEL_DELTA.bandwidth()
        gpu_fpb = GPU_NODE.flops_rate() / GPU_NODE.bandwidth()
        assert gpu_fpb > 10 * delta_fpb
        # Shared-memory "messages" beat every 1990s interconnect.
        assert NUMA_EPYC.alpha < CRAY_T3D.alpha
        # Cloud VM networking has 1990s-supercomputer-class latency with
        # three orders of magnitude more bandwidth.
        assert IBM_SP.alpha / 10 < CLOUD_25GBE.alpha < IBM_SP.alpha
        assert CLOUD_25GBE.bandwidth() > 10 * CRAY_T3D.bandwidth()


class _CollectingBackend:
    """Just enough backend for ``send``/``isend``: keeps what was delivered."""

    def __init__(self):
        self.delivered = []

    def deliver(self, msg):
        self.delivered.append(msg)


class TestCatalogInvariants:
    """Invariants every catalogued machine must satisfy.

    Parameterized over :func:`list_machines`, so new catalog entries buy
    into every check by existing — no test edits required.
    """

    @pytest.fixture(params=list_machines())
    def machine(self, request) -> MachineModel:
        return get_machine(request.param)

    def test_costs_nonnegative_and_rates_positive(self, machine):
        assert machine.alpha >= 0 and machine.beta >= 0 and machine.flop_time >= 0
        assert machine.bandwidth() > 0
        assert machine.flops_rate() > 0
        if machine.name != "ideal":
            # Only the ideal reference machine communicates for free.
            assert machine.alpha > 0 and machine.beta > 0 and machine.flop_time > 0

    def test_memory_model_sane(self, machine):
        assert machine.paging_factor >= 1.0
        assert machine.max_nodes >= 2
        if machine.mem_per_node is not None:
            assert machine.mem_per_node > 0

    def test_message_time_monotone_in_size(self, machine):
        sizes = [0, 1, 64, 4096, 1 << 20]
        times = [machine.message_time(n) for n in sizes]
        assert times == sorted(times)

    def test_message_time_monotone_in_nodes(self, machine):
        assert machine.message_time(1024, nodes=64) >= machine.message_time(
            1024, nodes=2
        )

    def test_overheads_within_message_time(self, machine):
        # Posting or ingesting a message can never cost more than the
        # message itself — otherwise overlap would slow programs down —
        # and the zero-byte send overhead is bounded by the latency.
        for nbytes in (0, 1024, 1 << 20):
            mt = machine.message_time(nbytes)
            assert machine.send_overhead(nbytes) <= mt
            assert machine.recv_overhead(nbytes) <= mt
        assert machine.send_overhead(0) <= machine.alpha


    # RankContext inlines the per-message cost formulas from constants
    # set when the view is made instead of calling the model; the two must
    # agree bitwise (exact ==, not approx), or virtual clocks would depend
    # on which call site charged a message.
    COST_SIZES = (1, 2, 3, 16, 64)
    COST_NBYTES = (0, 24, 4096, 2**23)

    def test_context_cost_constants_reproduce_the_model(self, machine):
        for size in self.COST_SIZES:
            ctx = RankContext(0, size, _CollectingBackend(), machine)
            congestion, alpha, beta, send_a, send_b, recv_a, recv_b = ctx._costs
            for n in self.COST_NBYTES:
                where = f"size={size} nbytes={n}"
                assert (alpha + beta * n) * congestion == machine.message_time(
                    n, nodes=size
                ), where
                assert (send_a + send_b * n) * congestion == machine.send_overhead(
                    n, nodes=size
                ), where
                assert (recv_a + recv_b * n) * congestion == machine.recv_overhead(
                    n, nodes=size
                ), where

    def test_send_charges_what_the_model_says(self, machine):
        for size in self.COST_SIZES:
            for n in self.COST_NBYTES:
                backend = _CollectingBackend()
                ctx = RankContext(0, size, backend, machine)
                ctx.send(0, None, nbytes=n)
                where = f"size={size} nbytes={n}"
                assert ctx.clock == machine.message_time(n, nodes=size), where
                assert backend.delivered[0].arrival == ctx.clock, where

    def test_isend_charges_what_the_model_says(self, machine):
        for size in self.COST_SIZES:
            for n in self.COST_NBYTES:
                backend = _CollectingBackend()
                ctx = RankContext(0, size, backend, machine)
                ctx.isend(0, None, nbytes=n)
                where = f"size={size} nbytes={n}"
                assert ctx.clock == machine.send_overhead(n, nodes=size), where
                assert backend.delivered[0].arrival == machine.message_time(
                    n, nodes=size
                ), where
