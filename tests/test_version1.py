"""The paper's two-version methodology, end to end.

§1.2: the initial archetype-based version (version 1, parfor/forall) is
sequentially executable and semantically equal to the sequential
algorithm; the archetype's transformation to the SPMD version (version
2) preserves semantics.  These tests pin the whole chain:

    sequential  ==  version 1 (parfor/forall)  ==  version 2 (SPMD)

Version 1 is derived from each program's declaration, never written a
second time: a one-deep program's is :meth:`OneDeepDC.version1` (its
phase callbacks under ``parfor``), and a mesh program's is the same
declared program at P = 1, where every grid operation is a par-loop over
the undistributed grid — a ``forall``.  The traditional (Figure 1)
tree's is likewise its program at P = 1: no split, the leaf solve on the
whole problem.

Families outside the method: a pipeline-farm app is a process graph of
stages, not a loop nest over independent iterations, so the paper's
version 1 does not apply to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps import registry
from repro.core.parfor import parfor
from repro.errors import ArchetypeError
from repro.tune.catalog import TunedConfig
from repro.verify.digest import value_digest

UNTUNED = TunedConfig()
#: families whose version 1 the declaration gives (see the module docstring
#: for the others)
V1_FAMILIES = ("one-deep-dc", "traditional-dc", "mesh-spectral")
OUTSIDE_V1 = ("pipeline-farm",)
V1_APPS = [s.name for s in registry.specs() if s.archetype in V1_FAMILIES]


class TestParfor:
    def test_results_in_index_order(self):
        assert parfor(5, lambda i: i * i) == [0, 1, 4, 9, 16]

    def test_empty(self):
        assert parfor(0, lambda i: i) == []

    def test_negative_rejected(self):
        with pytest.raises(ArchetypeError):
            parfor(-1, lambda i: i)

    def test_shuffled_execution_order(self):
        """Iterations run out of order — the independence check."""
        seen = []
        parfor(16, seen.append)
        assert sorted(seen) == list(range(16))
        assert seen != list(range(16))

    def test_dependence_is_caught_by_shuffle(self):
        """A body with a hidden inter-iteration dependence produces
        different results than its in-order execution — the defect the
        shuffle exists to expose."""
        acc = [0]

        def dependent(i):
            acc[0] += i
            return acc[0]

        shuffled = parfor(8, dependent)
        acc[0] = 0
        in_order = parfor(8, dependent, check_independence=False)
        assert shuffled != in_order

    def test_in_order_mode(self):
        seen = []
        parfor(8, seen.append, check_independence=False)
        assert seen == list(range(8))


def _mergesort_version1(data, nparts):
    from repro.apps.sorting import one_deep_mergesort

    parts = one_deep_mergesort().version1(nparts, np.asarray(data))
    return np.concatenate(parts)


class TestMergesortChain:
    """Figure 4: version 1 is the one-deep declaration under parfor."""

    @pytest.mark.parametrize("n_logical", [1, 2, 4, 7])
    def test_v1_equals_sequential(self, n_logical, rng):
        data = rng.integers(0, 10**6, size=500)
        assert np.array_equal(_mergesort_version1(data, n_logical), np.sort(data))

    @pytest.mark.parametrize("p", [2, 4, 5])
    def test_v1_equals_v2(self, p, rng):
        from repro.apps.sorting import one_deep_mergesort

        data = rng.integers(0, 10**6, size=800)
        v1 = _mergesort_version1(data, p)
        v2 = np.concatenate(one_deep_mergesort().run(p, data).values)
        assert np.array_equal(v1, v2)

    @given(
        arr=hnp.arrays(
            dtype=np.int64, shape=st.integers(0, 200), elements=st.integers(-999, 999)
        ),
        p=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_chain(self, arr, p):
        from repro.apps.sorting import one_deep_mergesort

        expected = np.sort(arr)
        assert np.array_equal(_mergesort_version1(arr, p), expected)
        v2 = np.concatenate(one_deep_mergesort().run(p, arr).values)
        assert np.array_equal(v2, expected)


def _fft2d(nprocs, arr, inverse=False):
    from repro.apps.fft2d import fft2d_archetype

    return fft2d_archetype().run(nprocs, arr, 1, inverse=inverse).values[0]


class TestFFTChain:
    """Figure 10: version 1 is the declared row/column program at P = 1."""

    def test_v1_equals_numpy(self, rng):
        arr = rng.normal(size=(12, 16)) + 1j * rng.normal(size=(12, 16))
        assert np.allclose(_fft2d(1, arr), np.fft.fft2(arr), atol=1e-9)

    def test_v1_inverse(self, rng):
        arr = rng.normal(size=(8, 8)).astype(complex)
        assert np.allclose(_fft2d(1, _fft2d(1, arr), inverse=True), arr, atol=1e-10)

    @pytest.mark.parametrize("p", [2, 4])
    def test_v1_equals_v2(self, p, rng):
        arr = rng.normal(size=(8, 12)).astype(complex)
        assert value_digest(_fft2d(1, arr)) == value_digest(_fft2d(p, arr))


def _poisson(nprocs, nx, ny, **kwargs):
    from repro.apps.poisson import poisson_archetype

    return poisson_archetype().run(nprocs, nx, ny, **kwargs).values[0]


class TestPoissonChain:
    """Figure 13: version 1 is the declared Jacobi program at P = 1."""

    def test_v1_equals_sequential(self):
        from repro.apps.poisson import reference_poisson

        v1 = _poisson(1, 10, 12, tolerance=1e-3)
        u, iterations = reference_poisson(10, 12, tolerance=1e-3)
        assert v1.iterations == iterations
        assert np.allclose(v1.solution, u, atol=1e-12)

    def test_v1_equals_v2(self):
        v1 = _poisson(1, 10, 10, tolerance=1e-3)
        v2 = _poisson(3, 10, 10, tolerance=1e-3)
        assert v2.iterations == v1.iterations
        assert value_digest(v2) == value_digest(v1)


def _gathered(spec) -> dict:
    """The app at its verify sizes, with its result gathered to rank 0
    (the mesh apps' values are otherwise per-rank sections)."""
    gather = {k: True for k in ("gather", "gather_solution") if k in spec.defaults}
    return {**spec.verify_overrides, **gather}


def _version1(spec, params: dict):
    """Version 1 of a registered app, derived from its declaration: the
    one-deep phases under parfor, or the declared program at P = 1 (a
    mesh program, or a traditional tree whose P = 1 run is its leaf
    solve on the whole problem)."""
    if spec.archetype == "one-deep-dc":
        archetype, nparts, args, kwargs = spec.build(spec.params_with(params))
        return archetype.version1(nparts, *args, **kwargs)
    return _version2(spec, {**params, "nprocs": 1})


def _version2(spec, params: dict):
    """The deterministic SPMD run: per-rank values for a one-deep app,
    rank 0's result (gathered, for a mesh app) otherwise."""
    values = spec.run(params, machine="ibm-sp", mode="sequential", tuned=UNTUNED).values
    return values if spec.archetype == "one-deep-dc" else values[0]


class TestRegistryChain:
    """v1 == v2 for every registered one-deep, traditional and mesh app."""

    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    @pytest.mark.parametrize("app", V1_APPS)
    def test_v1_equals_v2(self, app, p):
        spec = registry.get(app)
        params = {**_gathered(spec), "nprocs": p}
        v1, v2 = _version1(spec, params), _version2(spec, params)
        if app == "fdtd":
            # The field energy is a SUM reduction: its partial sums follow
            # the partition, so it may differ in the last bits from the
            # one-rank sum (at P = 4 it does).  The field itself is exact.
            assert value_digest(v1.ez) == value_digest(v2.ez)
            assert v1.steps == v2.steps
            assert v1.energy == pytest.approx(v2.energy, rel=1e-12)
        else:
            assert value_digest(v1) == value_digest(v2)

    def test_every_registered_family_is_placed(self):
        families = {s.archetype for s in registry.specs() if s.archetype != "test"}
        assert families == set(V1_FAMILIES) | set(OUTSIDE_V1)
        assert {"mergesort", "mergesort-tree", "quicksort", "skyline", "poisson", "fft2d"} <= set(
            V1_APPS
        )
