"""The paper's central methodological claim, as an executable property.

"For deterministic programs this sequential execution gives the same
results as parallel execution" (§1.2) — every archetype application must
produce identical results under the deterministic run-to-block scheduler
(the paper's sequentially-executable version) and the free-running
threaded scheduler, and identical results at any process count.
"""

import numpy as np
import pytest

from repro.apps.cfd import cfd_archetype
from repro.apps.fdtd import fdtd_archetype
from repro.apps.fft2d import fft2d_archetype
from repro.apps.poisson import poisson_archetype
from repro.apps.skyline import concat_region_skylines, one_deep_skyline
from repro.apps.smog import smog_archetype
from repro.apps.sorting import (
    one_deep_mergesort,
    one_deep_quicksort,
    traditional_mergesort,
)
from repro.apps.spectralflow import spectralflow_archetype
from repro.machines.catalog import IBM_SP


def _both_modes(arch, p, *args, **kwargs):
    seq = arch.run(p, *args, mode="sequential", **kwargs)
    thr = arch.run(p, *args, mode="threads", **kwargs)
    assert seq.times == thr.times, "virtual clocks diverged between modes"
    return seq, thr


class TestSequentialEqualsParallel:
    def test_mergesort(self, rng):
        data = rng.integers(0, 10**6, size=3000)
        seq, thr = _both_modes(one_deep_mergesort(), 6, data)
        for a, b in zip(seq.values, thr.values):
            assert np.array_equal(a, b)

    def test_quicksort(self, rng):
        data = rng.normal(size=2500)
        seq, thr = _both_modes(one_deep_quicksort(), 5, data)
        for a, b in zip(seq.values, thr.values):
            assert np.array_equal(a, b)

    def test_traditional_mergesort(self, rng):
        data = rng.integers(0, 1000, size=512)
        seq, thr = _both_modes(traditional_mergesort(), 7, data)
        assert np.array_equal(seq.values[0], thr.values[0])

    def test_skyline(self, rng):
        n = 150
        left = rng.uniform(0, 80, n)
        blds = np.column_stack([left, rng.uniform(1, 30, n), left + rng.uniform(1, 10, n)])
        seq, thr = _both_modes(one_deep_skyline(), 4, blds)
        assert np.allclose(
            concat_region_skylines(seq.values), concat_region_skylines(thr.values)
        )

    def test_fft2d(self, rng):
        arr = rng.normal(size=(16, 16)).astype(complex)
        seq, thr = _both_modes(fft2d_archetype(), 4, arr, 1)
        assert np.array_equal(seq.values[0], thr.values[0])

    def test_poisson(self):
        seq, thr = _both_modes(poisson_archetype(), 4, 16, 16, tolerance=1e-4)
        assert np.array_equal(seq.values[0].solution, thr.values[0].solution)
        assert seq.values[0].iterations == thr.values[0].iterations

    def test_cfd(self):
        seq, thr = _both_modes(cfd_archetype(), 4, 20, 16, 6, ic="shock")
        assert np.array_equal(seq.values[0].density, thr.values[0].density)

    def test_fdtd(self):
        seq, thr = _both_modes(fdtd_archetype(), 4, 10, 10, 8, steps=4)
        assert np.array_equal(seq.values[0].ez, thr.values[0].ez)
        assert seq.values[0].energy == thr.values[0].energy

    def test_spectralflow(self):
        seq, thr = _both_modes(spectralflow_archetype(), 4, 16, 16, steps=2, dt=1e-3)
        assert np.array_equal(seq.values[0].swirl, thr.values[0].swirl)

    def test_smog(self):
        seq, thr = _both_modes(smog_archetype(), 4, 16, 16, steps=4)
        assert np.array_equal(seq.values[0].ozone, thr.values[0].ozone)


class TestProcessCountInvariance:
    """Deterministic archetype programs give the same answer at any P."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_poisson_any_p(self, p):
        ref = poisson_archetype().run(1, 14, 14, tolerance=1e-4).values[0]
        res = poisson_archetype().run(p, 14, 14, tolerance=1e-4).values[0]
        assert np.array_equal(res.solution, ref.solution)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_sorting_any_p(self, p, rng):
        data = rng.integers(0, 10**4, size=1200)
        expected = np.sort(data)
        for arch in (one_deep_mergesort(), one_deep_quicksort()):
            res = arch.run(p, data)
            assert np.array_equal(np.concatenate(res.values), expected)


class TestVirtualTimesBackendInvariant:
    """The cost model depends only on the program, not the host schedule."""

    def test_fft2d_times(self, rng):
        arr = rng.normal(size=(16, 16)).astype(complex)
        seq = fft2d_archetype().run(4, arr, 1, mode="sequential", machine=IBM_SP)
        thr = fft2d_archetype().run(4, arr, 1, mode="threads", machine=IBM_SP)
        assert seq.times == thr.times
        assert seq.elapsed > 0
