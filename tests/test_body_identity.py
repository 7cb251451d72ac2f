"""Kernel bodies are bit-identical to what they replace.

The application bodies were rewritten to evaluate each value once (one
flux per axis on a widened window, select-then-scale upwind differences,
``out=`` into the output view, blocked reductions, scratch blocks) and
each operator once (FFT plans, Thomas factors), and every group now runs
row block by row block.  None of that may move a bit.  Two layers hold it
there:

- **Units**: frozen copies of the code the new bodies replaced
  (``_ref_*`` below, taken from commit 84339f9) are the references, and
  results are compared through ``.tobytes()`` so ``-0.0`` vs ``+0.0``
  cannot hide behind ``==``.
- **Applications**: value digests and per-rank virtual clocks
  (``float.hex``) of cfd x3, fdtd, smog, spectralflow x2 and poisson at
  P in {1, 2, 4} were recorded *at that commit* into
  ``tests/data/body_pins.json`` — every row is
  ``registry.get(app).run({"nprocs": P, **params}, machine=...)`` with
  the params the file carries — and must hold both at the default tile
  size and with ``_TILE_BYTES`` patched to 128 (one row per tile).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import fftlib, registry, spectralflow
from repro.apps.fftlib import bit_reverse_indices, fft
from repro.apps.smog import sea_breeze_wind, upwind_step
from repro.apps.spectralflow import thomas_apply, thomas_factor, thomas_solve
from repro.verify import value_digest

_PINS = json.loads((Path(__file__).parent / "data" / "body_pins.json").read_text())


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- frozen references (commit 84339f9) ----------------------------------------


def _ref_fft_pow2(x: np.ndarray, inverse: bool) -> np.ndarray:
    n = x.shape[-1]
    y = np.ascontiguousarray(x, dtype=np.complex128)[..., bit_reverse_indices(n)]
    sign = 2j * math.pi if inverse else -2j * math.pi
    length = 2
    while length <= n:
        half = length // 2
        twiddle = np.exp(sign * np.arange(half) / length)
        y = y.reshape(*y.shape[:-1], n // length, length)
        even = y[..., :half]
        odd = y[..., half:] * twiddle
        upper = even + odd
        lower = even - odd
        y = np.concatenate([upper, lower], axis=-1)
        y = y.reshape(*y.shape[:-2], n)
        length *= 2
    return y


def _ref_fft_bluestein(x: np.ndarray, inverse: bool) -> np.ndarray:
    n = x.shape[-1]
    sign = 1.0 if inverse else -1.0
    k = np.arange(n)
    chirp = np.exp(sign * 1j * math.pi * (k * k % (2 * n)) / n)
    m = 1
    while m < 2 * n - 1:
        m *= 2
    a = np.zeros((*x.shape[:-1], m), dtype=np.complex128)
    a[..., :n] = np.asarray(x, dtype=np.complex128) * chirp
    b = np.zeros(m, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[m - n + 1 :] = np.conj(chirp[1:][::-1])
    fa = _ref_fft_pow2(a, inverse=False)
    fb = _ref_fft_pow2(b, inverse=False)
    conv = _ref_fft_pow2(fa * fb, inverse=True) / m
    return conv[..., :n] * chirp


def _ref_fft(x: np.ndarray, inverse: bool) -> np.ndarray:
    """The parent's ``fft`` along the last axis (n >= 2)."""
    transform = _ref_fft_pow2 if fftlib.is_power_of_two(x.shape[-1]) else _ref_fft_bluestein
    out = transform(x, inverse)
    return out / x.shape[-1] if inverse else out


def _ref_thomas_solve(lower, diag, upper, rhs):
    m, n = rhs.shape
    cp = np.empty((m, n), dtype=rhs.dtype)
    dp = np.empty((m, n), dtype=rhs.dtype)
    cp[:, 0] = upper[0] / diag[:, 0]
    dp[:, 0] = rhs[:, 0] / diag[:, 0]
    for i in range(1, n):
        denom = diag[:, i] - lower[i] * cp[:, i - 1]
        cp[:, i] = (upper[i] if i < n - 1 else 0.0) / denom
        dp[:, i] = (rhs[:, i] - lower[i] * dp[:, i - 1]) / denom
    x = np.empty_like(dp)
    x[:, -1] = dp[:, -1]
    for i in range(n - 2, -1, -1):
        x[:, i] = dp[:, i] - cp[:, i] * x[:, i + 1]
    return x


def _ref_upwind(q, u, v, dx, dy, dt, kdiff):
    """smog's ``_transport_update`` / spectralflow's ``_upwind_update``."""
    adv_x = np.where(u > 0, u * (q[0, 0] - q[-1, 0]) / dx, u * (q[1, 0] - q[0, 0]) / dx)
    adv_y = np.where(v > 0, v * (q[0, 0] - q[0, -1]) / dy, v * (q[0, 1] - q[0, 0]) / dy)
    lap = (q[1, 0] - 2 * q[0, 0] + q[-1, 0]) / dx**2 + (
        q[0, 1] - 2 * q[0, 0] + q[0, -1]
    ) / dy**2
    return q[0, 0] - dt * (adv_x + adv_y) + dt * kdiff * lap


def _ref_sea_breeze_wind(i, j, nx, ny, t):
    shape = np.broadcast(i, j).shape
    x = np.broadcast_to(i, shape) / nx
    y = np.broadcast_to(j, shape) / ny
    phase = 2.0 * np.pi * t
    u = 0.6 + 0.2 * np.sin(phase) + 0.1 * np.sin(2 * np.pi * y)
    v = 0.3 * np.cos(phase) + 0.1 * np.sin(2 * np.pi * x)
    return u, v


# -- FFT -------------------------------------------------------------------------

_LEADING = st.sampled_from([(), (1,), (3,), (2, 5)])


def _signal(seed: int, shape: tuple[int, ...], kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "real":
        return rng.standard_normal(shape)
    if kind == "complex":
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # every other sample of a longer signal: a strided, non-contiguous view
    wide = rng.standard_normal((*shape[:-1], 2 * shape[-1])) * (1 + 2j)
    return wide[..., ::2]


class TestFFT:
    @settings(max_examples=120, deadline=None)
    @given(
        log_n=st.integers(1, 8),
        leading=_LEADING,
        inverse=st.booleans(),
        kind=st.sampled_from(["real", "complex", "strided"]),
        seed=st.integers(0, 2**16),
    )
    def test_pow2_matches_the_concatenating_transform(self, log_n, leading, inverse, kind, seed):
        x = _signal(seed, (*leading, 1 << log_n), kind)
        assert same_bits(fft(x, inverse=inverse), _ref_fft(x, inverse))

    @pytest.mark.parametrize("n", [12, 45])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "strided"])
    def test_bluestein_matches(self, n, inverse, kind):
        x = _signal(n, (3, n), kind)
        assert same_bits(fft(x, inverse=inverse), _ref_fft(x, inverse))

    def test_other_axis_and_input_untouched(self):
        x = _signal(5, (16, 3), "complex")
        before = x.copy()
        got = fft(x, axis=0)
        assert same_bits(np.moveaxis(got, 0, -1), _ref_fft(np.moveaxis(x, 0, -1), False))
        assert same_bits(x, before)
        got[...] = 0  # the result is the caller's own


class TestPlanCache:
    def test_plan_arrays_are_read_only(self):
        rev, twiddles = fftlib._pow2_plan(16, False)
        _, chirp, fb = fftlib._bluestein_plan(12, False)
        for array in (rev, *twiddles, chirp, fb):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_bit_reverse_indices_stays_fresh_and_writeable(self):
        fftlib._pow2_plan(8, False)
        first, second = bit_reverse_indices(8), bit_reverse_indices(8)
        assert first is not second and first.flags.writeable
        first[:] = 0
        assert list(second) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_sizes_and_directions_do_not_collide(self):
        assert fftlib._pow2_plan.cache_info().maxsize == 64
        assert fftlib._bluestein_plan.cache_info().maxsize == 64
        x8, x16 = _signal(1, (4, 8), "complex"), _signal(2, (4, 16), "complex")
        x12, x45 = _signal(3, (2, 12), "real"), _signal(4, (2, 45), "real")
        for _ in range(2):  # second round: every plan comes from the cache
            for x in (x8, x16, x12, x45):
                for inverse in (False, True):
                    assert same_bits(fft(x, inverse=inverse), _ref_fft(x, inverse))
        forward, backward = fftlib._pow2_plan(8, False), fftlib._pow2_plan(8, True)
        assert forward is fftlib._pow2_plan(8, False)
        assert forward[1][-1][1].imag < 0 < backward[1][-1][1].imag
        assert np.array_equal(forward[1][-1], np.conj(backward[1][-1]))
        assert len(fftlib._pow2_plan(16, False)[1]) == 4


# -- Thomas ----------------------------------------------------------------------


def _systems(seed: int, m: int, n: int, complex_rhs: bool):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(0.5, 1.5, n)
    upper = rng.uniform(0.5, 1.5, n)
    diag = -4.0 - rng.uniform(0.0, 3.0, (m, n))  # diagonally dominant
    rhs = rng.standard_normal((m, n))
    if complex_rhs:
        rhs = rhs + 1j * rng.standard_normal((m, n))
    return lower, diag, upper, rhs


class TestThomas:
    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 9),
        complex_rhs=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_solve_matches_the_one_shot_sweep(self, m, n, complex_rhs, seed):
        lower, diag, upper, rhs = _systems(seed, m, n, complex_rhs)
        expected = _ref_thomas_solve(lower, diag, upper, rhs)
        assert same_bits(thomas_solve(lower, diag, upper, rhs), expected)

    @pytest.mark.parametrize("complex_rhs", [False, True])
    def test_walls_and_signed_zeros(self, complex_rhs):
        """The Helmholtz shape: unit pivots and zero right-hand sides at
        both walls, where the recurrences produce exact (signed) zeros."""
        n, m = 7, 3
        lower, upper = np.full(n, 144.0), np.full(n, 144.0)
        lower[-1] = upper[0] = 0.0
        diag = -288.0 - np.arange(m)[:, None] ** 2 * np.ones((m, n))
        diag[:, 0] = diag[:, -1] = 1.0
        rhs = -_systems(9, m, n, complex_rhs)[3]
        rhs[:, 0] = rhs[:, -1] = 0.0
        expected = _ref_thomas_solve(lower, diag, upper, rhs)
        assert same_bits(thomas_solve(lower, diag, upper, rhs), expected)

    def test_factor_reused_across_calls_equals_fresh_solves(self):
        lower, diag, upper, first = _systems(11, 4, 8, True)
        factor = thomas_factor(lower, diag, upper, first.dtype)
        for seed in (12, 13, 14):
            rhs = _systems(seed, 4, 8, True)[3]
            kept = rhs.copy()
            assert same_bits(
                thomas_apply(factor, lower, rhs), _ref_thomas_solve(lower, diag, upper, rhs)
            )
            assert same_bits(rhs, kept)

    def test_factor_is_read_only_and_lives_in_no_module(self):
        factor = thomas_factor(*_systems(15, 2, 4, False)[:3], np.float64)
        for array in factor:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        # the per-program cache is a local of spectralflow_program
        assert not hasattr(thomas_factor, "cache_info")
        assert not [
            name
            for name, value in vars(spectralflow).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        ]


# -- upwind body, wind ------------------------------------------------------------


class _Shifted:
    """A halo-1 stencil view over a plain ghosted array."""

    def __init__(self, ghosted: np.ndarray):
        self._a = ghosted

    def __getitem__(self, offset):
        di, dj = offset
        n0, n1 = self._a.shape
        return self._a[1 + di : n0 - 1 + di, 1 + dj : n1 - 1 + dj]


class TestUpwind:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        calm=st.booleans(),
    )
    def test_select_then_scale_matches_scale_then_select(self, rows, cols, seed, calm):
        rng = np.random.default_rng(seed)
        q = _Shifted(rng.standard_normal((rows + 2, cols + 2)))
        u, v = rng.standard_normal((2, rows, cols))
        if calm:  # exact zeros and a negative zero in the wind
            u[0, 0], v[-1, -1] = 0.0, -0.0
        out = np.full((rows, cols), np.nan)
        upwind_step(out, q, u, v, 1 / 12, 1 / 16, 2e-3, 5e-3)
        assert same_bits(out, _ref_upwind(q, u, v, 1 / 12, 1 / 16, 2e-3, 5e-3))

    @pytest.mark.parametrize("t", [0.0, 2e-3, 0.25, 0.5, 1.37])
    def test_wind_equals_the_one_expression_form(self, t):
        ii, jj = np.ix_(np.arange(3, 11), np.arange(12))
        for got, expected in zip(
            sea_breeze_wind(ii, jj, 20, 12, t), _ref_sea_breeze_wind(ii, jj, 20, 12, t)
        ):
            assert same_bits(got, expected)


# -- applications -----------------------------------------------------------------


class TestApplicationPins:
    """A = the parent's bodies run region by region, B = this tree."""

    @pytest.mark.parametrize("tile_bytes", [None, 128], ids=["default-tiles", "row-tiles"])
    @pytest.mark.parametrize(
        "pin", _PINS["rows"], ids=lambda pin: f"{pin['case']}-p{pin['nprocs']}"
    )
    def test_digest_and_clocks_hold(self, pin, tile_bytes, monkeypatch):
        if tile_bytes is not None:
            monkeypatch.setattr("repro.kernels.runtime._TILE_BYTES", tile_bytes)
        case = _PINS["cases"][pin["case"]]
        res = registry.get(case["app"]).run(
            {"nprocs": pin["nprocs"], **case["params"]}, machine=_PINS["machine"]
        )
        assert value_digest(res.values) == pin["values"]
        assert [float(t).hex() for t in res.times] == pin["clocks"]
