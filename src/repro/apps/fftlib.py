"""From-scratch one-dimensional FFT.

The mesh-spectral FFT application (paper §4.4) needs a sequential 1-D
transform for its row/column operations; we build it rather than calling
a library: an iterative radix-2 Cooley–Tukey for power-of-two lengths,
vectorised over leading axes so a whole local block of rows transforms at
once, plus Bluestein's chirp-z algorithm for arbitrary lengths.

A row operation applies one operator to every row at every step, so what
depends only on length and direction — bit-reversal permutation, every
stage's twiddles, Bluestein's chirp and transformed filter — is a *plan*:
derived once per ``(n, direction)``, cached (64 plans, read-only arrays).

Cost model: the conventional ``5 n log2 n`` real operations per length-n
complex transform.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import ReproError


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of ``range(n)`` (n a power of two)."""
    if not is_power_of_two(n):
        raise ReproError(f"bit reversal needs a power-of-two length, got {n}")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros_like(idx)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def fft_cost(n: int, count: int = 1) -> float:
    """Analytic work of *count* length-*n* complex transforms."""
    if n <= 1:
        return 0.0
    return 5.0 * n * math.log2(n) * count


def _frozen(a: np.ndarray) -> np.ndarray:
    """*a*, read-only: plans are shared by every later transform."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _pow2_plan(n: int, inverse: bool) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """What a length-*n* radix-2 transform derives from its shape alone:
    the bit-reversal permutation and each stage's twiddle factors
    (stage lengths 2, 4, ..., n)."""
    sign = 2j * math.pi if inverse else -2j * math.pi
    twiddles = tuple(
        _frozen(np.exp(sign * np.arange(length // 2) / length))
        for length in (2 << stage for stage in range(n.bit_length() - 1))
    )
    return _frozen(bit_reverse_indices(n)), twiddles


def _fft_pow2(x: np.ndarray, inverse: bool) -> np.ndarray:
    """Iterative radix-2 Cooley–Tukey along the last axis (n = 2^k).

    Only the butterflies run per call: permutation and twiddles come
    from the plan, and each stage writes its sums and differences
    straight into the other of two buffers."""
    n = x.shape[-1]
    rev, twiddles = _pow2_plan(n, inverse)
    src = np.take(np.asarray(x, dtype=np.complex128), rev, axis=-1)  # C-contiguous
    dst = np.empty_like(src)
    odd = np.empty((*src.shape[:-1], n // 2), dtype=np.complex128)
    for twiddle in twiddles:
        half = twiddle.size
        stage = (*src.shape[:-1], n // (2 * half), 2 * half)
        a, b = src.reshape(stage), dst.reshape(stage)
        even = a[..., :half]
        t = np.multiply(a[..., half:], twiddle, out=odd.reshape(*stage[:-1], half))
        np.add(even, t, out=b[..., :half])
        np.subtract(even, t, out=b[..., half:])
        src, dst = dst, src
    return src


@lru_cache(maxsize=64)
def _bluestein_plan(n: int, inverse: bool) -> tuple[int, np.ndarray, np.ndarray]:
    """Padded length, chirp and transformed chirp filter of a length-*n*
    Bluestein transform."""
    sign = 1.0 if inverse else -1.0
    k = np.arange(n)
    chirp = np.exp(sign * 1j * math.pi * (k * k % (2 * n)) / n)
    m = 1
    while m < 2 * n - 1:
        m *= 2
    b = np.zeros(m, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[m - n + 1 :] = np.conj(chirp[1:][::-1])
    return m, _frozen(chirp), _frozen(_fft_pow2(b, inverse=False))


def _fft_bluestein(x: np.ndarray, inverse: bool) -> np.ndarray:
    """Bluestein chirp-z transform for arbitrary n, via a 2^k convolution."""
    n = x.shape[-1]
    m, chirp, fb = _bluestein_plan(n, inverse)
    a = np.zeros((*x.shape[:-1], m), dtype=np.complex128)
    a[..., :n] = np.asarray(x, dtype=np.complex128) * chirp
    fa = _fft_pow2(a, inverse=False)
    conv = _fft_pow2(fa * fb, inverse=True) / m
    return conv[..., :n] * chirp


def fft(x: np.ndarray, inverse: bool = False, axis: int = -1) -> np.ndarray:
    """Complex DFT along *axis* (no normalisation on the forward pass;
    the inverse divides by n, so ``fft(fft(x), inverse=True) == x``).

    Power-of-two lengths use radix-2 Cooley–Tukey; other lengths use
    Bluestein.  Vectorised over all other axes.
    """
    x = np.asarray(x)
    if x.ndim == 0:
        raise ReproError("fft needs at least one dimension")
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    if n == 0:
        raise ReproError("fft of an empty axis")
    if n == 1:
        out = moved.astype(np.complex128)
    elif is_power_of_two(n):
        out = _fft_pow2(moved, inverse)
    else:
        out = _fft_bluestein(moved, inverse)
    if inverse:
        out /= n  # every branch above returned a fresh array
    return np.moveaxis(out, -1, axis)


def ifft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse DFT (normalised by 1/n)."""
    return fft(x, inverse=True, axis=axis)


def fft2(x: np.ndarray) -> np.ndarray:
    """Sequential 2-D DFT (rows then columns) — the paper's sequential
    algorithm and the reference for the distributed version."""
    return fft(fft(x, axis=1), axis=0)


def ifft2(x: np.ndarray) -> np.ndarray:
    """Sequential inverse 2-D DFT."""
    return ifft(ifft(x, axis=0), axis=1)


def fft_frequencies(n: int, d: float = 1.0) -> np.ndarray:
    """Sample frequencies matching :func:`fft` output ordering."""
    k = np.arange(n)
    k[k >= (n + 1) // 2] -= n
    return k / (n * d)
