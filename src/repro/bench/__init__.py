"""Benchmark harness: the experiments behind every figure in the paper.

:mod:`repro.bench.harness` runs speedup experiments (virtual parallel
time vs. a sequential baseline on a modelled machine);
:mod:`repro.bench.figures` defines one experiment per numeric figure of
the paper (Figures 6, 12, 15, 16, 17, 18), each a sweep of registered
apps (:mod:`repro.apps.registry`); :mod:`repro.bench.report`
renders the series as the tables/ASCII plots ``python -m repro.bench``
prints.  Virtual time only: host seconds are ``perfbench``'s.
"""

from repro.bench.harness import SpeedupCurve, SpeedupPoint, measure_speedups
from repro.bench.figures import (
    figure06_mergesort,
    figure12_fft2d,
    figure15_poisson,
    figure16_cfd,
    figure17_fdtd,
    figure18_spectral,
    overlap_ablation,
)
from repro.bench.report import format_curves, render_ascii_plot
from repro.bench.predict import (
    exchange_time,
    overlapped_exchange_time,
    predict_cfd,
    predict_fft2d,
    predict_onedeep_sort,
    predict_poisson,
)

__all__ = [
    "exchange_time",
    "overlapped_exchange_time",
    "predict_onedeep_sort",
    "predict_poisson",
    "predict_fft2d",
    "predict_cfd",
    "overlap_ablation",
    "SpeedupPoint",
    "SpeedupCurve",
    "measure_speedups",
    "figure06_mergesort",
    "figure12_fft2d",
    "figure15_poisson",
    "figure16_cfd",
    "figure17_fdtd",
    "figure18_spectral",
    "format_curves",
    "render_ascii_plot",
]
