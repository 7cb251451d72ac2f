"""Streaming image-filter pipeline on the pipeline/farm archetype.

A stream of grayscale frames flows through four stages:

1. ``normalize`` — rescale each frame to [0, 1] (readonly state);
2. ``blur`` — 3×3 box filter, the expensive stage, replicated into a
   farm (:class:`~repro.core.pipeline.FarmStage`) whose width is the
   experiment's knob (readonly state: the shared kernel footprint);
3. ``edge`` — central-difference gradient magnitude (readonly);
4. ``stats`` — fold per-frame mean edge strength into a running
   ``(frames, total)`` accumulator (accumulator state, combined across
   workers in canonical order).

The blur costs ~9 mul-adds per pixel against ~3 (normalize) and ~8
(edge) flops, so widening the blur farm raises throughput until the
edge stage saturates — the shape the bench figure plots.  All stage
callbacks are pure NumPy with a fixed operation order, so outputs are
bitwise identical on every backend.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.pipeline import FarmStage, PipelineArchetype, Stage, StateAccess


def make_images(
    count: int = 8, shape: tuple[int, int] = (16, 16), seed: int = 0
) -> list[np.ndarray]:
    """A reproducible stream of float64 test frames."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for _ in range(count)]


def _pixels(img: np.ndarray) -> int:
    return int(img.shape[0]) * int(img.shape[1])


def _normalize(ctx, img: np.ndarray, state) -> np.ndarray:
    lo = float(img.min())
    span = float(img.max()) - lo
    return (img - lo) / (span if span > 0.0 else 1.0)


def _box3(img: np.ndarray) -> np.ndarray:
    """3×3 box filter with edge-replicated padding, fixed summation order."""
    h, w = img.shape
    p = np.empty((h + 2, w + 2), dtype=img.dtype)
    p[1:-1, 1:-1] = img
    p[0, 1:-1], p[-1, 1:-1] = img[0], img[-1]
    p[:, 0], p[:, -1] = p[:, 1], p[:, -2]  # == np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for di in range(3):
        for dj in range(3):
            out += p[di:di + h, dj:dj + w]
    return out / 9.0


def _blur(ctx, img: np.ndarray, state) -> np.ndarray:
    return _box3(img)


def _edge(ctx, img: np.ndarray, state) -> np.ndarray:
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, 1:-1] = (img[:, 2:] - img[:, :-2]) / 2.0
    gy[1:-1, :] = (img[2:, :] - img[:-2, :]) / 2.0
    return np.sqrt(gx * gx + gy * gy)


def _stats(ctx, img: np.ndarray, state) -> tuple[np.ndarray, tuple[int, float]]:
    frames, total = state
    return img, (frames + 1, total + float(img.mean()))


def imagepipe_archetype(
    blur_workers: int = 2, window: int = 4, ordered: bool = True
) -> PipelineArchetype:
    """The image pipeline with a ``blur_workers``-wide blur farm.

    ``run(pipeline.nprocs, images)``; the collector's list holds the
    edge-magnitude frames, and ``accumulated_state(result, "stats")``
    the ``(frames, total_mean_edge)`` fold.
    """
    return PipelineArchetype(
        [
            Stage("normalize", _normalize, work_cost=lambda img: 3.0 * _pixels(img)),
            FarmStage(
                "blur", _blur, workers=blur_workers,
                work_cost=lambda img: 18.0 * _pixels(img),
            ),
            Stage("edge", _edge, work_cost=lambda img: 8.0 * _pixels(img)),
            Stage(
                "stats",
                _stats,
                state_access=StateAccess.ACCUMULATOR,
                init_state=lambda w: (0, 0.0),
                combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
                work_cost=lambda img: float(_pixels(img)),
            ),
        ],
        window=window,
        ordered=ordered,
        emit_cost=lambda img: float(_pixels(img)),
    )


def sequential_reference(
    images: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], tuple[int, float]]:
    """What the pipeline must produce: the same filters, run in-order."""
    outputs = []
    stats = (0, 0.0)
    for img in images:
        out = _edge(None, _blur(None, _normalize(None, img, None), None), None)
        stats = _stats(None, out, stats)[1]
        outputs.append(out)
    return outputs, stats
