"""Rendering for benchmark results: tables and ASCII speedup plots."""

from __future__ import annotations

from repro.bench.harness import SpeedupCurve


def format_curves(title: str, curves: list[SpeedupCurve]) -> str:
    """A table with one row per process count and one column per curve —
    the rows the paper's figures plot."""
    procs = sorted({p for c in curves for p in c.procs})
    headers = ["P"] + [c.label for c in curves]
    widths = [max(len(h), 6) for h in headers]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for p in procs:
        row = [str(p).rjust(widths[0])]
        for c, w in zip(curves, widths[1:]):
            cell = f"{c.at(p).speedup:.2f}" if p in c.procs else "-"
            row.append(cell.rjust(w))
        lines.append("  ".join(row))
    return "\n".join(lines)


def render_ascii_plot(
    curves: list[SpeedupCurve], width: int = 60, height: int = 18
) -> str:
    """A rough ASCII rendering of speedup-vs-processors curves.

    Each curve gets a marker character; the diagonal reference (perfect
    speedup) can be included as one of the curves.
    """
    markers = "ox+*#@%&"
    max_p = max(p for curve in curves for p in curve.procs)
    max_s = max(1.0, max(max(curve.speedups) for curve in curves))
    grid = [[" "] * (width + 1) for _ in range(height + 1)]
    for ci, curve in enumerate(curves):
        m = markers[ci % len(markers)]
        for pt in curve.points:
            x = round(pt.procs / max_p * width)
            y = round(pt.speedup / max_s * height)
            grid[height - y][x] = m
    lines = [f"speedup (max {max_s:.1f})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * (width + 1) + f"> processors (max {max_p})")
    for ci, curve in enumerate(curves):
        lines.append(f"  {markers[ci % len(markers)]} = {curve.label}")
    return "\n".join(lines)
