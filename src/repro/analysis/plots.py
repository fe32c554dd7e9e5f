"""ASCII scatter plots for quick 2-D skyline inspection.

The paper's Figure 1(b) intuition — dominated mass above-right of the
staircase frontier — in a terminal, no plotting dependencies.  Skyline
points render as ``*``, dominated points as ``.``; smaller is better,
so the frontier hugs the lower-left.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.point import dominance_counts


def ascii_scatter(
    points: np.ndarray,
    skyline_indices: Optional[Sequence[int]] = None,
    width: int = 60,
    height: int = 20,
    dims: Sequence[int] = (0, 1),
) -> str:
    """Render two dimensions of a point set as an ASCII scatter plot.

    ``skyline_indices`` defaults to computing the 2-D projection's
    skyline.  The y-axis is drawn increasing upward, so "better" is the
    bottom-left corner.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise DatasetError("need a non-empty (n, d) array")
    if len(dims) != 2:
        raise DatasetError("exactly two dimensions to plot")
    x_dim, y_dim = dims
    if not (0 <= x_dim < pts.shape[1] and 0 <= y_dim < pts.shape[1]):
        raise DatasetError("plot dimensions out of range")
    if width < 2 or height < 2:
        raise DatasetError("width and height must be >= 2")

    plane = pts[:, [x_dim, y_dim]]
    if skyline_indices is None:
        skyline_indices = np.flatnonzero(dominance_counts(plane) == 0)
    sky_set = set(int(i) for i in skyline_indices)

    lo = plane.min(axis=0)
    hi = plane.max(axis=0)
    span = np.where(hi - lo == 0.0, 1.0, hi - lo)
    cols = np.minimum(
        ((plane[:, 0] - lo[0]) / span[0] * (width - 1)).astype(int),
        width - 1,
    )
    rows = np.minimum(
        ((plane[:, 1] - lo[1]) / span[1] * (height - 1)).astype(int),
        height - 1,
    )

    canvas = [[" "] * width for _ in range(height)]
    # Draw dominated points first so skyline markers win cell conflicts.
    for i in range(plane.shape[0]):
        if i not in sky_set:
            canvas[rows[i]][cols[i]] = "."
    for i in sky_set:
        canvas[rows[i]][cols[i]] = "*"

    lines = [
        f"y: dim {y_dim} (min {lo[1]:.3g}, max {hi[1]:.3g});  "
        f"x: dim {x_dim} (min {lo[0]:.3g}, max {hi[0]:.3g})",
        "+" + "-" * width + "+",
    ]
    for row in reversed(canvas):
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    lines.append(f"* skyline ({len(sky_set)})   . dominated")
    return "\n".join(lines)
