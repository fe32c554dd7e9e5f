"""All-pairs reference answers for the query extensions.

Each function follows its definition directly: every row is compared
with every row, one row against all rows per numpy call, and nothing
from ``repro`` is used, so the kernels are never checked against
themselves.  Dominance is minimisation: ``p`` dominates ``q`` when
``p <= q`` in every dimension and ``p < q`` in at least one; ``p``
k-dominates ``q`` when ``p <= q`` in at least ``k`` dimensions and
``p < q`` in at least one.  Quadratic in the number of rows.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def _dominators(rows: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """Mask over ``rows``: which rows k-dominate ``p``."""
    return ((rows <= p).sum(axis=1) >= k) & (rows < p).any(axis=1)


def _dominated(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask over ``rows``: which rows ``p`` dominates."""
    return (p <= rows).all(axis=1) & (p < rows).any(axis=1)


def skyline_ids(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Sorted ids of the rows no row dominates."""
    points = np.asarray(points, dtype=np.float64)
    return k_dominant_ids(points, ids, points.shape[1])


def k_dominant_ids(
    points: np.ndarray, ids: np.ndarray, k: int
) -> np.ndarray:
    """Sorted ids of the rows no row k-dominates."""
    points = np.asarray(points, dtype=np.float64)
    keep = [
        i for i in range(points.shape[0])
        if not _dominators(points, points[i], k).any()
    ]
    return np.sort(np.asarray(ids, dtype=np.int64)[keep])


def subspace_ids(
    points: np.ndarray, ids: np.ndarray, dims: Sequence[int]
) -> np.ndarray:
    """Sorted ids of the rows whose projection onto ``dims`` no row's
    projection dominates."""
    proj = np.asarray(points, dtype=np.float64)[:, list(dims)]
    return k_dominant_ids(proj, ids, proj.shape[1])


def dominance_counts(sky: np.ndarray, data: np.ndarray) -> np.ndarray:
    """For each ``sky`` row, how many ``data`` rows it dominates."""
    data = np.asarray(data, dtype=np.float64)
    return np.asarray(
        [int(_dominated(s, data).sum()) for s in np.asarray(sky, float)],
        dtype=np.int64,
    )


def greedy_cover(sky: np.ndarray, data: np.ndarray, k: int) -> List[int]:
    """Positions of ``sky`` picked by greedy maximum coverage: each
    step takes the lowest position among those dominating the most
    ``data`` rows not yet covered."""
    data = np.asarray(data, dtype=np.float64)
    cover = [_dominated(s, data) for s in np.asarray(sky, float)]
    covered = np.zeros(data.shape[0], dtype=bool)
    chosen: List[int] = []
    for _ in range(min(k, len(cover))):
        best, best_gain = -1, -1
        for pos, rows in enumerate(cover):
            gain = int((rows & ~covered).sum())
            if pos not in chosen and gain > best_gain:
                best, best_gain = pos, gain
        chosen.append(best)
        covered |= cover[best]
    return chosen
