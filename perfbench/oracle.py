"""Brute-force reference answers, written without the program's code.

Everything here is chunked numpy over plain arrays.  Dominance is
minimisation: ``q`` dominates ``p`` when ``q <= p`` in every dimension
and ``q != p``; on such a pair the coordinate sum of ``q`` is strictly
smaller, which the tests below use in place of a second comparison.
That shortcut is exact for integer grid coordinates, which is all the
benchmark feeds the program.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

_CELLS = 1 << 21  # pairs per comparison block


def _chunk(cols: int) -> int:
    """Rows per block so that a block against ``cols`` rows stays small."""
    return max(1, _CELLS // max(1, cols))


def dominated_by(points: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Mask over ``points``: dominated by some row of ``by``."""
    points = np.asarray(points, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    out = np.zeros(points.shape[0], dtype=bool)
    if by.shape[0] == 0 or points.shape[0] == 0:
        return out
    by_sum = by.sum(axis=1)
    step = _chunk(by.shape[0])
    for lo in range(0, points.shape[0], step):
        block = points[lo:lo + step]
        dom = by_sum[None, :] < block.sum(axis=1)[:, None]
        for dim in range(points.shape[1]):
            dom &= by[None, :, dim] <= block[:, None, dim]
        out[lo:lo + step] = dom.any(axis=1)
    return out


def skyline_mask(points: np.ndarray) -> np.ndarray:
    """Mask of skyline rows (exact duplicates are all kept).

    Sort-filter-skyline in chunks: a dominator has a strictly smaller
    sum, so rows in ascending-sum order only meet dominators among the
    survivors so far or inside their own chunk.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    keep = np.zeros(n, dtype=bool)
    order = np.argsort(points.sum(axis=1), kind="stable")
    survivors: List[np.ndarray] = []
    sky = np.empty((0, points.shape[1]))
    step = 256
    for lo in range(0, n, step):
        idx = order[lo:lo + step]
        block = points[idx]
        alive = ~dominated_by(block, sky) & ~dominated_by(block, block)
        keep[idx[alive]] = True
        if alive.any():
            survivors.append(block[alive])
            sky = np.vstack(survivors)
            survivors = [sky]
    return keep


def skyline_ids(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return np.sort(np.asarray(ids)[skyline_mask(points)])


def subspace_ids(points: np.ndarray, ids: np.ndarray,
                 dims: List[int]) -> np.ndarray:
    return skyline_ids(np.asarray(points)[:, dims], ids)


def kdominant_ids(points: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Rows no other row k-dominates: ``<=`` in at least ``k`` dimensions
    with ``<`` in at least one of them."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    dominated = np.zeros(n, dtype=bool)
    step = _chunk(n)
    for lo in range(0, n, step):
        block = points[lo:lo + step]
        le = np.zeros((block.shape[0], n), dtype=np.int16)
        lt = np.zeros((block.shape[0], n), dtype=bool)
        for dim in range(d):
            le += points[None, :, dim] <= block[:, None, dim]
            lt |= points[None, :, dim] < block[:, None, dim]
        dominated[lo:lo + step] = ((le >= k) & lt).any(axis=1)
    return np.sort(np.asarray(ids)[~dominated])


def dominance_counts(sky: np.ndarray, data: np.ndarray) -> np.ndarray:
    """For each skyline row, how many data rows it dominates."""
    return np.array([int(dominated_by(data, row[None, :]).sum())
                     for row in sky], dtype=np.int64)


def topk(points: np.ndarray, ids: np.ndarray, k: int, method: str,
         weights: Optional[Tuple[float, ...]] = None
         ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(ids, scores)`` of the top-k skyline rows, ties in id order."""
    points = np.asarray(points, dtype=np.float64)
    ids = np.asarray(ids)
    mask = skyline_mask(points)
    order = np.argsort(ids[mask], kind="stable")
    sky, sky_ids = points[mask][order], ids[mask][order]
    if method == "representative":
        covers = [dominated_by(points, row[None, :]) for row in sky]
        covered = np.zeros(points.shape[0], dtype=bool)
        chosen: List[int] = []
        for _ in range(min(k, sky.shape[0])):
            gains = [-1 if i in chosen else int((c & ~covered).sum())
                     for i, c in enumerate(covers)]
            best = int(np.argmax(gains))
            chosen.append(best)
            covered |= covers[best]
        return sky_ids[chosen], None
    if method == "dominance":
        scores = dominance_counts(sky, points).astype(np.float64)
        rank = np.argsort(-scores, kind="stable")
    elif method == "sum":
        scores = sky.sum(axis=1)
        rank = np.argsort(scores, kind="stable")
    else:
        scores = sky @ np.asarray(weights, dtype=np.float64)
        rank = np.argsort(scores, kind="stable")
    return sky_ids[rank][:k], scores[rank][:k]


def explain(point: np.ndarray, points: np.ndarray,
            ids: np.ndarray) -> Dict[str, object]:
    """Dominators of ``point`` (ids ascending), membership, and the
    one-dimension fixes that would make it a skyline member."""
    point = np.asarray(point, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    le = (points <= point).all(axis=1)
    doms = le & (points.sum(axis=1) < point.sum())
    dom_ids = np.sort(np.asarray(ids)[doms])
    fixes: Dict[int, float] = {}
    if doms.any():
        floor = points[doms].min(axis=0)
        for dim in range(point.shape[0]):
            if point[dim] - floor[dim] >= 0.0:
                fixes[dim] = float(point[dim] - floor[dim])
    return {"dominator_ids": dom_ids, "member": not doms.any(),
            "fixes": fixes}
