"""Subspace skylines and the skycube.

A point interesting in the full space may be there only thanks to one
niche dimension; subspace skylines answer "best trade-offs over *these*
criteria".  The skycube is the collection of skylines over every
dimension subset — we provide the single-subspace operator plus a
bottom-up skycube enumerator over subsets of bounded size (the full
2^d cube is exponential by nature).

``subspace_skyline`` takes ``candidates``: rows drawn from the input
that contain its full-space skyline.  The skyline V of their
projections is exactly the set of minimal projections of all rows, ties
and duplicates included: a row off the skyline has a skyline dominator
whose projection is no worse.  The answer is every row whose projection
no member of V dominates.  Both steps are dominance tests, so
projections match by value (``-0.0 == 0.0``), never by bytes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.point import dominance_counts


def subspace_skyline(
    points: np.ndarray,
    dimensions: Sequence[int],
    ids: Optional[np.ndarray] = None,
    candidates: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Skyline of ``points`` projected onto the given dimensions.

    Returns ``(full_points, ids)`` of the rows whose *projection* is not
    dominated in the subspace (rows keep all their coordinates), in row
    order.  ``candidates`` are rows of ``points`` that contain its
    full-space skyline (default: all rows).
    """
    pts = np.asarray(points, dtype=np.float64)
    d = pts.shape[1] if pts.ndim == 2 else 0
    dims = list(dimensions)
    if not dims:
        raise DatasetError("need at least one dimension")
    if len(set(dims)) != len(dims):
        raise DatasetError("dimensions must be distinct")
    if any(not (0 <= k < d) for k in dims):
        raise DatasetError(f"dimensions out of range for d={d}")
    if ids is None:
        ids = np.arange(pts.shape[0], dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    cand = pts if candidates is None else np.asarray(candidates, np.float64)
    cand = cand[:, dims]
    front = cand[dominance_counts(cand) == 0]
    keep = dominance_counts(pts[:, dims], front) == 0
    return pts[keep], ids[keep]


def skycube(
    points: np.ndarray,
    max_subspace_size: Optional[int] = None,
    ids: Optional[np.ndarray] = None,
) -> Dict[Tuple[int, ...], np.ndarray]:
    """Skyline ids for every dimension subset up to the given size.

    Returns ``{(dims...): skyline_ids}``.  With ``max_subspace_size``
    unset, enumerates the full skycube (2^d - 1 cuboids) — keep d small.
    The full-space skyline is computed once and is every cuboid's
    candidate set.
    """
    pts = np.asarray(points, dtype=np.float64)
    d = pts.shape[1]
    limit = d if max_subspace_size is None else max_subspace_size
    if not (1 <= limit <= d):
        raise DatasetError(f"max_subspace_size must be in [1, {d}]")
    sky = pts[dominance_counts(pts) == 0]
    out: Dict[Tuple[int, ...], np.ndarray] = {}
    for size in range(1, limit + 1):
        for dims in itertools.combinations(range(d), size):
            _, sub_ids = subspace_skyline(pts, dims, ids=ids, candidates=sky)
            out[dims] = sub_ids
    return out
