"""k-dominant skylines (Chan, Jagadish, Tan, Tung, Zhang — SIGMOD'06).

In high dimensions almost nothing dominates anything and the skyline
explodes (the paper's 225-D/512-D datasets have skyline = everything).
k-dominance relaxes the requirement: ``p`` k-dominates ``q`` when ``p``
is no worse than ``q`` on *at least k* dimensions and strictly better on
at least one of those.  The k-dominant skyline (points k-dominated by
nobody) shrinks monotonically as k decreases and equals the ordinary
skyline at ``k = d``.

k-dominance is not transitive, so a window-eviction algorithm is
unsound.  One composition does hold: if ``s`` dominates ``q`` and ``q``
k-dominates ``c``, then ``s`` k-dominates ``c``.  So a row off the
skyline is k-dominated (by its dominator) and k-dominates nothing its
skyline dominator does not: any rows drawn from the input that contain
its skyline have the input's k-dominant skyline, and the serving tier
passes its maintained skyline instead of all rows.  The kernel compares
every row with every row, one 2-D comparison per dimension and flag.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.point import BLOCK_CELLS
from repro.zorder.zbtree import OpCounter


def k_dominates(p: np.ndarray, q: np.ndarray, k: int) -> bool:
    """Does ``p`` k-dominate ``q``?"""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    d = p.shape[0]
    _validate_k(k, d)
    le = p <= q
    lt = p < q
    # Best case for p: count the dimensions where it is no worse; among
    # any qualifying k-subset there must be a strict win, which holds
    # iff some strict-win dimension is part of the <=-set (always true
    # since < implies <=) and the <=-count reaches k.
    return bool(le.sum() >= k and lt.any() and (le & lt).any())


def k_dominant_skyline(
    points: np.ndarray,
    k: int,
    ids: Optional[np.ndarray] = None,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The k-dominant skyline of ``points``.

    Returns ``(points, ids)`` of the rows not k-dominated by any other
    row, in row order.  ``k = d`` reduces to the ordinary skyline.
    """
    pts = np.asarray(points, dtype=np.float64)
    pts = pts.reshape(-1, pts.shape[1] if pts.ndim == 2 else 1)
    n, d = pts.shape
    _validate_k(k, d)
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    dominated = np.zeros(n, dtype=bool)
    step = max(1, BLOCK_CELLS // max(1, n))
    for lo in range(0, n, step):
        block = pts[lo : lo + step]
        # count[i, j]: dimensions where row i is no worse than block row
        # j; strict[i, j]: row i is better somewhere
        count = np.zeros((n, block.shape[0]), dtype=np.int16)
        strict = np.zeros(count.shape, dtype=bool)
        for dim in range(d):
            col, targets = pts[:, dim, None], block[:, dim]
            count += col <= targets
            strict |= col < targets
        dominated[lo : lo + step] = (strict & (count >= k)).any(axis=0)
    if counter is not None:
        counter.point_tests += n * n
    return pts[~dominated], ids[~dominated]


def _validate_k(k: int, d: int) -> None:
    if not (1 <= k <= d):
        raise DatasetError(f"k must be in [1, {d}]; got {k}")
