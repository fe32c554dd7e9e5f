"""Dominance tests between points.

The library uses the *minimisation* convention throughout: a point ``p``
dominates a point ``q`` when ``p[k] <= q[k]`` in every dimension ``k`` and
``p[j] < q[j]`` in at least one dimension ``j``.  This matches the paper's
hotel example where both distance-to-downtown and daily rate are minimised.

Two families of helpers are provided:

* scalar tests over single points (``dominates``, ``compare``) used by the
  tree algorithms where points arrive one at a time, and
* vectorised tests over numpy blocks (``dominates_block``,
  ``block_dominates``, ``dominated_mask``) used by the block-oriented
  algorithms (BNL/SFS) and the verification oracle, and all-pairs
  passes (``dominance_blocks``, ``dominance_counts``) used by the query
  extensions.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

PointLike = Union[Sequence[float], np.ndarray]

#: row pairs per comparison block of the all-pairs passes
BLOCK_CELLS = 1 << 16


class DominanceRelation(enum.Enum):
    """Outcome of a three-way dominance comparison between two points."""

    DOMINATES = "dominates"
    DOMINATED = "dominated"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


def dominates(p: PointLike, q: PointLike) -> bool:
    """Return True when ``p`` dominates ``q`` (minimisation convention).

    ``p`` dominates ``q`` iff ``p <= q`` componentwise and ``p != q``.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    return bool(np.all(p <= q) and np.any(p < q))


def strictly_dominates(p: PointLike, q: PointLike) -> bool:
    """Return True when ``p < q`` in *every* dimension.

    Strict dominance is what Lemma 1 needs for region-level pruning: if the
    max corner of one RZ-region strictly dominates the min corner of
    another, every point of the second region is dominated.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    return bool(np.all(p < q))


def dominates_or_equal(p: PointLike, q: PointLike) -> bool:
    """Return True when ``p <= q`` in every dimension (weak dominance)."""
    p = np.asarray(p)
    q = np.asarray(q)
    return bool(np.all(p <= q))


def compare(p: PointLike, q: PointLike) -> DominanceRelation:
    """Three-way dominance comparison between points ``p`` and ``q``."""
    p = np.asarray(p)
    q = np.asarray(q)
    le = bool(np.all(p <= q))
    ge = bool(np.all(p >= q))
    if le and ge:
        return DominanceRelation.EQUAL
    if le:
        return DominanceRelation.DOMINATES
    if ge:
        return DominanceRelation.DOMINATED
    return DominanceRelation.INCOMPARABLE


def dominates_block(p: PointLike, block: np.ndarray) -> np.ndarray:
    """Vectorised test of one point against a block of points.

    Returns a boolean array where entry ``i`` is True iff ``p`` dominates
    ``block[i]``.  ``block`` must be a 2-D ``(n, d)`` array.
    """
    p = np.asarray(p)
    le = np.all(p <= block, axis=1)
    lt = np.any(p < block, axis=1)
    return le & lt


def block_dominates(block: np.ndarray, p: PointLike) -> np.ndarray:
    """Vectorised test of a block of points against one point.

    Returns a boolean array where entry ``i`` is True iff ``block[i]``
    dominates ``p``.
    """
    p = np.asarray(p)
    le = np.all(block <= p, axis=1)
    lt = np.any(block < p, axis=1)
    return le & lt


def any_dominates(block: np.ndarray, p: PointLike) -> bool:
    """Return True when any point of ``block`` dominates ``p``."""
    if block.shape[0] == 0:
        return False
    return bool(block_dominates(block, p).any())


def dominated_mask(
    points: np.ndarray, dominators: np.ndarray, chunk: int = 2048
) -> np.ndarray:
    """For each row of ``points``, is it dominated by any ``dominators`` row?

    Fully vectorised in chunks (memory ``chunk * len(dominators)``
    booleans).  This is the workhorse of the mapper-side SZB prefilter,
    where every input point is screened against the sample skyline.
    """
    points = np.asarray(points, dtype=np.float64)
    dominators = np.asarray(dominators, dtype=np.float64)
    n = points.shape[0]
    out = np.zeros(n, dtype=bool)
    if dominators.shape[0] == 0 or n == 0:
        return out
    for start in range(0, n, chunk):
        part = points[start : start + chunk]
        le = np.all(dominators[None, :, :] <= part[:, None, :], axis=2)
        lt = np.any(dominators[None, :, :] < part[:, None, :], axis=2)
        out[start : start + chunk] = (le & lt).any(axis=1)
    return out


def dominance_counts(
    points: np.ndarray, dominators: Optional[np.ndarray] = None
) -> np.ndarray:
    """Return, for each point, the number of ``dominators`` rows
    (default: the points themselves) that dominate it.

    Entry ``i`` is the count of indices ``j`` with ``dominators[j]``
    dominating ``points[i]``; quadratic work in
    :func:`dominance_blocks`.
    """
    points = np.asarray(points, dtype=np.float64)
    counts = np.zeros(points.shape[0], dtype=np.int64)
    by = points if dominators is None else dominators
    for _, block in dominance_blocks(by, points):
        counts += block.sum(axis=0)
    return counts


def dominance_blocks(
    a: np.ndarray, b: np.ndarray
) -> Iterator[Tuple[slice, np.ndarray]]:
    """Blocks ``(rows, M[rows])`` of the matrix ``M[i, j]`` = "``a[i]``
    dominates ``b[j]``", for finite inputs.

    Columns become dense ranks over both inputs, which keep every ``<``
    and ``==`` (``-0.0 == 0.0``) and make sums exact: given ``a <= b``
    in every column, ``a != b`` iff ``a`` has the smaller rank sum.  So
    a block is one 2-D comparison per dimension AND-ed onto a sum test.
    """
    a = np.asarray(a, dtype=np.float64)
    both = np.concatenate([a, np.asarray(b, dtype=np.float64)])
    ranks = np.empty(both.shape[::-1], np.min_scalar_type(both.shape[0]))
    for dim in range(both.shape[1]):
        ranks[dim] = np.unique(both[:, dim], return_inverse=True)[1]
    rank_a, rank_b = ranks[:, : a.shape[0]], ranks[:, a.shape[0] :]
    sum_a = rank_a.sum(axis=0, dtype=np.int64)
    sum_b = rank_b.sum(axis=0, dtype=np.int64)
    step = max(1, BLOCK_CELLS // max(1, rank_b.shape[1]))
    for lo in range(0, a.shape[0], step):
        part = slice(lo, lo + step)
        block = sum_a[part, None] < sum_b
        for col_a, col_b in zip(rank_a, rank_b):
            block &= col_a[part, None] <= col_b
        yield part, block
