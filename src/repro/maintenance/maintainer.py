"""The :class:`SkylineMaintainer`: skyline of a dynamic point set.

State: a columnar *archive* of every alive point plus the maintained
skyline as a ZB-tree.  Inserts are Z-merge folds; deletes re-promote
archived points that were exclusively dominated by removed skyline
members.

All points must already live on the maintainer's grid (integer-valued
coordinates for the configured codec), like everywhere else in the
z-order stack; use :func:`repro.zorder.encoding.quantize_dataset` first
for float data.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.point import dominated_mask
from repro.observability.metrics import MetricsRegistry
from repro.zorder.encoding import ZGridCodec
from repro.zorder.zbtree import OpCounter, ZBTree, build_zbtree
from repro.zorder.zmerge import zmerge
from repro.zorder.zsearch import zsearch

#: metrics group all maintainer observations are filed under
MAINTENANCE_GROUP = "maintenance"

#: a growth step compacts the archive when its dead rows outnumber the
#: live ones, reallocating to this many times ``live + batch`` rows
_COMPACT_HEADROOM = 2


class _Archive:
    """Append-only columnar store of the alive points.

    Rows live in capacity-doubling ``points``/``ids`` arrays, are never
    overwritten, and are marked dead in the ``alive`` bitmap on delete;
    ``rows`` maps each alive id to its row.  Row order is insertion
    order, so an id re-inserted after a delete moves to the end.  When
    an append outgrows the arrays and dead rows outnumber live ones,
    the live rows are compacted (in order) into arrays of
    ``_COMPACT_HEADROOM * (live + batch)`` rows, so memory stays
    bounded under window churn while every row is copied O(1) times
    amortised.
    """

    __slots__ = ("points", "ids", "alive", "rows", "length")

    def __init__(self, dimensions: int) -> None:
        self.points = np.empty((0, dimensions))
        self.ids = np.empty(0, dtype=np.int64)
        self.alive = np.empty(0, dtype=bool)
        self.rows: Dict[int, int] = {}
        #: rows in use, alive or dead
        self.length = 0

    @property
    def capacity(self) -> int:
        return int(self.ids.shape[0])

    def append(self, points: np.ndarray, ids: np.ndarray) -> None:
        k = int(ids.shape[0])
        if self.length + k > self.capacity:
            self._grow(k)
        start, stop = self.length, self.length + k
        self.points[start:stop] = points
        self.ids[start:stop] = ids
        self.alive[start:stop] = True
        self.rows.update(zip(ids.tolist(), range(start, stop)))
        self.length = stop

    def _grow(self, k: int) -> None:
        live = len(self.rows)
        if self.length - live > live:
            keep = np.flatnonzero(self.alive[: self.length])
            capacity = _COMPACT_HEADROOM * (live + k)
        else:
            keep = np.arange(self.length)
            capacity = max(2 * self.capacity, self.length + k)
        points = np.empty((capacity, self.points.shape[1]))
        ids = np.empty(capacity, dtype=np.int64)
        alive = np.zeros(capacity, dtype=bool)
        n = keep.shape[0]
        points[:n] = self.points[keep]
        ids[:n] = self.ids[keep]
        alive[:n] = self.alive[keep]
        if n != self.length:
            self.rows = dict(zip(ids[:n].tolist(), range(n)))
        self.points, self.ids, self.alive = points, ids, alive
        self.length = n

    def remove(self, point_ids: Sequence[int]) -> None:
        rows = [self.rows.pop(pid) for pid in point_ids]
        self.alive[rows] = False

    def points_of(self, point_ids: Sequence[int]) -> np.ndarray:
        rows = [self.rows[pid] for pid in point_ids]
        return self.points[rows]

    def live_mask(self) -> np.ndarray:
        return self.alive[: self.length]

    def live(self) -> Tuple[np.ndarray, np.ndarray]:
        """Alive ``(points, ids)`` in insertion order (fresh copies)."""
        keep = np.flatnonzero(self.live_mask())
        return self.points.take(keep, axis=0), self.ids.take(keep)


class SkylineMaintainer:
    """Maintain the skyline of a set under inserts and deletes.

    ``metrics``, when given, receives per-operation accounting under the
    ``maintenance`` counter group (operation and record counts plus the
    dominance-test deltas of each op) and ``maintenance.*_seconds``
    timers, so a service embedding a maintainer can see what its write
    path costs alongside the serving-side metrics.
    """

    def __init__(
        self,
        codec: ZGridCodec,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.codec = codec
        self.counter = OpCounter()
        self.metrics = metrics
        self._archive = _Archive(codec.dimensions)
        self._sky: ZBTree = build_zbtree(codec, np.empty((0, codec.dimensions)))
        #: cached skyline id-set; invalidated on every mutation and
        #: rebuilt lazily so membership probes are O(1) between updates
        self._sky_id_cache: Optional[FrozenSet[int]] = None

    @classmethod
    def from_state(
        cls,
        codec: ZGridCodec,
        points: np.ndarray,
        ids: np.ndarray,
        skyline_ids: Sequence[int],
        metrics: Optional[MetricsRegistry] = None,
    ) -> "SkylineMaintainer":
        """Adopt precomputed state without re-deriving the skyline.

        ``skyline_ids`` must identify the exact skyline rows of
        ``(points, ids)`` — e.g. the output of a full pipeline run at
        registration, or a durable checkpoint's skyline on recovery.
        """
        points = np.asarray(points, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if points.ndim != 2 or ids.shape != (points.shape[0],):
            raise DatasetError("need (n, d) points and matching ids")
        maintainer = cls(codec, metrics=metrics)
        maintainer._archive.append(points, ids)
        if len(maintainer._archive.rows) != ids.shape[0]:
            raise DatasetError("duplicate ids in adopted state")
        sky_ids = np.unique(np.asarray(skyline_ids, dtype=np.int64))
        missing = [
            pid for pid in sky_ids.tolist()
            if pid not in maintainer._archive.rows
        ]
        if missing:
            raise DatasetError(
                f"skyline ids not present in archive: {missing[:5]}"
            )
        keep = np.isin(ids, sky_ids)
        maintainer._sky = build_zbtree(codec, points[keep], ids=ids[keep])
        return maintainer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of alive points."""
        return len(self._archive.rows)

    @property
    def skyline_size(self) -> int:
        return self._sky.size

    def skyline(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current skyline as ``(points, ids)`` in Z-order."""
        _, points, ids = self._sky.collect()
        return points, ids

    def alive(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every alive point as ``(points, ids)`` in insertion order."""
        return self._archive.live()

    def __contains__(self, point_id: int) -> bool:
        """Is ``point_id`` alive (inserted and not yet deleted)?"""
        return int(point_id) in self._archive.rows

    def skyline_id_set(self) -> FrozenSet[int]:
        """The skyline's id-set, cached between mutations (O(1) reads)."""
        cached = self._sky_id_cache
        if cached is None:
            cached = frozenset(self._sky.ids().tolist())
            self._sky_id_cache = cached
        return cached

    def is_skyline_member(self, point_id: int) -> bool:
        """Is the given alive point currently on the skyline?

        O(1) against the cached id-set (rebuilt at most once per
        mutation) — the serving layer probes this per explain-query.
        """
        if point_id not in self._archive.rows:
            raise DatasetError(f"point id {point_id} is not alive")
        return point_id in self.skyline_id_set()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_op(
        self,
        op: str,
        records: int,
        before: Tuple[int, int, int],
        started: float,
    ) -> None:
        registry = self.metrics
        if registry is None:
            return
        registry.inc(MAINTENANCE_GROUP, f"{op}s")
        registry.inc(MAINTENANCE_GROUP, f"{op}_records", records)
        registry.inc(
            MAINTENANCE_GROUP, "point_tests",
            self.counter.point_tests - before[0],
        )
        registry.inc(
            MAINTENANCE_GROUP, "region_tests",
            self.counter.region_tests - before[1],
        )
        registry.inc(
            MAINTENANCE_GROUP, "nodes_visited",
            self.counter.nodes_visited - before[2],
        )
        registry.record_time(
            f"maintenance.{op}_seconds", time.perf_counter() - started
        )

    def _counter_snapshot(self) -> Tuple[int, int, int]:
        return (
            self.counter.point_tests,
            self.counter.region_tests,
            self.counter.nodes_visited,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[float], point_id: int) -> None:
        """Insert one point (convenience wrapper over insert_block)."""
        self.insert_block(
            np.asarray(point, dtype=np.float64)[None, :],
            np.asarray([point_id], dtype=np.int64),
        )

    def insert_block(self, points: np.ndarray, ids: np.ndarray) -> None:
        """Insert a batch of points.

        The batch's own skyline is computed first (cheap, local), then
        Z-merged into the maintained skyline tree — the same fold the
        distributed pipeline's phase 2 performs.
        """
        started = time.perf_counter()
        before = self._counter_snapshot()
        points = np.asarray(points, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if points.ndim != 2 or ids.shape != (points.shape[0],):
            raise DatasetError("need (n, d) points and matching ids")
        id_list = ids.tolist()
        if len(set(id_list)) != len(id_list):
            raise DatasetError("duplicate ids within insert batch")
        for pid in id_list:
            if pid in self._archive.rows:
                raise DatasetError(f"point id {pid} already alive")
        self._archive.append(points, ids)
        batch_tree = build_zbtree(self.codec, points, ids=ids)
        batch_sky, batch_ids = zsearch(batch_tree, self.counter)
        src = build_zbtree(self.codec, batch_sky, ids=batch_ids)
        self._sky = zmerge(self._sky, src, self.counter)
        self._sky_id_cache = None
        self._record_op("insert", int(ids.shape[0]), before, started)

    def delete(self, point_ids: Sequence[int]) -> None:
        """Delete a batch of points by id.

        Deleting non-skyline points never changes the skyline.  For each
        deleted *skyline* point, archived points inside its dominance
        region are candidates to surface; those no surviving skyline
        point dominates are Z-searched and Z-merged back in.
        """
        started = time.perf_counter()
        before = self._counter_snapshot()
        doomed = {int(pid) for pid in point_ids}
        missing = [pid for pid in doomed if pid not in self._archive.rows]
        if missing:
            raise DatasetError(f"point ids not alive: {sorted(missing)}")
        try:
            self._delete_impl(doomed)
        finally:
            self._sky_id_cache = None
        self._record_op("delete", len(doomed), before, started)

    def _delete_impl(self, doomed: set) -> None:
        """Remove ``doomed`` and re-promote what only they shadowed.

        The candidates are the alive rows some deleted skyline point
        dominates.  After the skyline tree is rebuilt over the surviving
        members, every candidate a survivor dominates is dropped in one
        batched tree probe, and only the rest are Z-searched and
        Z-merged in.  This is exact:

        * a non-skyline row that no deleted point dominates was
          dominated by a skyline point that survives, so it stays off;
        * a candidate that some alive row dominates is dominated by a
          survivor or by another free candidate (any other dominator is
          itself dominated by a survivor), so the skyline of the free
          candidates is exactly the set that surfaces;
        * a candidate never dominates a survivor, because the deleted
          point dominating the candidate would then have dominated that
          survivor, which was on the skyline.
        """
        sky_ids = self.skyline_id_set()
        deleted_sky = [pid for pid in doomed if pid in sky_ids]
        archive = self._archive
        deleted_sky_points = archive.points_of(deleted_sky)
        archive.remove(list(doomed))

        if not deleted_sky:
            return

        # Rebuild the skyline tree without the deleted members.
        _, points, ids = self._sky.collect()
        keep = ~np.isin(ids, np.asarray(deleted_sky, dtype=np.int64))
        self._sky = build_zbtree(self.codec, points[keep], ids=ids[keep])

        if not archive.rows:
            return
        # Candidates: alive rows dominated by some deleted skyline point
        # (only they can have been shadowed exclusively by it).
        self.counter.point_tests += len(archive.rows) * len(deleted_sky)
        rows = archive.points[: archive.length]
        shadowed = archive.live_mask() & dominated_mask(
            rows, deleted_sky_points
        )
        if not shadowed.any():
            return
        cand_points = rows[shadowed]
        cand_ids = archive.ids[: archive.length][shadowed]
        free = ~self._sky.dominated_mask_tree(cand_points, self.counter)
        if not free.any():
            return
        cand_tree = build_zbtree(
            self.codec, cand_points[free], ids=cand_ids[free]
        )
        cand_sky, cand_sky_ids = zsearch(cand_tree, self.counter)
        src = build_zbtree(self.codec, cand_sky, ids=cand_sky_ids)
        self._sky = zmerge(self._sky, src, self.counter)

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Cross-check the maintained skyline against the oracle
        (testing hook; O(n^2 / sorted) over the alive set)."""
        from repro.core.skyline import is_skyline_of

        alive, _ = self.alive()
        if alive.shape[0] == 0:
            if self.skyline_size != 0:
                raise DatasetError("skyline non-empty for empty archive")
            return
        points, _ = self.skyline()
        if not is_skyline_of(points, alive):
            raise DatasetError("maintained skyline diverged from oracle")
