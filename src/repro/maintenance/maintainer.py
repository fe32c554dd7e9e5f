"""The :class:`SkylineMaintainer`: skyline of a dynamic point set.

State: an *archive* of every alive point (id -> grid point) plus the
maintained skyline as a ZB-tree.  Inserts are Z-merge folds; deletes
re-promote archived points that were exclusively dominated by removed
skyline members.

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
        self._archive: Dict[int, np.ndarray] = {}
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
        for pid, row in zip(ids, points):
            maintainer._archive[int(pid)] = row.copy()
        sky_set = {int(pid) for pid in skyline_ids}
        missing = sky_set - set(maintainer._archive)
        if missing:
            raise DatasetError(
                f"skyline ids not present in archive: {sorted(missing)[:5]}"
            )
        keep = np.array([int(i) in sky_set for i in ids], dtype=bool)
        maintainer._sky = build_zbtree(codec, points[keep], ids=ids[keep])
        return maintainer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of alive points."""
        return len(self._archive)

    @property
    def skyline_size(self) -> int:
        return self._sky.size

    def skyline(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current skyline as ``(points, ids)`` in Z-order."""
        _, points, ids = self._sky.collect()
        return points, ids

    def alive(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every alive point as ``(points, ids)`` in insertion order."""
        if not self._archive:
            d = self.codec.dimensions
            return np.empty((0, d)), np.empty(0, dtype=np.int64)
        ids = np.fromiter(self._archive, dtype=np.int64)
        points = np.vstack([self._archive[int(i)] for i in ids])
        return points, ids

    def __contains__(self, point_id: int) -> bool:
        """Is ``point_id`` alive (inserted and not yet deleted)?"""
        return int(point_id) in self._archive

    def skyline_id_set(self) -> FrozenSet[int]:
        """The skyline's id-set, cached between mutations (O(1) reads)."""
        cached = self._sky_id_cache
        if cached is None:
            cached = frozenset(int(i) for i in self._sky.ids())
            self._sky_id_cache = cached
        return cached

    def is_skyline_member(self, point_id: int) -> bool:
        """Is the given alive point currently on the skyline?

        O(1) against the cached id-set (rebuilt at most once per
        mutation) — the serving layer probes this per explain-query.
        """
        if point_id not in self._archive:
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
        for pid in ids:
            if int(pid) in self._archive:
                raise DatasetError(f"point id {int(pid)} already alive")
        for pid, row in zip(ids, points):
            self._archive[int(pid)] = row.copy()
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
        region are candidates to surface; the union of survivors' local
        skyline is Z-merged back in.
        """
        started = time.perf_counter()
        before = self._counter_snapshot()
        doomed = {int(pid) for pid in point_ids}
        missing = doomed - set(self._archive)
        if missing:
            raise DatasetError(f"point ids not alive: {sorted(missing)}")
        try:
            self._delete_impl(doomed)
        finally:
            self._sky_id_cache = None
        self._record_op("delete", len(doomed), before, started)

    def _delete_impl(self, doomed: set) -> None:
        sky_ids = self.skyline_id_set()
        deleted_sky = doomed & sky_ids
        deleted_sky_points = np.array(
            [self._archive[pid] for pid in deleted_sky]
        ).reshape(len(deleted_sky), self.codec.dimensions)

        for pid in doomed:
            del self._archive[pid]

        if not deleted_sky:
            return

        # Rebuild the skyline tree without the deleted members.
        _, points, ids = self._sky.collect()
        keep = np.array([int(i) not in doomed for i in ids], dtype=bool)
        self._sky = build_zbtree(self.codec, points[keep], ids=ids[keep])

        if not self._archive:
            return
        # Candidates: alive points dominated by some deleted skyline
        # point (only they can have been shadowed exclusively by it).
        alive_ids = np.fromiter(self._archive, dtype=np.int64)
        alive_points = np.vstack([self._archive[int(i)] for i in alive_ids])
        self.counter.point_tests += alive_points.shape[0] * max(
            deleted_sky_points.shape[0], 1
        )
        shadowed = dominated_mask(alive_points, deleted_sky_points)
        if not shadowed.any():
            return
        cand_points = alive_points[shadowed]
        cand_ids = alive_ids[shadowed]
        cand_tree = build_zbtree(self.codec, cand_points, ids=cand_ids)
        cand_sky, cand_sky_ids = zsearch(cand_tree, self.counter)
        src = build_zbtree(self.codec, cand_sky, ids=cand_sky_ids)
        self._sky = zmerge(self._sky, src, self.counter)

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Cross-check the maintained skyline against the oracle
        (testing hook; O(n^2 / sorted) over the alive set)."""
        from repro.core.skyline import is_skyline_of

        if not self._archive:
            if self.skyline_size != 0:
                raise DatasetError("skyline non-empty for empty archive")
            return
        alive = np.vstack(list(self._archive.values()))
        points, _ = self.skyline()
        if not is_skyline_of(points, alive):
            raise DatasetError("maintained skyline diverged from oracle")
