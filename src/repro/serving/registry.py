"""The :class:`DatasetRegistry`: named datasets as versioned snapshots.

The registry is the serving layer's write path.  Each registered
dataset has

* a live :class:`~repro.maintenance.maintainer.SkylineMaintainer`
  (the incremental index — inserts are Z-merge folds, deletes
  re-promote shadowed points), owned exclusively by the writer;
* a current immutable :class:`~repro.serving.snapshot.Snapshot`,
  republished atomically after every mutation batch (readers never
  block writers; a reader holding version N keeps reading version N);
* optionally, a durable home (:class:`~repro.serving.wal.DatasetStore`):
  every mutation batch is appended to a CRC32-framed WAL *before* it is
  applied, and the full state is checkpointed (tmp+rename) every
  ``checkpoint_every`` publishes.  A crashed writer recovers by
  replaying WAL-onto-last-durable-snapshot (:meth:`recover`), and the
  republished snapshot is bit-identical — same alive set, same skyline,
  same version — to the uninterrupted run.

While a writer is down (a real crash, or one injected by a
:class:`~repro.serving.faults.ServingFaultPlan`), reads keep serving
the last published snapshot — bounded staleness, never an error — and
mutations fail fast with a typed
:class:`~repro.core.exceptions.WriterDownError` whose ``applied`` field
tells the caller whether the batch already reached the durable WAL
(and will therefore take effect on recovery).

Incremental maintenance is exact, so the skyline is never recomputed
after registration.  Version 1's skyline is computed by the paper's
three-phase engine (:func:`repro.pipeline.supervisor.supervised_run`)
for large datasets, and the registry adopts only the returned skyline
*ids* — its own grid points are kept, so no stored coordinate changes.
(The pipeline re-quantises onto its own grid, but for integer grid
input with matching ``bits_per_dim`` that mapping is strictly monotone
per dimension, hence dominance-isomorphic, hence the id set is exact.)
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import (
    ConfigurationError,
    DatasetError,
    WriterDownError,
)
from repro.maintenance.maintainer import SkylineMaintainer
from repro.observability.metrics import MetricsRegistry
from repro.serving.faults import ServingFaultPlan
from repro.serving.snapshot import Snapshot
from repro.serving.wal import DatasetStore, WalRecord
from repro.zorder.encoding import ZGridCodec, quantize_dataset
from repro.zorder.zbtree import build_zbtree
from repro.zorder.zsearch import zsearch

#: metrics group for registry-level events
SERVING_GROUP = "serving"

#: default retry-after hint handed to writers while the writer is down
_WRITER_RETRY_AFTER = 0.05

#: the version-1 skyline goes through the offline pipeline from this
#: many points on; smaller sets Z-search a freshly built tree directly
#: (the MapReduce pipeline has per-job overhead that only pays off at
#: scale)
_PIPELINE_MIN_SIZE = 512
_PIPELINE_PLAN = "ZHG+ZS"
_PIPELINE_WORKERS = 4
_PIPELINE_GROUPS = 16
_PIPELINE_EXECUTOR = "simulated"
_PIPELINE_SEED = 0


@dataclass(frozen=True)
class PublishResult:
    """Outcome of one mutation batch: the newly published version."""

    dataset: str
    version: int
    size: int
    skyline_size: int
    #: did this publish come from WAL replay after a crash?
    recovered: bool = False


class _DatasetState:
    """Writer-side state of one registered dataset."""

    __slots__ = (
        "name", "codec", "maintainer", "snapshot", "lock", "history",
        "store", "writer_down", "pending_batches",
        "publishes_since_checkpoint", "recoveries",
    )

    def __init__(
        self,
        name: str,
        codec: ZGridCodec,
        maintainer: Optional[SkylineMaintainer],
        keep_versions: int,
    ) -> None:
        self.name = name
        self.codec = codec
        self.maintainer: Optional[SkylineMaintainer] = maintainer
        self.snapshot: Optional[Snapshot] = None
        self.lock = threading.Lock()
        self.history: Deque[Snapshot] = deque(maxlen=max(1, keep_versions))
        self.store: Optional[DatasetStore] = None
        self.writer_down = False
        #: durable-but-unpublished WAL batches (crash between WAL
        #: append and publish)
        self.pending_batches = 0
        self.publishes_since_checkpoint = 0
        self.recoveries = 0


class DatasetRegistry:
    """Named, versioned, concurrently readable skyline datasets.

    All mutation goes through :meth:`insert` / :meth:`delete`, which
    serialise per dataset behind a writer lock and publish a fresh
    snapshot atomically.  Reads (:meth:`snapshot`) are a single
    attribute load and never block on writers.

    ``durability_dir`` turns on the WAL + checkpoint store (one
    subdirectory per dataset); ``fault_plan`` arms seeded writer-crash
    injection for chaos testing.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        keep_versions: int = 3,
        durability_dir: Optional[str] = None,
        checkpoint_every: int = 8,
        fault_plan: Optional[ServingFaultPlan] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        self.metrics = metrics
        self._keep_versions = keep_versions
        self.durability_dir = durability_dir
        self.checkpoint_every = checkpoint_every
        self.fault_plan = fault_plan
        self._states: Dict[str, _DatasetState] = {}
        self._lock = threading.Lock()
        #: called with each freshly published Snapshot (see
        #: add_publish_hook for the contract)
        self._publish_hooks: List[Callable[[Snapshot], None]] = []

    @property
    def durable(self) -> bool:
        return self.durability_dir is not None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        points: np.ndarray,
        ids: Optional[np.ndarray] = None,
        codec: Optional[ZGridCodec] = None,
    ) -> PublishResult:
        """Register grid-resident points as version 1 of ``name``.

        ``points`` must already hold integer grid coordinates for
        ``codec`` (like everywhere else in the z-order stack); use
        :meth:`register_dataset` for raw float data.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise DatasetError("need a non-empty (n, d) point matrix")
        n, d = points.shape
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,) or len(np.unique(ids)) != n:
                raise DatasetError("ids must be unique, one per point")
        if codec is None:
            top = int(points.max()) if points.size else 1
            bits = max(1, top.bit_length())
            codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        if codec.dimensions != d:
            raise DatasetError(
                f"codec is {codec.dimensions}-D but points are {d}-D"
            )
        if not (
            np.all(points == np.floor(points))
            and points.min() >= 0
            and points.max() < codec.cells_per_dim
        ):
            raise DatasetError(
                "points must be integer grid coordinates in "
                f"[0, {codec.cells_per_dim}) — quantise first "
                "(see register_dataset)"
            )
        state = _DatasetState(
            name,
            codec,
            SkylineMaintainer(codec, metrics=self.metrics),
            self._keep_versions,
        )
        # Build the whole version-1 state before the name becomes
        # visible, so a reader can never observe a half-registered
        # dataset.
        sky_ids = self._compute_skyline_ids(state, points, ids)
        state.maintainer = SkylineMaintainer.from_state(
            codec, points, ids, sky_ids, metrics=self.metrics
        )
        if self.durable:
            state.store = DatasetStore(self.durability_dir, name)
        result = self._publish(state)
        if state.store is not None:
            # Version 1 is the recovery baseline: checkpoint it (and
            # start an empty WAL) before the dataset becomes visible.
            self._checkpoint(state)
        with self._lock:
            if name in self._states:
                raise ConfigurationError(
                    f"dataset {name!r} is already registered"
                )
            self._states[name] = state
        return result

    def register_dataset(
        self,
        name: str,
        dataset: Dataset,
        bits_per_dim: int = 12,
    ) -> PublishResult:
        """Quantise a raw float dataset and register the grid version."""
        snapped, codec = quantize_dataset(dataset, bits_per_dim=bits_per_dim)
        return self.register(
            name, snapped.points, ids=snapped.ids, codec=codec
        )

    # ------------------------------------------------------------------
    # publish hooks
    # ------------------------------------------------------------------
    def add_publish_hook(
        self, hook: Callable[[Snapshot], None]
    ) -> None:
        """Call ``hook(snapshot)`` after every snapshot publication.

        The contract is strict, because hooks run on the writer thread
        *under the dataset's writer lock*, immediately after the
        atomic snapshot swap (readers already see the new version):

        * a hook must be fast — O(diff computation), never O(dataset) —
          and must never block on consumers (hand off to bounded,
          non-blocking queues; see ``repro.streaming.hub``);
        * a hook must not call back into mutation or writer-lock-taking
          registry APIs (``insert``/``delete``/``snapshot_at``/
          ``recover``) — ``snapshot()`` is safe;
        * a hook exception is contained: counted in
          ``serving.publish_hook_errors``, never unpublishing the
          version or failing the mutation.

        Hooks also fire for recovery/adopt republishes (same dataset,
        same or reconstructed version) — consumers use the snapshot's
        version to recognise replays.
        """
        with self._lock:
            self._publish_hooks.append(hook)

    def remove_publish_hook(
        self, hook: Callable[[Snapshot], None]
    ) -> None:
        with self._lock:
            try:
                self._publish_hooks.remove(hook)
            except ValueError:
                pass

    def _notify_publish(self, snapshot: Snapshot) -> None:
        with self._lock:
            hooks = list(self._publish_hooks)
        for hook in hooks:
            try:
                hook(snapshot)
            except Exception:
                if self.metrics is not None:
                    self.metrics.inc(SERVING_GROUP, "publish_hook_errors")

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._states)

    def _state(self, name: str) -> _DatasetState:
        with self._lock:
            state = self._states.get(name)
        if state is None:
            raise DatasetError(f"dataset {name!r} is not registered")
        return state

    def snapshot(self, name: str) -> Snapshot:
        """The current snapshot (an atomic attribute read; never blocks
        on writers)."""
        snapshot = self._state(name).snapshot
        assert snapshot is not None  # set before registration returns
        return snapshot

    def snapshot_at(self, name: str, version: int) -> Snapshot:
        """A recent retained version (the retention ring is small; old
        versions a reader still references remain valid regardless)."""
        state = self._state(name)
        with state.lock:
            for snap in state.history:
                if snap.version == version:
                    return snap
        raise DatasetError(
            f"version {version} of {name!r} is no longer retained"
        )

    def version(self, name: str) -> int:
        return self.snapshot(name).version

    def is_skyline_member(self, name: str, point_id: int) -> bool:
        """Live skyline membership (the maintainer's cached id-set).

        Falls back to the last published snapshot's skyline while the
        writer is down (bounded staleness, same as every other read).
        """
        state = self._state(name)
        with state.lock:
            if state.maintainer is not None:
                return state.maintainer.is_skyline_member(point_id)
        snapshot = self.snapshot(name)
        if snapshot.row_of(point_id) is None:
            raise DatasetError(f"point id {point_id} is not alive")
        return bool(np.any(snapshot.sky_ids == int(point_id)))

    def writer_status(self, name: str) -> Dict[str, Any]:
        """Typed writer-health snapshot (feeds query certificates).

        Deliberately lock-free: each field is a single atomic attribute
        read, so the read path never blocks behind an in-flight
        mutation (a momentarily stale answer is fine — the certificate
        describes the serving regime, not a transaction).
        """
        state = self._state(name)
        snapshot = state.snapshot
        return {
            "writer_down": state.writer_down,
            "pending_batches": state.pending_batches,
            "recoveries": state.recoveries,
            "published_version": snapshot.version if snapshot else 0,
        }

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def insert(
        self, name: str, points: np.ndarray, ids: Sequence[int]
    ) -> PublishResult:
        """Insert a batch and publish the next version."""
        state = self._state(name)
        points = np.asarray(points, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        with state.lock:
            self._require_writer(state)
            return self._mutate(state, "insert", points, ids)

    def delete(self, name: str, ids: Sequence[int]) -> PublishResult:
        """Delete a batch by id and publish the next version."""
        state = self._state(name)
        ids = np.asarray([int(i) for i in ids], dtype=np.int64)
        with state.lock:
            self._require_writer(state)
            return self._mutate(state, "delete", None, ids)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def adopt(self, name: str) -> PublishResult:
        """Cold-start ``name`` from its durable home (checkpoint + WAL).

        :meth:`recover` heals a writer *within* a live registry; adopt
        is for when the whole owning process died — a fresh registry
        (pointed at the same ``durability_dir``) takes the dataset over
        by loading the checkpoint, replaying the WAL, and publishing the
        same bit-identical snapshot recovery would have.  This is what
        shard failover uses to stand up a replacement shard.
        """
        if not self.durable:
            raise ConfigurationError(
                "adopt() requires DatasetRegistry(durability_dir=...)"
            )
        store = DatasetStore(self.durability_dir, name)
        baseline = store.load_checkpoint()
        if baseline is None:
            raise ConfigurationError(
                f"dataset {name!r} has no durable checkpoint to adopt"
            )
        state = _DatasetState(
            name,
            baseline.codec,
            None,  # recover() rebuilds the maintainer from the baseline
            self._keep_versions,
        )
        state.store = store
        state.writer_down = True
        with self._lock:
            if name in self._states:
                raise ConfigurationError(
                    f"dataset {name!r} is already registered"
                )
            self._states[name] = state
        try:
            return self.recover(name)
        except BaseException:
            with self._lock:
                self._states.pop(name, None)
            raise

    def recover(self, name: str) -> PublishResult:
        """Replay WAL-onto-last-durable-checkpoint and republish.

        Rebuilds the writer's in-memory state from the durable baseline,
        re-applies every WAL batch beyond it (dropping at most one torn
        tail frame — a crash mid-append of an unacknowledged batch),
        republishes a snapshot bit-identical to the uninterrupted run at
        the same version, checkpoints the recovered state, and brings
        the writer back up.  Idempotent: recovering a healthy durable
        dataset is a no-op republish of the current version.
        """
        state = self._state(name)
        with state.lock:
            if state.store is None:
                raise ConfigurationError(
                    f"dataset {name!r} has no durable store; recovery "
                    "requires DatasetRegistry(durability_dir=...)"
                )
            baseline = state.store.load_checkpoint()
            if baseline is None:
                raise ConfigurationError(
                    f"dataset {name!r} has no durable checkpoint to "
                    "recover from"
                )
            maintainer = SkylineMaintainer.from_state(
                state.codec,
                baseline.points,
                baseline.ids,
                baseline.sky_ids,
                metrics=self.metrics,
            )
            state.maintainer = maintainer
            replay = state.store.wal.replay()
            version = baseline.version
            replayed = 0
            expected = baseline.seq
            for record in replay.records:
                if record.seq <= baseline.seq:
                    continue
                if record.seq != expected + 1:
                    # The WAL itself is contiguous (replay() checks),
                    # so a gap here means the log lost its head across
                    # the checkpoint/rotation boundary — an
                    # acknowledged batch would vanish silently if we
                    # replayed past it.
                    raise ConfigurationError(
                        f"dataset {name!r}: WAL resumes at seq "
                        f"{record.seq} but the checkpoint ends at seq "
                        f"{baseline.seq}; refusing to recover across a "
                        "sequence gap at the rotation point"
                    )
                expected = record.seq
                if record.op == "insert":
                    maintainer.insert_block(
                        np.asarray(record.points, dtype=np.float64),
                        np.asarray(record.ids, dtype=np.int64),
                    )
                else:
                    maintainer.delete(list(record.ids))
                version = record.seq
                replayed += 1
            state.writer_down = False
            state.pending_batches = 0
            state.recoveries += 1
            meta = {
                "recovered": True,
                "replayed_batches": replayed,
                "dropped_tail": replay.dropped_tail,
                "baseline_version": baseline.version,
            }
            result = self._publish(
                state, version=version, meta=meta, recovered=True
            )
            # Recovery checkpoint: the next crash replays from here.
            self._checkpoint(state)
            if self.metrics is not None:
                self.metrics.inc(SERVING_GROUP, "writer_recoveries")
                self.metrics.inc(SERVING_GROUP, "wal_replayed", replayed)
                if replay.dropped_tail:
                    self.metrics.inc(
                        SERVING_GROUP, "wal_torn_tails", replay.dropped_tail
                    )
            return result

    # ------------------------------------------------------------------
    # internals (caller holds state.lock)
    # ------------------------------------------------------------------
    def _require_writer(self, state: _DatasetState) -> None:
        if state.writer_down:
            raise WriterDownError(
                f"writer for dataset {state.name!r} is down; reads are "
                "serving the last published snapshot — call recover() "
                "to replay the WAL",
                dataset=state.name,
                stale_version=(
                    state.snapshot.version if state.snapshot else 0
                ),
                applied=False,
                retry_after_seconds=_WRITER_RETRY_AFTER,
            )

    def _validate_batch(
        self,
        state: _DatasetState,
        op: str,
        points: Optional[np.ndarray],
        ids: np.ndarray,
    ) -> None:
        """Reject an inapplicable batch *before* it reaches the WAL.

        The log must only ever record batches that apply cleanly: a
        frame whose apply then fails would never publish its sequence
        number, the next batch would reuse it, and recovery would
        refuse the duplicate-seq log.  This is also what makes the
        service's recover-then-re-execute path safe — re-executing a
        batch that recovery already applied fails *here*, as a typed
        DatasetError, with the WAL untouched.  Ids are looked up in the
        maintainer's id index, so the check costs O(batch).
        """
        maintainer = state.maintainer
        assert maintainer is not None
        if op == "insert":
            assert points is not None
            if points.ndim != 2 or ids.shape != (points.shape[0],):
                raise DatasetError("need (n, d) points and matching ids")
            batch = ids.tolist()
            if len(set(batch)) != len(batch):
                raise DatasetError("duplicate ids within insert batch")
            clash = [pid for pid in batch if pid in maintainer]
            if clash:
                raise DatasetError(f"point id {min(clash)} already alive")
        else:
            missing = {pid for pid in ids.tolist() if pid not in maintainer}
            if missing:
                raise DatasetError(
                    f"point ids not alive: {sorted(missing)}"
                )

    def _mutate(
        self,
        state: _DatasetState,
        op: str,
        points: Optional[np.ndarray],
        ids: np.ndarray,
    ) -> PublishResult:
        assert state.snapshot is not None and state.maintainer is not None
        self._validate_batch(state, op, points, ids)
        seq = state.snapshot.version + 1
        phase = (
            self.fault_plan.writer_crash_phase(
                state.name, seq, state.recoveries
            )
            if self.fault_plan is not None
            else None
        )
        if phase == "before":
            # Crash before the WAL append: the batch is lost entirely.
            self._crash_writer(state, seq, phase, applied=False)
        if state.store is not None:
            record = (
                WalRecord.insert(seq, points, ids)
                if op == "insert"
                else WalRecord.delete(seq, ids)
            )
            state.store.wal.append(record)
            if self.metrics is not None:
                self.metrics.inc(SERVING_GROUP, "wal_appends")
        if phase == "during":
            # Crash after the WAL append but before apply/publish: the
            # batch is durable and will take effect on recovery.
            durable = state.store is not None
            if durable:
                state.pending_batches += 1
            self._crash_writer(state, seq, phase, applied=durable)
        if op == "insert":
            state.maintainer.insert_block(points, ids)
        else:
            state.maintainer.delete([int(i) for i in ids])
        result = self._publish(state)
        if phase == "after":
            # Crash after the publish: readers already see the new
            # version; only the writer's in-memory state is lost.
            self._crash_writer(state, seq, phase, applied=True)
        self._maybe_checkpoint(state)
        return result

    def _crash_writer(
        self,
        state: _DatasetState,
        seq: int,
        phase: str,
        applied: Optional[bool],
    ) -> None:
        """Simulate a writer process death: the in-memory incremental
        state is gone; only durable artefacts (WAL + checkpoint) and
        already-published snapshots survive."""
        state.writer_down = True
        state.maintainer = None
        if state.store is not None:
            state.store.wal.close()
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "writer_crashes")
            self.metrics.inc(SERVING_GROUP, f"writer_crashes_{phase}")
        raise WriterDownError(
            f"writer for dataset {state.name!r} crashed {phase} "
            f"publishing batch seq={seq}",
            dataset=state.name,
            stale_version=state.snapshot.version if state.snapshot else 0,
            applied=applied,
            retry_after_seconds=_WRITER_RETRY_AFTER,
        )

    def _publish(
        self,
        state: _DatasetState,
        version: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
        recovered: bool = False,
    ) -> PublishResult:
        assert state.maintainer is not None
        previous = state.snapshot
        if version is None:
            version = 1 if previous is None else previous.version + 1
        points, ids = state.maintainer.alive()
        sky_points, sky_ids = state.maintainer.skyline()
        snapshot = Snapshot.build(
            state.name, version, state.codec,
            points, ids, sky_points, sky_ids,
            meta=meta,
        )
        if state.history and state.history[-1].version == version:
            # Recovery republish of an already-published version:
            # replace it in the ring instead of duplicating.
            state.history.pop()
        state.history.append(snapshot)
        # The single publication point: readers see old or new, nothing
        # in between.
        state.snapshot = snapshot
        state.publishes_since_checkpoint += 1
        self._notify_publish(snapshot)
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "publishes")
        return PublishResult(
            dataset=state.name,
            version=version,
            size=snapshot.size,
            skyline_size=snapshot.skyline_size,
            recovered=recovered,
        )

    def _maybe_checkpoint(self, state: _DatasetState) -> None:
        if (
            state.store is not None
            and state.publishes_since_checkpoint >= self.checkpoint_every
        ):
            self._checkpoint(state)

    def _checkpoint(self, state: _DatasetState) -> None:
        assert state.store is not None and state.maintainer is not None
        assert state.snapshot is not None
        points, ids = state.maintainer.alive()
        _, sky_ids = state.maintainer.skyline()
        state.store.save_checkpoint(
            state.codec,
            seq=state.snapshot.version,
            version=state.snapshot.version,
            points=points,
            ids=ids,
            sky_ids=sky_ids,
        )
        state.publishes_since_checkpoint = 0
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "checkpoints")

    def _compute_skyline_ids(
        self, state: _DatasetState, points: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Exact skyline ids of ``(points, ids)``.

        Large sets go through the full supervised pipeline (the paper's
        engine, with its partitioning/prefilter machinery); small sets
        Z-search a freshly built tree directly.
        """
        n = points.shape[0]
        if n >= _PIPELINE_MIN_SIZE:
            from repro.pipeline.supervisor import supervised_run

            sample_ratio = min(1.0, max(0.05, 256.0 / n))
            num_groups = max(1, min(_PIPELINE_GROUPS, n // 32))
            report = supervised_run(
                _PIPELINE_PLAN,
                Dataset(points, ids=ids, name=f"{state.name}[rebuild]"),
                bits_per_dim=state.codec.bits_per_dim,
                num_workers=_PIPELINE_WORKERS,
                num_groups=num_groups,
                sample_ratio=sample_ratio,
                executor=_PIPELINE_EXECUTOR,
                seed=_PIPELINE_SEED,
            )
            if self.metrics is not None:
                self.metrics.inc(SERVING_GROUP, "pipeline_rebuilds")
            return np.asarray(report.skyline.ids, dtype=np.int64)
        tree = build_zbtree(state.codec, points, ids=ids)
        _, sky_ids = zsearch(tree)
        return np.asarray(sky_ids, dtype=np.int64)
