"""CDC-style ingest: append-stream records batched into registry
mutations, backpressured through the admission controller.

An :class:`IngestFeed` is the write side of the streaming layer: callers
append individual records; the feed buffers them and flushes fixed-size
batches as ordinary ``registry.insert`` mutations (one published
version per batch — the same WAL records, recovery semantics, and
publish hooks as any other writer).  When a window is configured, the
feed also retires records that fell out of the window with ordinary
``registry.delete`` batches — window expiration is **deterministic
replay** (a delete batch in the WAL), never a new record type.

Backpressure goes through the shared
:class:`~repro.serving.admission.AdmissionController`:

* ``on_overload="shed"`` — the flush raises
  :class:`~repro.core.exceptions.OverloadedError` and the buffered
  records stay pending (counted in ``streaming.feed_batches_shed``);
  nothing is ever dropped silently.
* ``on_overload="block"`` — the flush sleeps out the controller's
  retry-after hint and re-tries, up to ``block_max_seconds``, then
  raises.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError, OverloadedError
from repro.observability.metrics import MetricsRegistry
from repro.serving.admission import MUTATE, AdmissionController
from repro.streaming.continuous import STREAMING_GROUP
from repro.streaming.window import WindowSpec

SHED = "shed"
BLOCK = "block"


class FeedConfig:
    """Tuning for one :class:`IngestFeed`."""

    __slots__ = ("batch_size", "on_overload", "block_max_seconds")

    def __init__(
        self,
        batch_size: int = 64,
        on_overload: str = SHED,
        block_max_seconds: float = 5.0,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if on_overload not in (SHED, BLOCK):
            raise ConfigurationError(
                f"on_overload must be {SHED!r} or {BLOCK!r}, "
                f"got {on_overload!r}"
            )
        if not (block_max_seconds > 0):
            raise ConfigurationError("block_max_seconds must be positive")
        self.batch_size = int(batch_size)
        self.on_overload = on_overload
        self.block_max_seconds = float(block_max_seconds)


class IngestFeed:
    """Buffers appended records and flushes them as mutation batches.

    Ids are auto-assigned past the dataset's current maximum (or
    caller-supplied); timestamps are a logical clock that defaults to
    the record's arrival sequence number.  With a ``window``, each
    flush also expires out-of-window records it previously ingested —
    one delete batch per flush, issued *after* the insert so a replayed
    WAL reproduces the exact publish sequence.

    Not thread-safe by design: one feed is one logical CDC stream.
    Run several feeds (on several datasets or shards) for parallelism.
    """

    def __init__(
        self,
        registry,
        dataset: str,
        admission: Optional[AdmissionController] = None,
        config: Optional[FeedConfig] = None,
        window: Optional[WindowSpec] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry
        self.dataset = dataset
        self.admission = admission
        self.config = config or FeedConfig()
        self.window = window
        self.metrics = metrics
        snapshot = registry.snapshot(dataset)
        self._dimensions = snapshot.dimensions
        self._next_id = int(snapshot.ids.max()) + 1 if snapshot.ids.size else 0
        self._clock = 0.0
        #: records waiting for the next flush: (point, id, timestamp)
        self._pending: List[Tuple[np.ndarray, int, float]] = []
        #: (timestamp, id) of feed-ingested records still in the window
        self._window_entries: Deque[Tuple[float, int]] = deque()
        self.batches_flushed = 0
        self.records_flushed = 0
        self.records_expired = 0
        self.batches_shed = 0

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Records buffered but not yet flushed."""
        return len(self._pending)

    @property
    def window_population(self) -> int:
        """Feed-ingested records currently inside the window."""
        return len(self._window_entries)

    def append(
        self,
        point: Sequence[float],
        point_id: Optional[int] = None,
        timestamp: Optional[float] = None,
    ) -> int:
        """Buffer one record; flushes when the batch fills.  Returns
        the record's id."""
        row = np.asarray(point, dtype=np.float64)
        if row.shape != (self._dimensions,):
            raise ConfigurationError(
                f"expected a {self._dimensions}-d point, "
                f"got shape {row.shape}"
            )
        if point_id is None:
            point_id = self._next_id
            self._next_id += 1
        else:
            point_id = int(point_id)
            self._next_id = max(self._next_id, point_id + 1)
        if timestamp is None:
            self._clock += 1.0
            timestamp = self._clock
        else:
            timestamp = float(timestamp)
            if timestamp < self._clock:
                raise ConfigurationError(
                    f"timestamp {timestamp} precedes the feed clock "
                    f"({self._clock}); logical time moves forward"
                )
            self._clock = timestamp
        self._pending.append((row, point_id, timestamp))
        if len(self._pending) >= self.config.batch_size:
            self.flush()
        return point_id

    def extend(
        self, points: np.ndarray, timestamps: Optional[Sequence[float]] = None
    ) -> List[int]:
        """Buffer a batch of records; returns their assigned ids."""
        points = np.asarray(points, dtype=np.float64)
        return [
            self.append(
                row, timestamp=None if timestamps is None else timestamps[i]
            )
            for i, row in enumerate(points)
        ]

    # ------------------------------------------------------------------
    def flush(self):
        """Publish all buffered records as one insert batch (plus one
        delete batch when the window expired records).

        Returns the insert's ``PublishResult``, or None when nothing
        was pending.  On shed, the buffer survives intact — re-call
        ``flush()`` (or keep appending) to retry.
        """
        if not self._pending:
            return None
        ticket = self._admit()
        try:
            result = self._flush_admitted()
        except Exception:
            if ticket is not None:
                self.admission.finished(ticket, ok=False)
            raise
        if ticket is not None:
            self.admission.finished(ticket)
        return result

    def _admit(self):
        """One admission ticket per flush; sheds or blocks per config."""
        if self.admission is None:
            return None
        waited = 0.0
        while True:
            try:
                ticket = self.admission.admit(MUTATE)
            except OverloadedError as exc:
                if (
                    self.config.on_overload == SHED
                    or waited >= self.config.block_max_seconds
                ):
                    self.batches_shed += 1
                    if self.metrics is not None:
                        self.metrics.inc(
                            STREAMING_GROUP, "feed_batches_shed"
                        )
                    raise
                pause = min(
                    max(exc.retry_after_seconds or 0.0, 0.005),
                    self.config.block_max_seconds - waited,
                )
                time.sleep(pause)
                waited += pause
                continue
            self.admission.started(ticket)
            return ticket

    def _flush_admitted(self):
        batch = self._pending
        points = np.stack([row for row, _, _ in batch])
        ids = [pid for _, pid, _ in batch]
        result = self.registry.insert(self.dataset, points, ids)
        # Success: the batch is durable (WAL) and published.
        self._pending = []
        self.batches_flushed += 1
        self.records_flushed += len(batch)
        if self.metrics is not None:
            self.metrics.inc(STREAMING_GROUP, "feed_batches")
            self.metrics.inc(STREAMING_GROUP, "feed_records", len(batch))
        if self.window is not None:
            self._window_entries.extend(
                (stamp, pid) for _, pid, stamp in batch
            )
            expired = self.window.expire(self._window_entries, self._clock)
            if expired:
                result = self.registry.delete(self.dataset, expired)
                self.records_expired += len(expired)
                if self.metrics is not None:
                    self.metrics.inc(
                        STREAMING_GROUP, "feed_expirations", len(expired)
                    )
        return result

    def stats(self) -> dict:
        return {
            "dataset": self.dataset,
            "pending": self.pending,
            "batches_flushed": self.batches_flushed,
            "records_flushed": self.records_flushed,
            "records_expired": self.records_expired,
            "batches_shed": self.batches_shed,
            "window_population": self.window_population,
        }

    def __repr__(self) -> str:
        return (
            f"IngestFeed({self.dataset!r}, pending={self.pending}, "
            f"flushed={self.records_flushed}, shed={self.batches_shed})"
        )
