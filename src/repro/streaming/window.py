"""Sliding-window skylines: one window, count- or time-based eviction.

:class:`WindowSpec` declares the window (the last N records, or the
records of the last H time units) and :meth:`WindowSpec.expire` is the
one eviction rule, shared by :class:`WindowSkyline` (the window's
skyline) and :class:`~repro.streaming.feed.IngestFeed` (which retires
expired records from a dataset).

Records carry **caller-supplied ids** (the ids the serving registry
knows them by), so windowed skylines and their diffs speak the
dataset's id space directly.  Timestamps are **logical** (sequence
numbers, stream event times or registry versions, never the wall
clock), so expiration is a deterministic function of the replayed
stream: WAL recovery replays expirations exactly, as ordinary delete
batches rather than a new record type.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DatasetError
from repro.maintenance.maintainer import SkylineMaintainer
from repro.zorder.encoding import ZGridCodec


class WindowSpec:
    """Declarative window choice for windowed skylines.

    Construct via :meth:`count` (last-N records) or :meth:`time`
    (records from the last ``horizon`` logical time units).
    """

    __slots__ = ("kind", "count_size", "horizon")

    COUNT = "count"
    TIME = "time"

    def __init__(
        self,
        kind: str,
        count_size: int = 0,
        horizon: float = 0.0,
    ) -> None:
        if kind not in (self.COUNT, self.TIME):
            raise DatasetError(f"unknown window kind {kind!r}")
        if kind == self.COUNT and count_size <= 0:
            raise DatasetError("count window needs a positive size")
        if kind == self.TIME and not (horizon > 0):
            raise DatasetError("time window needs a positive horizon")
        self.kind = kind
        self.count_size = int(count_size)
        self.horizon = float(horizon)

    @classmethod
    def count(cls, size: int) -> "WindowSpec":
        """A count-based n-of-N window over the last ``size`` records."""
        return cls(cls.COUNT, count_size=size)

    @classmethod
    def time(cls, horizon: float) -> "WindowSpec":
        """A time-based window over the last ``horizon`` time units."""
        return cls(cls.TIME, horizon=horizon)

    def expire(
        self, entries: Deque[Tuple[float, int]], now: float
    ) -> List[int]:
        """Pop what this window evicts at time ``now`` off the front of
        ``entries`` (``(timestamp, id)`` pairs, oldest first) and
        return the evicted ids, oldest first.

        A count window keeps the newest ``count_size`` entries.  A time
        window keeps entries with ``timestamp > now - horizon``
        (half-open: an entry exactly ``horizon`` old has expired).
        """
        expired: List[int] = []
        if self.kind == self.COUNT:
            while len(entries) > self.count_size:
                expired.append(entries.popleft()[1])
        else:
            cutoff = now - self.horizon
            while entries and entries[0][0] <= cutoff:
                expired.append(entries.popleft()[1])
        return expired

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WindowSpec)
            and (self.kind, self.count_size, self.horizon)
            == (other.kind, other.count_size, other.horizon)
        )

    def __repr__(self) -> str:
        if self.kind == self.COUNT:
            return f"WindowSpec.count({self.count_size})"
        return f"WindowSpec.time({self.horizon})"


class WindowSkyline:
    """Incrementally maintained skyline over one sliding window.

    Built on :class:`~repro.maintenance.maintainer.SkylineMaintainer`:
    a batch is one maintainer insert plus at most one delete of what
    it expired, reusing the insert/delete machinery (Z-merge +
    exclusive-region re-promotion).  The window holds one record per
    id: a record arriving under an id already inside replaces the
    older record (one more delete), as if that one had left the window
    just before.  ``now`` only moves
    forward — it is the newest timestamp ever observed, or whatever
    :meth:`advance_to` pushed it to.
    """

    def __init__(self, codec: ZGridCodec, spec: WindowSpec) -> None:
        self.spec = spec
        self._maintainer = SkylineMaintainer(codec)
        #: (timestamp, id) in arrival order
        self._entries: Deque[Tuple[float, int]] = deque()
        self.now = float("-inf")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of records currently inside the window."""
        return len(self._entries)

    @property
    def skyline_size(self) -> int:
        return self._maintainer.skyline_size

    def skyline(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current window skyline as ``(points, ids)``."""
        return self._maintainer.skyline()

    def window_ids(self) -> Tuple[int, ...]:
        """Ids currently inside the window, oldest first."""
        return tuple(pid for _, pid in self._entries)

    # ------------------------------------------------------------------
    def extend(
        self,
        points: np.ndarray,
        ids: Sequence[int],
        timestamps: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """Append a batch in arrival order; returns the ids that left
        the window (inside before the batch, not after), oldest first.

        ``timestamps`` are required by time windows: non-decreasing,
        and not preceding the newest window entry.  A count window
        never reads them.  Batch rows the batch itself expires (pushed
        out by later rows, or already too old) never reach the
        maintainer, so the final window and skyline equal appending the
        rows one at a time.  A rejected batch leaves the window as it
        was.
        """
        points = np.asarray(points, dtype=np.float64)
        ids_arr = np.asarray(ids, dtype=np.int64)
        if points.ndim != 2 or ids_arr.shape != (points.shape[0],):
            raise DatasetError("need (n, d) points and matching ids")
        n = points.shape[0]
        if n and points.shape[1] != self._maintainer.codec.dimensions:
            raise DatasetError("points do not match the window's dimensions")
        if np.unique(ids_arr).size != n:
            raise DatasetError("ids repeat within the batch")
        if timestamps is None and self.spec.kind == WindowSpec.TIME:
            raise DatasetError("a time window needs timestamps")
        ts = np.full(n, self.now) if timestamps is None else timestamps
        ts = np.asarray(ts, dtype=np.float64)
        if ts.shape != (n,):
            raise DatasetError("need one timestamp per point")
        if n and self.spec.kind == WindowSpec.TIME:
            if np.any(np.diff(ts) < 0):
                raise DatasetError("timestamps must be non-decreasing")
            if self._entries and ts[0] < self._entries[-1][0]:
                raise DatasetError(
                    f"timestamp {ts[0]} precedes the newest window entry "
                    f"({self._entries[-1][0]}); logical time moves forward"
                )
        if n == 0:
            return []
        now = max(self.now, float(ts[-1]))
        batch = deque(zip(ts.tolist(), ids_arr.tolist()))
        # Eviction is a FIFO prefix, so the rows the batch expires by
        # itself are the same with or without the older entries (and
        # when there are any, every older entry expires too).
        dropped = len(self.spec.expire(batch, now))
        replaced = {pid for _, pid in batch if pid in self._maintainer}
        if replaced:
            self._maintainer.delete(sorted(replaced))
            self._entries = deque(
                e for e in self._entries if e[1] not in replaced
            )
        if batch:
            self._maintainer.insert_block(points[dropped:], ids_arr[dropped:])
        self._entries.extend(batch)
        return self.advance_to(now)

    def advance_to(self, now: float) -> List[int]:
        """Move the clock forward and expire what fell out of the
        window in a single maintainer delete."""
        now = float(now)
        if now < self.now:
            raise DatasetError(
                f"cannot move the window clock backwards "
                f"({self.now} -> {now})"
            )
        self.now = now
        expired = self.spec.expire(self._entries, now)
        if expired:
            self._maintainer.delete(expired)
        return expired

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Testing hook: cross-check against the oracle."""
        self._maintainer.verify()

    def __repr__(self) -> str:
        return (
            f"WindowSkyline({self.spec!r}, now={self.now}, "
            f"size={self.size}, skyline={self.skyline_size})"
        )
