"""Durable mutation WAL + snapshot store for the serving registry.

The registry's crash-safety contract: **every acknowledged mutation
batch is recoverable**, and a crashed writer replays *WAL onto last
durable snapshot* to republish a snapshot bit-identical (as an
id-keyed set: same alive points, same skyline, same version) to the
uninterrupted run.

On disk, each dataset owns one directory::

    <root>/<dataset>/meta.json   # format, codec, checkpoint seq/version
    <root>/<dataset>/state.npz   # alive points/ids + skyline ids (CRC'd)
    <root>/<dataset>/wal.log     # CRC32-framed JSONL of mutation batches

* The **WAL** is append-only: one frame per mutation batch,
  ``"<crc32 hex> <json body>\\n"``, flushed and fsynced before the
  batch is applied in memory (write-ahead).  A torn final frame — the
  signature of a crash mid-append — is detected by its CRC and dropped
  (the batch was never acknowledged); a CRC mismatch *before* the tail
  is real corruption and refuses recovery.
* The **checkpoint** (snapshot + meta) is rewritten every
  ``checkpoint_every`` publishes via the same tmp+rename discipline as
  :mod:`repro.pipeline.checkpoint`, then the WAL is rotated (atomic
  replace with an empty file).  Replay skips WAL records with
  ``seq <= checkpoint seq``, so a crash *between* checkpoint and
  rotation recovers correctly too — recovery is idempotent.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.pipeline.checkpoint import atomic_write_bytes
from repro.zorder.encoding import ZGridCodec

__all__ = ["WalRecord", "WalReplay", "MutationWAL", "DatasetStore"]

_FORMAT_VERSION = 1
_META_FILE = "meta.json"
_STATE_FILE = "state.npz"
_WAL_FILE = "wal.log"


# ----------------------------------------------------------------------
# WAL records and frames
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WalRecord:
    """One durable mutation batch.

    ``seq`` is the registry's per-dataset mutation sequence number —
    it equals the snapshot version the batch publishes, which is what
    lets recovery resume version numbering exactly.
    """

    seq: int
    op: str  # "insert" | "delete"
    ids: Tuple[int, ...]
    #: row-major grid coordinates for inserts; None for deletes
    points: Optional[Tuple[Tuple[float, ...], ...]] = None

    def to_body(self) -> str:
        payload = {
            "seq": self.seq,
            "op": self.op,
            "ids": list(self.ids),
            "points": (
                None
                if self.points is None
                else [list(row) for row in self.points]
            ),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_body(cls, body: str) -> "WalRecord":
        payload = json.loads(body)
        points = payload.get("points")
        return cls(
            seq=int(payload["seq"]),
            op=str(payload["op"]),
            ids=tuple(int(i) for i in payload["ids"]),
            points=(
                None
                if points is None
                else tuple(tuple(float(v) for v in row) for row in points)
            ),
        )

    @classmethod
    def insert(cls, seq: int, points: np.ndarray,
               ids: np.ndarray) -> "WalRecord":
        return cls(
            seq=seq,
            op="insert",
            ids=tuple(int(i) for i in ids),
            points=tuple(tuple(float(v) for v in row) for row in points),
        )

    @classmethod
    def delete(cls, seq: int, ids) -> "WalRecord":
        return cls(seq=seq, op="delete",
                   ids=tuple(int(i) for i in ids), points=None)


@dataclass(frozen=True)
class WalReplay:
    """What :meth:`MutationWAL.replay` found on disk."""

    records: Tuple[WalRecord, ...]
    #: torn final frames dropped (0 or 1 — a crash can tear at most
    #: the frame being appended)
    dropped_tail: int


def _frame(body: str) -> bytes:
    data = body.encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(data) & 0xFFFFFFFF, data)


def _parse_frame(line: bytes) -> WalRecord:
    """Decode one frame; raises ``ValueError`` on any mismatch."""
    if b" " not in line:
        raise ValueError("frame has no CRC prefix")
    crc_hex, _, body = line.partition(b" ")
    expected = int(crc_hex, 16)
    if (zlib.crc32(body) & 0xFFFFFFFF) != expected:
        raise ValueError("frame CRC mismatch")
    return WalRecord.from_body(body.decode("utf-8"))


class MutationWAL:
    """Append-only CRC32-framed JSONL of mutation batches."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[io.BufferedWriter] = None

    # -- write path ----------------------------------------------------
    def append(self, record: WalRecord) -> None:
        """Durably append one batch (flush + fsync before returning)."""
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(_frame(record.to_body()))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def rotate(self) -> None:
        """Atomically truncate (tmp + rename): the post-checkpoint WAL
        is empty, and a crash mid-rotation leaves the old WAL intact —
        replay is idempotent across the checkpoint boundary."""
        self.close()
        atomic_write_bytes(self.path, b"")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- read path -----------------------------------------------------
    def replay(self) -> WalReplay:
        """Read every durable batch back, tolerating a torn tail.

        A final frame that fails to parse or CRC-check was torn by a
        crash mid-append; it is dropped (the mutation was never
        acknowledged, so dropping it is the *correct* recovery).  A bad
        frame anywhere else is real corruption →
        :class:`~repro.core.exceptions.ConfigurationError`.
        """
        if not os.path.exists(self.path):
            return WalReplay(records=(), dropped_tail=0)
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if not raw:
            return WalReplay(records=(), dropped_tail=0)
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()  # trailing newline of the last complete frame
        records: List[WalRecord] = []
        dropped = 0
        last_seq: Optional[int] = None
        for index, line in enumerate(lines):
            try:
                record = _parse_frame(line)
            except (ValueError, json.JSONDecodeError, KeyError) as exc:
                if index == len(lines) - 1:
                    dropped = 1
                    break
                raise ConfigurationError(
                    f"WAL {self.path!r} frame {index} is corrupt "
                    f"({exc}); refusing to recover from a damaged log"
                ) from exc
            if last_seq is not None and record.seq != last_seq + 1:
                raise ConfigurationError(
                    f"WAL {self.path!r} sequence jump: {last_seq} -> "
                    f"{record.seq}; refusing to recover from a damaged log"
                )
            last_seq = record.seq
            records.append(record)
        return WalReplay(records=tuple(records), dropped_tail=dropped)


# ----------------------------------------------------------------------
# durable snapshot checkpoints
# ----------------------------------------------------------------------
def _state_crc(points: np.ndarray, ids: np.ndarray,
               sky_ids: np.ndarray) -> int:
    """CRC32 over the canonical byte image of one durable state."""
    crc = zlib.crc32(np.ascontiguousarray(points, dtype=np.float64).tobytes())
    crc = zlib.crc32(
        np.ascontiguousarray(ids, dtype=np.int64).tobytes(), crc
    )
    crc = zlib.crc32(
        np.ascontiguousarray(sky_ids, dtype=np.int64).tobytes(), crc
    )
    return crc & 0xFFFFFFFF


@dataclass(frozen=True)
class DurableState:
    """One loaded checkpoint: the recovery baseline."""

    codec: ZGridCodec
    seq: int
    version: int
    points: np.ndarray
    ids: np.ndarray
    sky_ids: np.ndarray


class DatasetStore:
    """One dataset's durable home: checkpoint + WAL."""

    def __init__(self, root: str, dataset: str) -> None:
        self.dataset = dataset
        self.directory = os.path.join(root, dataset)
        os.makedirs(self.directory, exist_ok=True)
        self.wal = MutationWAL(os.path.join(self.directory, _WAL_FILE))

    @property
    def meta_path(self) -> str:
        return os.path.join(self.directory, _META_FILE)

    @property
    def state_path(self) -> str:
        return os.path.join(self.directory, _STATE_FILE)

    # -- checkpointing -------------------------------------------------
    def save_checkpoint(
        self,
        codec: ZGridCodec,
        seq: int,
        version: int,
        points: np.ndarray,
        ids: np.ndarray,
        sky_ids: np.ndarray,
    ) -> None:
        """Persist the current state and rotate the WAL.

        Order matters for crash consistency: state file first, then
        meta (the commit point), then WAL rotation, each written with
        :func:`~repro.pipeline.checkpoint.atomic_write_bytes` (fsync,
        rename, fsync the directory), so the meta can never name a
        state file that did not reach the disk.  A crash after any step
        still recovers exactly — replay skips WAL seqs the checkpoint
        already covers.
        """
        from repro.pipeline.serialization import codec_to_dict

        points = np.ascontiguousarray(points, dtype=np.float64)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        sky_ids = np.ascontiguousarray(sky_ids, dtype=np.int64)
        state = io.BytesIO()
        np.savez(state, points=points, ids=ids, sky_ids=sky_ids)
        atomic_write_bytes(self.state_path, state.getvalue())
        meta = {
            "format": _FORMAT_VERSION,
            "dataset": self.dataset,
            "seq": int(seq),
            "version": int(version),
            "crc32": _state_crc(points, ids, sky_ids),
            "codec": codec_to_dict(codec),
        }
        atomic_write_bytes(
            self.meta_path, json.dumps(meta, indent=1).encode("utf-8")
        )
        self.wal.rotate()

    def load_checkpoint(self) -> Optional[DurableState]:
        """The last durable checkpoint (CRC-verified), if any."""
        from repro.pipeline.serialization import codec_from_dict

        if not os.path.exists(self.meta_path):
            return None
        with open(self.meta_path, "r") as handle:
            try:
                meta = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"durable meta {self.meta_path!r} is not valid JSON: "
                    f"{exc}"
                ) from exc
        if meta.get("format") != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported durable-state format {meta.get('format')!r} "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        if not os.path.exists(self.state_path):
            raise ConfigurationError(
                f"durable state file {self.state_path!r} is missing"
            )
        with np.load(self.state_path) as payload:
            points = np.asarray(payload["points"], dtype=np.float64)
            ids = np.asarray(payload["ids"], dtype=np.int64)
            sky_ids = np.asarray(payload["sky_ids"], dtype=np.int64)
        if _state_crc(points, ids, sky_ids) != meta["crc32"]:
            raise ConfigurationError(
                f"durable state {self.state_path!r} failed its CRC check; "
                "the checkpoint is corrupt"
            )
        return DurableState(
            codec=codec_from_dict(meta["codec"]),
            seq=int(meta["seq"]),
            version=int(meta["version"]),
            points=points,
            ids=ids,
            sky_ids=sky_ids,
        )

    def close(self) -> None:
        self.wal.close()
