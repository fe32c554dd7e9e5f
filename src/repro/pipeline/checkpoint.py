"""Versioned on-disk checkpoints for the three-phase pipeline.

A checkpoint directory holds one run's durable lineage (cf. RDD
checkpointing): a JSON **manifest** describing which stages completed —
written atomically via tmp+rename so a crash mid-write never corrupts an
existing checkpoint — plus one ``.npz`` payload file per checkpointed
:class:`~repro.mapreduce.types.Block`, each guarded by the block's CRC32
(:meth:`Block.checksum`), mirroring HDFS's per-block CRC files.

Layout::

    <root>/manifest.json            # version, run key, stage records
    <root>/blocks/<stage>-NNNN.npz  # ids + points arrays per block

The manifest's ``run_key`` fingerprints the inputs that determine the
result (plan, dataset checksum, grouping knobs, seed): resuming against
a checkpoint written for different inputs is a
:class:`~repro.core.exceptions.ConfigurationError`, as is an unknown
``version`` or a payload whose CRC no longer matches.

Partition rules and codecs are serialised through the existing
:mod:`repro.pipeline.serialization` codecs, so the checkpointed phase-0
rule is exactly the wire format a real deployment would ship to its
mappers.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.mapreduce.types import Block

_FORMAT_VERSION = 1

#: stage names, in pipeline order
STAGE_PREPROCESS = "preprocess"
STAGE_PHASE1 = "phase1"
STAGE_PARTIAL_MERGE = "partial_merge"
STAGE_FINAL = "final"
STAGE_ORDER: Tuple[str, ...] = (
    STAGE_PREPROCESS, STAGE_PHASE1, STAGE_PARTIAL_MERGE, STAGE_FINAL
)

_MANIFEST = "manifest.json"
_BLOCKS_DIR = "blocks"


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via tmp file + ``os.replace`` so readers never observe a
    half-written file (the crash-consistency contract of the store).

    The payload is fsynced before the rename and the parent directory
    after it, so once this returns the new file survives a power cut
    under its final name.  Shared by this store and the serving tier's
    WAL/durable-snapshot store (:mod:`repro.serving.wal`) so every
    durable artefact in the repo has the same guarantee.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def _fsync_dir(path: str) -> None:
    """Make the renames inside directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: backwards-compatible private alias (pre-serving-tier name)
_atomic_write_bytes = atomic_write_bytes


class CheckpointStore:
    """Durable stage artefacts of one pipeline run."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(os.path.join(root, _BLOCKS_DIR), exist_ok=True)
        self._manifest: Optional[Dict[str, Any]] = self._read_manifest()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST)

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        if not os.path.exists(self.manifest_path):
            return None
        with open(self.manifest_path, "r") as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"checkpoint manifest {self.manifest_path!r} is not "
                    f"valid JSON: {exc}"
                ) from exc
        version = manifest.get("version")
        if version != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint format version {version!r} "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        return manifest

    def _write_manifest(self) -> None:
        assert self._manifest is not None
        payload = json.dumps(self._manifest, indent=1).encode("utf-8")
        _atomic_write_bytes(self.manifest_path, payload)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self, run_key: Dict[str, Any], resume: bool) -> List[str]:
        """Open the store for a run; returns the resumable stage names.

        ``resume=True`` keeps completed stages but requires the stored
        run key to match (resuming a checkpoint written for a different
        plan/dataset/config would silently produce a wrong skyline).
        ``resume=False`` discards any previous content.
        """
        # JSON round-trip normalises types (tuples->lists, int keys->str)
        # so stored and freshly-built keys compare structurally.
        run_key = json.loads(json.dumps(run_key))
        if resume and self._manifest is not None:
            stored = self._manifest.get("run_key")
            if stored != run_key:
                raise ConfigurationError(
                    "checkpoint run key mismatch: the checkpoint was "
                    f"written for {stored!r} but this run is {run_key!r}; "
                    "refusing to resume"
                )
            return self.completed_stages()
        self._manifest = {
            "version": _FORMAT_VERSION,
            "run_key": run_key,
            "stages": {},
        }
        self._clear_blocks()
        self._write_manifest()
        return []

    def _clear_blocks(self) -> None:
        blocks_dir = os.path.join(self.root, _BLOCKS_DIR)
        for name in os.listdir(blocks_dir):
            if name.endswith(".npz"):
                os.remove(os.path.join(blocks_dir, name))

    def completed_stages(self) -> List[str]:
        """Durable stages, in pipeline order."""
        if self._manifest is None:
            return []
        stages = self._manifest.get("stages", {})
        return [name for name in STAGE_ORDER if name in stages]

    def has_stage(self, stage: str) -> bool:
        return (
            self._manifest is not None
            and stage in self._manifest.get("stages", {})
        )

    # ------------------------------------------------------------------
    # stage records
    # ------------------------------------------------------------------
    def save_stage(
        self,
        stage: str,
        payload: Optional[Dict[str, Any]] = None,
        blocks: Optional[List[Tuple[int, Block]]] = None,
    ) -> None:
        """Persist one completed stage: JSON payload + keyed blocks.

        Every block lands in its own ``.npz`` (tmp, fsync, rename) with
        its CRC32 recorded in the manifest; the blocks directory is
        fsynced once and the manifest itself is rewritten last, so a
        stage is either fully durable or absent, also across a power
        cut.
        """
        if stage not in STAGE_ORDER:
            raise ConfigurationError(f"unknown checkpoint stage {stage!r}")
        if self._manifest is None:
            raise ConfigurationError(
                "checkpoint store not opened; call begin() first"
            )
        entries = []
        for index, (key, block) in enumerate(blocks or []):
            name = f"{stage}-{index:04d}.npz"
            path = os.path.join(self.root, _BLOCKS_DIR, name)
            tmp = f"{path}.tmp.npz"
            arrays = {"ids": block.ids, "points": block.points}
            if block.zaddresses is not None:
                # Carried Z-addresses persist too, so a resumed run's
                # phase 2 never re-encodes candidates.  Older payloads
                # without the array load fine (the field is derived).
                arrays["zaddresses"] = block.zaddresses
            with open(tmp, "wb") as handle:
                np.savez(handle, **arrays)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            entries.append(
                {
                    "file": name,
                    "key": int(key),
                    "crc32": block.checksum(),
                    "records": block.size,
                    "dimensions": block.dimensions,
                }
            )
        if entries:
            # The renames must be durable before the manifest names
            # the blocks.
            _fsync_dir(os.path.join(self.root, _BLOCKS_DIR))
        self._manifest["stages"][stage] = {
            "payload": payload or {},
            "blocks": entries,
        }
        self._write_manifest()

    def stage_payload(self, stage: str) -> Dict[str, Any]:
        if not self.has_stage(stage):
            raise ConfigurationError(
                f"checkpoint has no completed stage {stage!r}"
            )
        assert self._manifest is not None
        return self._manifest["stages"][stage]["payload"]

    def load_blocks(self, stage: str) -> List[Tuple[int, Block]]:
        """Read a stage's keyed blocks back, verifying every CRC."""
        if not self.has_stage(stage):
            raise ConfigurationError(
                f"checkpoint has no completed stage {stage!r}"
            )
        assert self._manifest is not None
        out: List[Tuple[int, Block]] = []
        for entry in self._manifest["stages"][stage]["blocks"]:
            path = os.path.join(self.root, _BLOCKS_DIR, entry["file"])
            if not os.path.exists(path):
                raise ConfigurationError(
                    f"checkpoint block {entry['file']!r} is missing"
                )
            with np.load(path) as payload:
                zaddresses = (
                    payload["zaddresses"] if "zaddresses" in payload else None
                )
                block = Block(
                    payload["ids"], payload["points"], zaddresses=zaddresses
                )
            if block.checksum() != entry["crc32"]:
                raise ConfigurationError(
                    f"checkpoint block {entry['file']!r} failed its CRC "
                    "check; the checkpoint is corrupt"
                )
            out.append((int(entry["key"]), block))
        return out
