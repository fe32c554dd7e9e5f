"""Unit tests for the versioned on-disk checkpoint store."""

import json
import os

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.mapreduce.types import Block
from repro.pipeline.checkpoint import (
    STAGE_FINAL,
    STAGE_PHASE1,
    STAGE_PREPROCESS,
    CheckpointStore,
)

KEY = {"plan": "ZDG+ZS+ZM", "n": 100, "seed": 0}


def block(seed=0, n=5, d=3):
    rng = np.random.default_rng(seed)
    return Block(
        np.arange(n, dtype=np.int64) + 100 * seed, rng.random((n, d))
    )


class TestRoundTrip:
    def test_blocks_and_payload_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        b0, b7 = block(0), block(7)
        store.save_stage(
            STAGE_PHASE1,
            payload={"counters": {"phase1": {"candidates": 12}}},
            blocks=[(0, b0), (7, b7)],
        )
        # a fresh store object reads everything back from disk
        again = CheckpointStore(str(tmp_path))
        assert again.completed_stages() == [STAGE_PHASE1]
        assert again.stage_payload(STAGE_PHASE1)["counters"] == {
            "phase1": {"candidates": 12}
        }
        restored = dict(again.load_blocks(STAGE_PHASE1))
        assert sorted(restored) == [0, 7]
        # bit-identical: ids and float64 payload round-trip exactly
        assert np.array_equal(restored[0].ids, b0.ids)
        assert np.array_equal(restored[0].points, b0.points)
        assert restored[7].checksum() == b7.checksum()

    def test_empty_block_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        store.save_stage(STAGE_FINAL, blocks=[(0, Block.empty(4))])
        [(key, restored)] = store.load_blocks(STAGE_FINAL)
        assert key == 0 and restored.size == 0 and restored.dimensions == 4

    def test_stage_order_reported_in_pipeline_order(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        store.save_stage(STAGE_FINAL)
        store.save_stage(STAGE_PREPROCESS)
        assert store.completed_stages() == [STAGE_PREPROCESS, STAGE_FINAL]


class TestResumeLifecycle:
    def test_fresh_begin_discards_previous_run(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        store.save_stage(STAGE_PHASE1, blocks=[(0, block())])
        store.begin(KEY, resume=False)
        assert store.completed_stages() == []
        blocks_dir = tmp_path / "blocks"
        assert not list(blocks_dir.glob("*.npz"))

    def test_resume_keeps_completed_stages(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        store.save_stage(STAGE_PREPROCESS, payload={"x": 1})
        resumed = CheckpointStore(str(tmp_path))
        assert resumed.begin(KEY, resume=True) == [STAGE_PREPROCESS]

    def test_resume_rejects_run_key_mismatch(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        other = dict(KEY, seed=99)
        with pytest.raises(ConfigurationError, match="run key mismatch"):
            CheckpointStore(str(tmp_path)).begin(other, resume=True)

    def test_run_key_json_normalisation(self, tmp_path):
        # tuples vs lists must compare equal after the JSON round-trip
        store = CheckpointStore(str(tmp_path))
        store.begin({"dims": (3, 4)}, resume=False)
        CheckpointStore(str(tmp_path)).begin(
            {"dims": [3, 4]}, resume=True
        )

    def test_save_before_begin_is_an_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(ConfigurationError, match="begin"):
            store.save_stage(STAGE_PREPROCESS)

    def test_unknown_stage_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        with pytest.raises(ConfigurationError, match="unknown"):
            store.save_stage("phase9")

    def test_missing_stage_read_is_an_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        with pytest.raises(ConfigurationError, match="no completed stage"):
            store.load_blocks(STAGE_PHASE1)


class TestCorruptionDetection:
    def test_bit_flip_fails_crc(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        b = block()
        store.save_stage(STAGE_PHASE1, blocks=[(0, b)])
        path = tmp_path / "blocks" / "phase1-0000.npz"
        flipped = b.points.copy()
        flipped[0, 0] += 1.0
        np.savez(path, ids=b.ids, points=flipped)
        with pytest.raises(ConfigurationError, match="CRC"):
            CheckpointStore(str(tmp_path)).load_blocks(STAGE_PHASE1)

    def test_missing_block_file(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        store.save_stage(STAGE_PHASE1, blocks=[(0, block())])
        os.remove(tmp_path / "blocks" / "phase1-0000.npz")
        with pytest.raises(ConfigurationError, match="missing"):
            CheckpointStore(str(tmp_path)).load_blocks(STAGE_PHASE1)


class TestFormatVersioning:
    def test_bumped_version_is_configuration_error(self, tmp_path):
        """A future-format manifest must fail loudly and typed — not
        with a KeyError from some missing field deep in the loader."""
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="version"):
            CheckpointStore(str(tmp_path))

    def test_garbage_manifest_is_configuration_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            CheckpointStore(str(tmp_path))

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        store.save_stage(STAGE_PHASE1, blocks=[(0, block())])
        leftovers = [
            name
            for _dir, _sub, names in os.walk(tmp_path)
            for name in names
            if ".tmp" in name
        ]
        assert leftovers == []


class TestDurableWrites:
    def test_blocks_synced_before_rename_and_manifest(
        self, tmp_path, monkeypatch
    ):
        """Every block file is fsynced before its rename, and the blocks
        directory after the last rename but before the manifest is
        replaced, so a power cut never leaves a manifest naming a block
        whose bytes or name were not durable."""
        store = CheckpointStore(str(tmp_path))
        store.begin(KEY, resume=False)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.save_stage(
            STAGE_PHASE1, blocks=[(0, block(0)), (3, block(3)), (5, block(5))]
        )
        monkeypatch.undo()

        blocks_dir = os.path.join(str(tmp_path), "blocks")
        renames = [
            (i, e) for i, e in enumerate(events)
            if e[0] == "replace" and os.path.dirname(e[2]) == blocks_dir
        ]
        assert len(renames) == 3
        for at, (_, inode, _) in renames:
            synced = [
                i for i, e in enumerate(events[:at])
                if e == ("fsync", inode)
            ]
            assert synced, "block renamed before its bytes were fsynced"
        (manifest_at,) = [
            i for i, e in enumerate(events)
            if e[0] == "replace" and e[2] == store.manifest_path
        ]
        assert renames[-1][0] < manifest_at
        dir_inode = os.stat(blocks_dir).st_ino
        dir_synced = [
            i for i, e in enumerate(events) if e == ("fsync", dir_inode)
        ]
        assert any(
            renames[-1][0] < i < manifest_at for i in dir_synced
        ), "blocks directory not fsynced between the renames and manifest"
