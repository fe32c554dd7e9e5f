"""Tests for the vectorized Z-kernel layer and its batched consumers.

Pins the PR's two central equivalence claims:

* the uint64 **fast path** and the packed-byte **wide path** compute
  identical Z-addresses, region bounds, prefix lengths and sort orders —
  checked against each other (the wide path can be forced onto narrow
  shapes) and against scalar bit-twiddling references;
* the batched leaf screening in Z-search and the deferred-rebuild
  ``zmerge_all`` produce results identical to scalar references —
  including *exact* ``OpCounter`` totals for Z-search, which the
  simulated cost model and trace reconciliation rely on.

Plus the satellite fixes that ride along: the BNL empty-input shape,
vectorised ``decode_many``/``dominance_counts``, Z-address carry through
:class:`~repro.mapreduce.types.Block` and checkpoints, native-batch
partition routing, and the kernel-path metrics wiring.
"""

import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bnl import bnl_skyline
from repro.core.exceptions import ZOrderError
from repro.core.point import dominance_counts
from repro.data.synthetic import independent
from repro.mapreduce.types import Block
from repro.observability import Tracer
from repro.partitioning.zcurve import ZCurveRule
from repro.pipeline.checkpoint import STAGE_PHASE1, CheckpointStore
from repro.pipeline.driver import run_plan
from repro.zorder.encoding import ZGridCodec
from repro.zorder.kernel import KernelStats, ZKernel
from repro.zorder.zbtree import OpCounter, build_zbtree
from repro.zorder.zmerge import zmerge, zmerge_all
from repro.zorder.zsearch import SkylineBuffer, _buffer_dominates_region, zsearch


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def _scalar_interleave(row, bits_per_dim):
    """The documented level-major, dimension-minor bit layout, one bit
    at a time — the oracle both kernel paths must reproduce."""
    z = 0
    for level in range(bits_per_dim - 1, -1, -1):
        for value in row:
            z = (z << 1) | ((int(value) >> level) & 1)
    return z


def _forced_wide(dimensions, bits_per_dim):
    """A kernel driven down the packed-byte wide path on a shape that
    would normally qualify for the uint64 fast path, so both code paths
    can be compared on identical inputs."""
    kernel = ZKernel(dimensions, bits_per_dim)
    assert kernel.fast_path, "force-wide only makes sense on narrow shapes"
    kernel.fast_path = False
    return kernel


def _scalar_zsearch(tree, counter):
    """The pre-batching Z-search leaf scan: one buffer probe per point,
    in Z-order.  Counter semantics are the accounting contract the
    batched implementation must reproduce exactly."""
    d = tree.codec.dimensions
    buffer = SkylineBuffer(d)
    if tree.root is None:
        return np.empty((0, d)), np.empty(0, dtype=np.int64)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        counter.nodes_visited += 1
        counter.region_tests += 1
        if _buffer_dominates_region(buffer, node, counter):
            continue
        if node.is_leaf:
            for i in range(node.size):
                if buffer.dominates(node.points[i], counter):
                    continue
                buffer.append(
                    node.points[i], int(node.ids[i]), node.zaddresses[i]
                )
        else:
            stack.extend(reversed(node.children))
    return buffer.points.copy(), buffer.ids.copy()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def shape_and_grid(draw, narrow, max_points=48):
    """A ``(d, bits_per_dim)`` shape plus a random grid batch.

    ``narrow=True`` keeps ``d * bits <= 64`` (fast-path eligible);
    ``narrow=False`` forces ``> 64`` (wide path, multi-byte rows).
    """
    if narrow:
        d = draw(st.integers(min_value=1, max_value=8))
        bits = draw(st.integers(min_value=1, max_value=min(32, 64 // d)))
    else:
        d = draw(st.integers(min_value=5, max_value=10))
        bits = draw(st.integers(min_value=64 // d + 1, max_value=16))
    n = draw(st.integers(min_value=1, max_value=max_points))
    cells = 1 << bits
    grid = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=cells - 1),
                min_size=d,
                max_size=d,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return d, bits, np.asarray(grid, dtype=np.int64)


@st.composite
def shape_and_parts(draw, max_parts=4, max_points=24):
    """One narrow shape plus several independent grid batches on it."""
    d = draw(st.integers(min_value=1, max_value=6))
    bits = draw(st.integers(min_value=1, max_value=min(32, 64 // d)))
    cells = 1 << bits
    count = draw(st.integers(min_value=2, max_value=max_parts))
    parts = []
    for _ in range(count):
        n = draw(st.integers(min_value=1, max_value=max_points))
        grid = draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=cells - 1),
                    min_size=d,
                    max_size=d,
                ),
                min_size=n,
                max_size=n,
            )
        )
        parts.append(np.asarray(grid, dtype=np.int64))
    return d, bits, parts


class TestKernelPathsAgree:
    @given(shape_and_grid(narrow=True))
    @settings(max_examples=120, deadline=None)
    def test_fast_path_matches_scalar_reference(self, sg):
        d, bits, grid = sg
        kernel = ZKernel(d, bits)
        assert kernel.fast_path
        zbatch = kernel.interleave(grid)
        expected = [_scalar_interleave(row, bits) for row in grid]
        assert kernel.to_int_list(zbatch) == expected
        assert np.array_equal(
            kernel.deinterleave(zbatch).astype(np.int64), grid
        )

    @given(shape_and_grid(narrow=False, max_points=24))
    @settings(max_examples=60, deadline=None)
    def test_wide_path_matches_scalar_reference(self, sg):
        d, bits, grid = sg
        kernel = ZKernel(d, bits)
        assert not kernel.fast_path
        zbatch = kernel.interleave(grid)
        expected = [_scalar_interleave(row, bits) for row in grid]
        assert kernel.to_int_list(zbatch) == expected
        assert np.array_equal(
            kernel.deinterleave(zbatch).astype(np.int64), grid
        )

    @given(shape_and_grid(narrow=True))
    @settings(max_examples=120, deadline=None)
    def test_forced_wide_agrees_with_fast(self, sg):
        d, bits, grid = sg
        fast = ZKernel(d, bits)
        wide = _forced_wide(d, bits)
        zf = fast.interleave(grid)
        zw = wide.interleave(grid)
        ints = fast.to_int_list(zf)
        assert wide.to_int_list(zw) == ints
        # Stable sort permutations must match element-for-element, so
        # duplicate Z-addresses keep input order on both paths.
        assert np.array_equal(fast.argsort(zf), wide.argsort(zw))
        # Pairwise region bounds and prefix lengths.
        if grid.shape[0] >= 2:
            af, bf = zf[:-1], zf[1:]
            aw, bw = zw[:-1], zw[1:]
            min_f, max_f = fast.region_bounds(af, bf)
            min_w, max_w = wide.region_bounds(aw, bw)
            assert fast.to_int_list(min_f) == wide.to_int_list(min_w)
            assert fast.to_int_list(max_f) == wide.to_int_list(max_w)
            assert np.array_equal(
                fast.common_prefix_lengths(af, bf),
                wide.common_prefix_lengths(aw, bw),
            )
        # Int round-trip through the boundary converters.
        assert wide.to_int_list(wide.from_ints(ints)) == ints

    @given(shape_and_grid(narrow=False, max_points=24))
    @settings(max_examples=60, deadline=None)
    def test_batched_region_ops_match_scalar_codec(self, sg):
        d, bits, grid = sg
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        kernel = codec.kernel
        zbatch = codec.encode_grid_batch(grid)
        ints = kernel.to_int_list(zbatch)
        if len(ints) < 2:
            return
        alpha, beta = zbatch[:-1], zbatch[1:]
        min_b, max_b = kernel.region_bounds(alpha, beta)
        prefixes = kernel.common_prefix_lengths(alpha, beta)
        for i, (a, b) in enumerate(zip(ints[:-1], ints[1:])):
            lo, hi = codec.region_bounds(min(a, b), max(a, b))
            assert kernel.to_int_list(min_b[i:i + 1]) == [lo]
            assert kernel.to_int_list(max_b[i:i + 1]) == [hi]
            assert prefixes[i] == codec.common_prefix_length(a, b)

    def test_from_ints_rejects_out_of_range(self):
        fast = ZKernel(2, 4)
        with pytest.raises(ZOrderError):
            fast.from_ints([1 << 70])
        wide = ZKernel(6, 12)
        with pytest.raises(ZOrderError):
            wide.from_ints([1 << wide.total_bits])


class TestBatchedTreeOpsEquivalence:
    @given(shape_and_grid(narrow=True, max_points=64))
    @settings(max_examples=60, deadline=None)
    def test_zsearch_matches_scalar_reference_with_exact_counters(self, sg):
        d, bits, grid = sg
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        tree = build_zbtree(
            codec, grid.astype(float), leaf_capacity=4, fanout=3
        )
        batched_counter = OpCounter()
        pts_b, ids_b = zsearch(tree, counter=batched_counter)
        scalar_counter = OpCounter()
        pts_s, ids_s = _scalar_zsearch(tree, scalar_counter)
        assert np.array_equal(pts_b, pts_s)
        assert np.array_equal(ids_b, ids_s)
        assert batched_counter.point_tests == scalar_counter.point_tests
        assert batched_counter.region_tests == scalar_counter.region_tests
        assert batched_counter.nodes_visited == scalar_counter.nodes_visited

    @given(shape_and_parts())
    @settings(max_examples=40, deadline=None)
    def test_zmerge_all_deferred_rebuild_matches_sequential_folds(self, sp):
        d, bits, parts = sp
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)

        def candidates():
            """Dominance-free candidate trees (the zmerge contract),
            with globally unique ids."""
            trees = []
            offset = 0
            for grid in parts:
                pts = grid.astype(float)
                ids = np.arange(offset, offset + pts.shape[0], dtype=np.int64)
                offset += pts.shape[0]
                sky_pts, sky_ids = zsearch(
                    build_zbtree(codec, pts, ids=ids)
                )
                trees.append(
                    build_zbtree(
                        codec, sky_pts, ids=sky_ids,
                        leaf_capacity=4, fanout=3,
                    )
                )
            return trees

        deferred = zmerge_all(candidates())
        deferred.validate()
        sequential = functools.reduce(zmerge, candidates())
        _, def_pts, def_ids = deferred.collect()
        _, seq_pts, seq_ids = sequential.collect()
        order_d, order_s = np.argsort(def_ids), np.argsort(seq_ids)
        assert np.array_equal(def_ids[order_d], seq_ids[order_s])
        assert np.array_equal(def_pts[order_d], seq_pts[order_s])
        # Oracle: the skyline of the union of all parts.
        union = np.vstack([grid.astype(float) for grid in parts])
        oracle_pts, _ = bnl_skyline(union)
        oracle = {tuple(row) for row in oracle_pts}
        assert {tuple(row) for row in def_pts} == oracle


# ----------------------------------------------------------------------
# satellites
# ----------------------------------------------------------------------
class TestBnlEmptyInputShape:
    def test_empty_2d_keeps_dimensionality(self):
        pts, ids = bnl_skyline(np.empty((0, 5)))
        assert pts.shape == (0, 5)
        assert ids.shape == (0,)

    def test_empty_1d_normalises_to_zero_dims(self):
        pts, ids = bnl_skyline(np.empty(0))
        assert pts.shape == (0, 0)
        assert ids.shape == (0,)


class TestVectorisedPointOps:
    def test_dominance_counts_chunked_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        pts = rng.integers(0, 6, size=(97, 4)).astype(float)
        expected = np.array(
            [
                sum(
                    bool(np.all(q <= p) and np.any(q < p))
                    for q in pts
                )
                for p in pts
            ],
            dtype=np.int64,
        )
        assert np.array_equal(dominance_counts(pts), expected)

    def test_decode_many_accepts_ints_and_native_batches(self):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=5)
        rng = np.random.default_rng(3)
        grid = rng.integers(0, 32, size=(40, 3))
        zbatch = codec.encode_grid_batch(grid)
        ints = codec.kernel.to_int_list(zbatch)
        assert np.array_equal(codec.decode_many(ints), grid.astype(np.uint32))
        assert np.array_equal(codec.decode_many(zbatch), grid.astype(np.uint32))


class TestKernelStats:
    def test_record_snapshot_reset(self):
        stats = KernelStats()
        stats.record("encode_fast", 10)
        stats.record("encode_fast", 5)
        stats.record("decode_wide", 3)
        snap = stats.snapshot()
        assert snap["encode_fast_calls"] == 2
        assert snap["encode_fast_rows"] == 15
        assert snap["decode_wide_calls"] == 1
        stats.reset()
        assert stats.snapshot() == {}

    def test_codec_pickles_identically_regardless_of_stats(self):
        # The distributed cache's idempotent-republish check compares
        # pickle bytes; process-local telemetry must not break it.
        a = ZGridCodec.grid_identity(4, bits_per_dim=8)
        b = ZGridCodec.grid_identity(4, bits_per_dim=8)
        a.encode_grid_batch(np.ones((5, 4), dtype=np.int64))
        assert a.kernel_stats.snapshot() != b.kernel_stats.snapshot()
        assert pickle.dumps(a) == pickle.dumps(b)
        restored = pickle.loads(pickle.dumps(a))
        assert restored.kernel_stats.snapshot() == {}


class TestBlockZCarry:
    def _block(self, codec, n=12, seed=5):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 1 << codec.bits_per_dim, size=(n, codec.dimensions))
        z = codec.encode_grid_batch(grid)
        return Block(np.arange(n), grid.astype(float), zaddresses=z), z

    @pytest.mark.parametrize("shape", [(2, 8), (6, 12)])
    def test_select_and_concat_propagate(self, shape):
        codec = ZGridCodec.grid_identity(shape[0], bits_per_dim=shape[1])
        block, z = self._block(codec)
        mask = np.arange(block.size) % 2 == 0
        sub = block.select(mask)
        assert np.array_equal(sub.zaddresses, z[mask])
        both = Block.concat([sub, block.select(~mask)])
        assert both.zaddresses is not None
        assert both.zaddresses.shape[0] == block.size

    def test_concat_drops_z_when_any_input_lacks_it(self):
        codec = ZGridCodec.grid_identity(2, bits_per_dim=8)
        block, _ = self._block(codec)
        bare = Block(block.ids + 100, block.points)
        assert Block.concat([block, bare]).zaddresses is None

    def test_checksum_excludes_derived_zaddresses(self):
        codec = ZGridCodec.grid_identity(2, bits_per_dim=8)
        block, _ = self._block(codec)
        bare = Block(block.ids, block.points)
        assert block.checksum() == bare.checksum()


class TestCheckpointZPersistence:
    def test_zaddresses_roundtrip_and_stay_optional(self, tmp_path):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=6)
        rng = np.random.default_rng(11)
        grid = rng.integers(0, 64, size=(20, 3))
        z = codec.encode_grid_batch(grid)
        carrying = Block(np.arange(20), grid.astype(float), zaddresses=z)
        bare = Block(np.arange(20, 40), grid.astype(float))
        store = CheckpointStore(str(tmp_path))
        store.begin({"run": "z"}, resume=False)
        store.save_stage(STAGE_PHASE1, blocks=[(0, carrying), (1, bare)])
        loaded = dict(CheckpointStore(str(tmp_path)).load_blocks(STAGE_PHASE1))
        assert np.array_equal(loaded[0].zaddresses, z)
        assert loaded[1].zaddresses is None


class TestZCurveNativeRouting:
    @pytest.mark.parametrize("shape", [(2, 8), (6, 12)])
    def test_partition_of_native_matches_int_path(self, shape):
        codec = ZGridCodec.grid_identity(shape[0], bits_per_dim=shape[1])
        rng = np.random.default_rng(13)
        grid = rng.integers(
            0, 1 << shape[1], size=(200, shape[0])
        )
        zbatch = codec.encode_grid_batch(grid)
        ints = codec.kernel.to_int_list(zbatch)
        pivots = sorted(set(ints[10:200:40]))
        rule = ZCurveRule(codec, pivots)
        assert np.array_equal(
            rule.partition_of(zbatch), rule.partition_of(ints)
        )
        # A pivot's own address belongs to the partition *after* the
        # boundary (``side="right"`` semantics), on both native paths.
        pivot_batch = codec.as_zbatch(list(pivots))
        assert np.array_equal(
            rule.partition_of(pivot_batch),
            np.arange(1, len(pivots) + 1, dtype=np.int64),
        )


class TestKernelMetricsWiring:
    def test_run_report_carries_zkernel_counters(self):
        ds = independent(400, 4, seed=2)
        rep = run_plan("ZHG+ZS+ZM", ds, seed=2, tracer=Tracer())
        assert rep.observed_metrics is not None
        groups = rep.observed_metrics.counters_as_dict()
        assert "zkernel" in groups
        # d=4 at the default 12 bits/dim is 48 bits: fast-path eligible.
        assert groups["zkernel"].get("encode_fast_calls", 0) > 0
        assert groups["zkernel"].get("encode_fast_rows", 0) > 0
