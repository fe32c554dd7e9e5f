"""Unit tests for the analysis package."""

import numpy as np

from repro.analysis import (
    dominance_depth_profile,
    render_histogram,
    render_profile,
    skyline_partition_histogram,
    workload_profile,
)
from repro.core.dataset import Dataset
from repro.data.synthetic import anticorrelated, correlated, independent
from repro.partitioning import get_partitioner, reservoir_sample
from repro.zorder.encoding import quantize_dataset


class TestSkylineHistogram:
    def make(self, gen=independent, name="zdg"):
        ds = gen(1500, 4, seed=1)
        snapped, codec = quantize_dataset(ds, bits_per_dim=8)
        sample = reservoir_sample(snapped, ratio=0.1, seed=0)
        rule = get_partitioner(name).fit(sample, codec, 8)
        return snapped, codec, rule

    def test_counts_cover_dataset(self):
        snapped, codec, rule = self.make()
        histogram = skyline_partition_histogram(snapped, rule, codec)
        assert sum(b["points"] for b in histogram.values()) == snapped.size

    def test_skyline_counts_match_oracle(self):
        from repro.core.skyline import skyline_indices_oracle

        snapped, codec, rule = self.make()
        histogram = skyline_partition_histogram(snapped, rule, codec)
        total_sky = sum(b["skyline"] for b in histogram.values())
        expected = len(skyline_indices_oracle(snapped.points))
        assert total_sky == expected

    def test_example2_concentration(self):
        # Example 2's observation: skyline points concentrate in a
        # minority of equal-size partitions.
        snapped, codec, rule = self.make(anticorrelated, "naive-z")
        histogram = skyline_partition_histogram(snapped, rule, codec)
        sky_counts = sorted(
            (b["skyline"] for b in histogram.values()), reverse=True
        )
        total = sum(sky_counts)
        top_quarter = sum(sky_counts[: max(1, len(sky_counts) // 4)])
        assert top_quarter > total / 4  # denser than uniform


class TestDepthProfile:
    def test_chain(self):
        ds = Dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        profile = dominance_depth_profile(ds)
        assert profile.skyline_size == 1
        assert profile.max_depth == 2
        assert profile.depth_histogram == {0: 1, 1: 1, 2: 1}

    def test_antichain(self):
        ds = Dataset([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        profile = dominance_depth_profile(ds)
        assert profile.skyline_size == 3
        assert profile.max_depth == 0
        assert profile.mean_depth == 0.0

    def test_correlated_deeper_than_anticorrelated(self):
        deep = dominance_depth_profile(correlated(400, 4, seed=2))
        shallow = dominance_depth_profile(anticorrelated(400, 4, seed=2))
        assert deep.mean_depth > shallow.mean_depth


class TestWorkloadProfile:
    def test_fields(self):
        profile = workload_profile(independent(300, 3, seed=0))
        assert profile["n"] == 300
        assert profile["d"] == 3
        assert 0 < profile["skyline_fraction"] <= 1

    def test_correlation_sign_separates_regimes(self):
        corr = workload_profile(correlated(500, 3, seed=1))
        anti = workload_profile(anticorrelated(500, 3, seed=1))
        assert corr["mean_pairwise_correlation"] > 0.3
        assert anti["mean_pairwise_correlation"] < -0.1

    def test_one_dimensional(self):
        profile = workload_profile(Dataset([[1.0], [2.0]]))
        assert profile["mean_pairwise_correlation"] == 1.0
        assert profile["skyline_size"] == 1


class TestRendering:
    def test_histogram_rendering(self):
        text = render_histogram(
            {0: {"points": 10, "skyline": 2},
             -1: {"points": 3, "skyline": 0}},
            title="demo",
        )
        assert "demo" in text
        assert "dropped" in text
        assert "group   0" in text

    def test_empty_histogram(self):
        assert "(empty)" in render_histogram({})

    def test_profile_rendering(self):
        profile = dominance_depth_profile(
            Dataset([[0.0, 0.0], [1.0, 1.0]])
        )
        text = render_profile(profile)
        assert "skyline size : 1" in text
        assert "depth" in text

    def test_profile_rendering_truncates(self):
        rng = np.random.default_rng(3)
        ds = Dataset(np.sort(rng.random((60, 1)), axis=0))
        text = render_profile(dominance_depth_profile(ds))
        assert "more depths" in text


class TestAdvisor:
    def test_high_dimensional_gets_parallel_merge(self):
        from repro.pipeline.advisor import advise

        advice = advise(independent(800, 10, seed=1), num_workers=8)
        assert advice.plan.merge_algorithm == "ZMP"
        assert advice.num_groups >= 8
        assert advice.rationale

    def test_single_worker_avoids_zmp(self):
        from repro.pipeline.advisor import advise

        advice = advise(independent(800, 10, seed=1), num_workers=1)
        assert advice.plan.merge_algorithm == "ZM"

    def test_correlated_gets_cheap_local(self):
        from repro.pipeline.advisor import advise

        advice = advise(correlated(800, 4, seed=1))
        assert advice.plan.local_algorithm == "SB"

    def test_default_regime(self):
        from repro.pipeline.advisor import advise

        advice = advise(independent(800, 4, seed=1))
        assert advice.plan.partitioner == "zdg"
        assert advice.plan_string()

    def test_fat_skyline_triggers_merge_focus(self):
        from repro.pipeline.advisor import advise

        advice = advise(anticorrelated(800, 5, seed=1))
        assert advice.plan.merge_algorithm in ("ZM", "ZMP")


class TestSkylinesAgreeWithOracle:
    """Each analysis function computes its skylines with
    ``dominance_counts``; its output must equal what it gives when
    every skyline comes from the per-point oracle instead."""

    @staticmethod
    def grid(seed):
        # Tie-heavy: values in {0..3}, plus exact duplicate rows.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 4, size=(240, 3)).astype(np.float64)
        return np.vstack([rows, rows[rng.integers(0, 240, size=60)]])

    @staticmethod
    def oracle_counts(points, dominators=None):
        from repro.core.skyline import skyline_indices_oracle

        assert dominators is None
        counts = np.ones(np.asarray(points).shape[0], dtype=np.int64)
        counts[skyline_indices_oracle(points)] = 0
        return counts

    def outputs(self, points):
        from repro.analysis import ascii_scatter
        from repro.analysis.cardinality import (
            capture_recapture_estimate,
            sample_scaling_estimate,
        )

        ds = Dataset(points)
        snapped, codec = quantize_dataset(ds, bits_per_dim=4)
        sample = reservoir_sample(snapped, ratio=0.2, seed=0)
        rule = get_partitioner("zdg").fit(sample, codec, 4)
        return (
            skyline_partition_histogram(snapped, rule, codec),
            workload_profile(ds),
            ascii_scatter(points, width=20, height=8, dims=(0, 2)),
            sample_scaling_estimate(ds, sample_ratio=0.3, seed=2),
            capture_recapture_estimate(ds, sample_ratio=0.4, seed=2),
        )

    def test_outputs_match_oracle_skylines(self, monkeypatch):
        from repro.analysis import cardinality, distribution, plots

        for seed in range(4):
            points = self.grid(seed)
            got = self.outputs(points)
            with monkeypatch.context() as patch:
                for module in (cardinality, distribution, plots):
                    patch.setattr(
                        module, "dominance_counts", self.oracle_counts
                    )
                want = self.outputs(points)
            assert got == want
