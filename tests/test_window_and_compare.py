"""Unit tests for the count-window skyline and strategy comparison."""

import numpy as np
import pytest

from repro.core.exceptions import DatasetError, ReproError
from repro.data.synthetic import independent
from repro.pipeline.compare import compare_plans
from repro.streaming import WindowSkyline, WindowSpec
from repro.zorder.encoding import ZGridCodec


@pytest.fixture
def codec() -> ZGridCodec:
    return ZGridCodec.grid_identity(2, bits_per_dim=5)


def _append(window, point, point_id):
    window.extend(np.asarray([point], dtype=float), [point_id])


class TestSlidingWindow:
    def test_window_size_validation(self, codec):
        with pytest.raises(DatasetError):
            WindowSkyline(codec, WindowSpec.count(0))

    def test_fills_up_then_slides(self, codec):
        window = WindowSkyline(codec, WindowSpec.count(3))
        for i in range(5):
            _append(window, [float(i), float(i)], i)
        assert window.size == 3
        assert window.window_ids() == (2, 3, 4)

    def test_skyline_reflects_only_window(self, codec):
        window = WindowSkyline(codec, WindowSpec.count(2))
        _append(window, [0.0, 0.0], 0)    # global best...
        _append(window, [5.0, 4.0], 1)
        _append(window, [4.0, 5.0], 2)    # ...now expired
        points, ids = window.skyline()
        assert 0 not in ids.tolist()
        assert window.skyline_size == 2
        window.verify()

    def test_expired_dominator_resurfaces_shadowed(self, codec):
        window = WindowSkyline(codec, WindowSpec.count(2))
        _append(window, [1.0, 1.0], 0)    # dominates the next point
        _append(window, [2.0, 2.0], 1)
        assert window.skyline_size == 1
        _append(window, [9.0, 9.0], 2)    # expires the dominator
        points, ids = window.skyline()
        assert 1 in ids.tolist()     # shadowed point resurfaces
        window.verify()

    def test_randomized_stream_matches_oracle(self, codec):
        rng = np.random.default_rng(3)
        window = WindowSkyline(codec, WindowSpec.count(25))
        for i in range(120):
            _append(window, rng.integers(0, 32, 2).astype(float), i)
        window.verify()
        assert window.size == 25

    def test_extend(self, codec):
        rng = np.random.default_rng(4)
        window = WindowSkyline(codec, WindowSpec.count(10))
        window.extend(rng.integers(0, 32, (30, 2)).astype(float), np.arange(30))
        assert window.size == 10
        window.verify()


class TestComparePlans:
    def test_all_plans_agree(self):
        ds = independent(1200, 4, seed=5)
        table = compare_plans(
            ds,
            plans=("Grid+ZS", "ZDG+ZS+ZM", "KDTree+ZS", "MR-GPMRS"),
            num_groups=8,
            num_workers=4,
        )
        assert len(table) == 4
        assert len(set(table.column("skyline"))) == 1

    def test_columns_present(self):
        ds = independent(600, 3, seed=6)
        table = compare_plans(
            ds, plans=("ZHG+ZS",), num_groups=4, num_workers=2
        )
        row = table.rows[0]
        for column in ("candidates", "reducer_skew", "makespan_cost"):
            assert row[column] != ""

    def test_disagreement_raises(self, monkeypatch):
        # Force a disagreement by tampering with one report.
        from repro.pipeline import compare as compare_module

        real = compare_module.run_plan_measured
        calls = {"n": 0}

        def crooked(plan, dataset, **kwargs):
            report = real(plan, dataset, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                # Truncate the skyline block to fake a wrong answer.
                report.skyline = report.skyline.select(
                    np.arange(max(report.skyline.size - 1, 0))
                )
            return report

        monkeypatch.setattr(
            compare_module, "run_plan_measured", crooked
        )
        ds = independent(600, 3, seed=7)
        with pytest.raises(ReproError):
            compare_plans(
                ds, plans=("Grid+ZS", "ZHG+ZS"), num_groups=4,
                num_workers=2,
            )

    def test_cli_compare(self, capsys):
        from repro.cli import main

        code = main(
            ["compare", "-n", "600", "-d", "3", "--groups", "4",
             "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Strategy comparison" in out
        assert "MR-GPMRS" in out
