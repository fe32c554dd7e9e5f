"""Skyline distribution statistics (the measurements behind Example 2
and the straggler discussion of §3.3/§4.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.dataset import Dataset
from repro.core.point import dominance_counts
from repro.partitioning.base import PartitionRule
from repro.zorder.encoding import ZGridCodec


def skyline_partition_histogram(
    dataset: Dataset,
    rule: PartitionRule,
    codec: Optional[ZGridCodec] = None,
) -> Dict[int, Dict[str, int]]:
    """Per-group counts of points and skyline points.

    This is Example 2's measurement: the skyline concentrates in a few
    partitions, which is why the naive equal-count split leaves some
    workers with nearly all the skyline work.  Returns
    ``{gid: {"points": ..., "skyline": ...}}`` (dropped points under
    gid -1).
    """
    zaddresses = None
    if codec is not None:
        zaddresses = codec.encode_grid(dataset.points.astype(np.int64))
    gids = rule.assign_groups(dataset.points, dataset.ids, zaddresses)
    on_sky = dominance_counts(dataset.points) == 0
    histogram: Dict[int, Dict[str, int]] = {}
    for position, gid in enumerate(gids):
        bucket = histogram.setdefault(
            int(gid), {"points": 0, "skyline": 0}
        )
        bucket["points"] += 1
        if on_sky[position]:
            bucket["skyline"] += 1
    return histogram


@dataclass
class DominanceDepthProfile:
    """Summary of how deeply points are dominated."""

    skyline_size: int
    max_depth: int
    mean_depth: float
    depth_histogram: Dict[int, int]


def dominance_depth_profile(dataset: Dataset) -> DominanceDepthProfile:
    """How many dominators each point has (depth 0 = skyline).

    Quadratic; intended for analysis-sized samples.  The heavier the
    tail, the more the first MapReduce job can prune (§5.4).
    """
    counts = dominance_counts(dataset.points)
    histogram: Dict[int, int] = {}
    for depth in counts:
        histogram[int(depth)] = histogram.get(int(depth), 0) + 1
    return DominanceDepthProfile(
        skyline_size=int((counts == 0).sum()),
        max_depth=int(counts.max()),
        mean_depth=float(counts.mean()),
        depth_histogram=histogram,
    )


def workload_profile(dataset: Dataset) -> Dict[str, float]:
    """One-line characterisation of a workload.

    ``skyline_fraction`` and ``mean_pairwise_correlation`` place the
    dataset on the correlated <-> anti-correlated spectrum the paper's
    generators span.
    """
    points = dataset.points
    sky_size = int((dominance_counts(points) == 0).sum())
    if dataset.dimensions > 1:
        corr = np.corrcoef(points.T)
        off = corr[~np.eye(dataset.dimensions, dtype=bool)]
        mean_corr = float(np.nanmean(off))
    else:
        mean_corr = 1.0
    return {
        "n": float(dataset.size),
        "d": float(dataset.dimensions),
        "skyline_size": float(sky_size),
        "skyline_fraction": sky_size / dataset.size,
        "mean_pairwise_correlation": mean_corr,
    }
