"""Skyline cardinality estimation.

Knowing |S| in advance sizes the grouping constraints (the paper's
``scons = |S|/M`` uses the *sample* skyline as the estimator and notes
the difficulty: "the number of skyline points |S| cannot be accurately
estimated").  This module collects the standard estimators so that
choice can be studied:

* the **independence formula** — for d independent continuous
  dimensions, ``E|S| = H(d-1, n)``, the generalized harmonic number,
  i.e. roughly ``(ln n)^(d-1) / (d-1)!``;
* **sample scaling** — compute the sample skyline and scale by the
  power law the independence model implies;
* **capture–recapture** over two disjoint samples.
"""

from __future__ import annotations

import math
import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import DatasetError
from repro.core.point import dominance_counts
from repro.partitioning.sampling import reservoir_sample_indices


def expected_skyline_size_exact(n: int, dimensions: int) -> float:
    """Exact E|S| for i.i.d. continuous independent dimensions.

    Uses the classic recurrence (Bentley et al. / Godfrey):
    ``S(n, 1) = 1`` and ``S(n, d) = S(n-1, d) + S(n, d-1) / n``.
    O(n * d) time, O(n) space — use for sizing decisions up to a few
    million; :func:`harmonic_estimate` is the O(1) approximation.
    """
    if n <= 0 or dimensions <= 0:
        raise DatasetError("n and dimensions must be positive")
    # S(i, 1) = 1 for all i.
    previous = np.ones(n + 1)
    previous[0] = 0.0
    for _d in range(2, dimensions + 1):
        current = np.empty(n + 1)
        current[0] = 0.0
        running = 0.0
        for i in range(1, n + 1):
            running += previous[i] / i
            current[i] = running
        previous = current
    return float(previous[n])


def harmonic_estimate(n: int, dimensions: int) -> float:
    """Expected skyline size under fully independent dimensions.

    Uses the recurrence ``S(n, 1) = 1`` and
    ``S(n, d) = S(n-1, d) + S(n, d-1) / n`` evaluated via the standard
    log-power approximation ``(ln n)^(d-1) / (d-1)!`` (exact enough for
    sizing decisions; the exact recurrence is O(n·d)).
    """
    if n <= 0 or dimensions <= 0:
        raise DatasetError("n and dimensions must be positive")
    if n == 1:
        return 1.0
    d = dimensions
    return min(
        float(n), (math.log(n) ** (d - 1)) / math.factorial(d - 1)
    )


def sample_scaling_estimate(
    dataset: Dataset, sample_ratio: float = 0.05, seed: int = 0
) -> float:
    """Scale a sample skyline up with the independence power law.

    Under the independence model, ``|S(n)| / |S(m)| ≈
    (ln n / ln m)^(d-1)``; we measure ``|S(m)|`` on a reservoir sample
    of size m and scale.  Exact for the model, a usable upper-ish bound
    for correlated data, an underestimate for anti-correlated data
    (where |S| grows near-linearly).
    """
    if not (0.0 < sample_ratio <= 1.0):
        raise DatasetError("sample_ratio must be in (0, 1]")
    rng = np.random.default_rng(seed)
    m = max(2, int(dataset.size * sample_ratio))
    idx = reservoir_sample_indices(dataset.size, m, rng)
    sample_sky = int((dominance_counts(dataset.points[idx]) == 0).sum())
    if dataset.size <= m:
        return float(sample_sky)
    growth = (
        math.log(dataset.size) / math.log(m)
    ) ** (dataset.dimensions - 1)
    return min(float(dataset.size), sample_sky * growth)


def _skyline_rows(dataset: Dataset, rows: np.ndarray) -> set:
    """The ``rows`` (dataset row indices) on the skyline of their points."""
    on_sky = dominance_counts(dataset.points[rows]) == 0
    return set(rows[on_sky].tolist())


def capture_recapture_estimate(
    dataset: Dataset, sample_ratio: float = 0.05, seed: int = 0
) -> float:
    """Chapman capture–recapture over two disjoint samples.

    Skyline points of the full data appear in a sample's skyline
    whenever sampled; two independent samples' skylines overlap in
    proportion to the true skyline size: ``|S| ≈ (s1+1)(s2+1)/(b+1) - 1``
    where b counts points on both sample skylines *and* the full
    skyline of the union.  Distribution-free, at the price of two
    sample skylines.
    """
    if not (0.0 < sample_ratio <= 0.5):
        raise DatasetError("sample_ratio must be in (0, 0.5]")
    rng = np.random.default_rng(seed)
    m = max(2, int(dataset.size * sample_ratio))
    first = reservoir_sample_indices(dataset.size, 2 * m, rng)
    half_a, half_b = first[:m], first[m : 2 * m]
    sky_a = _skyline_rows(dataset, half_a)
    sky_b = _skyline_rows(dataset, half_b)
    union = np.asarray(sorted(sky_a | sky_b), dtype=np.int64)
    union_sky = _skyline_rows(dataset, union)
    marked_a = sky_a & union_sky
    marked_b = sky_b & union_sky
    both = len(marked_a & marked_b)
    estimate = (
        (len(marked_a) + 1) * (len(marked_b) + 1) / (both + 1)
    ) - 1
    return min(float(dataset.size), max(estimate, 1.0))
