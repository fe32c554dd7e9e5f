"""Property-based tests for the query extensions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.point import dominates
from repro.core.skyline import skyline_indices_oracle
from repro.extensions import (
    dominance_scores,
    k_dominant_skyline,
    k_dominates,
    rank_skyline,
    subspace_skyline,
    top_k_skyline,
    why_not,
)
from repro.serving import DatasetRegistry, Query
from repro.serving.service import execute_on_snapshot
from repro.zorder.zbtree import OpCounter
from tests import extension_oracles as oracle


@st.composite
def grid_points(draw, max_points=40, max_dims=4, top=8):
    d = draw(st.integers(min_value=1, max_value=max_dims))
    n = draw(st.integers(min_value=1, max_value=max_points))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=top - 1),
                min_size=d, max_size=d,
            ),
            min_size=n, max_size=n,
        )
    )
    return np.asarray(rows, dtype=float)


@given(grid_points(), st.data())
@settings(max_examples=60, deadline=None)
def test_k_dominant_is_subset_of_skyline(points, data):
    d = points.shape[1]
    k = data.draw(st.integers(min_value=1, max_value=d))
    kd_pts, kd_ids = k_dominant_skyline(points, k)
    sky = set(skyline_indices_oracle(points).tolist())
    # k-dominance is a *stronger* pruning: its survivors are regular
    # skyline members too.
    assert set(kd_ids.tolist()) <= sky


@given(grid_points())
@settings(max_examples=60, deadline=None)
def test_k_equals_d_matches_oracle(points):
    d = points.shape[1]
    _, ids = k_dominant_skyline(points, d)
    assert ids.tolist() == skyline_indices_oracle(points).tolist()


@given(grid_points(max_dims=3), st.data())
@settings(max_examples=60, deadline=None)
def test_k_dominates_pairwise_consistency(points, data):
    d = points.shape[1]
    k = data.draw(st.integers(min_value=1, max_value=d))
    i = data.draw(st.integers(0, points.shape[0] - 1))
    j = data.draw(st.integers(0, points.shape[0] - 1))
    if i == j:
        return
    p, q = points[i], points[j]
    # Regular dominance implies k-dominance for every k <= d.
    if dominates(p, q):
        assert k_dominates(p, q, k)


@given(grid_points(max_dims=4), st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_skyline_superset_property(points, data):
    d = points.shape[1]
    if d < 2:
        return
    size = data.draw(st.integers(min_value=1, max_value=d - 1))
    dims = sorted(
        data.draw(
            st.lists(
                st.integers(0, d - 1), min_size=size, max_size=size,
                unique=True,
            )
        )
    )
    _, sub_ids = subspace_skyline(points, dims)
    # Subspace skyline members are never dominated *in the subspace*.
    proj = points[:, dims]
    sub_sky = set(skyline_indices_oracle(proj).tolist())
    assert set(sub_ids.tolist()) == sub_sky


@given(grid_points())
@settings(max_examples=60, deadline=None)
def test_why_not_consistent_with_oracle(points):
    sky = set(skyline_indices_oracle(points).tolist())
    for i in range(min(points.shape[0], 5)):
        explanation = why_not(points[i], points)
        assert explanation.is_skyline_member == (i in sky)
        if not explanation.is_skyline_member:
            # Every reported dominator genuinely dominates.
            for dom in explanation.dominator_points:
                assert dominates(dom, points[i])


# ----------------------------------------------------------------------
# every kernel against the all-pairs oracle on tie-heavy grids
# ----------------------------------------------------------------------
@st.composite
def tie_heavy(draw, min_rows=0):
    """Rows over {0, 1, 2} with repeated rows and zeros of both signs,
    under distinct shuffled ids."""
    d = draw(st.integers(min_value=1, max_value=5))
    cells = st.integers(min_value=0, max_value=2)
    rows = draw(st.lists(
        st.lists(cells, min_size=d, max_size=d),
        min_size=min_rows, max_size=24,
    ))
    if rows:
        rows += [rows[i] for i in draw(st.lists(
            st.integers(min_value=0, max_value=len(rows) - 1), max_size=8
        ))]
    points = np.asarray(rows, dtype=float).reshape(-1, d)
    negative = draw(st.lists(
        st.booleans(), min_size=points.size, max_size=points.size
    ))
    negative = np.asarray(negative, dtype=bool).reshape(points.shape)
    points[(points == 0) & negative] = -0.0
    ids = np.asarray(
        draw(st.permutations(range(100, 100 + points.shape[0]))),
        dtype=np.int64,
    )
    return points, ids


def _rows_of(points, ids, wanted):
    """The rows of ``wanted`` ids, in ``wanted`` order."""
    row = {int(i): r for r, i in enumerate(ids)}
    return points[[row[int(i)] for i in wanted]].reshape(-1, points.shape[1])


def _same_rows(got_points, got_ids, points, ids, want_ids):
    """Same ids, and bit-identical rows (``-0.0`` keeps its sign)."""
    order = np.argsort(got_ids, kind="stable")
    np.testing.assert_array_equal(got_ids[order], want_ids)
    assert (
        got_points[order].tobytes()
        == _rows_of(points, ids, want_ids).tobytes()
    )


@given(tie_heavy(), st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_equal_all_pairs_oracle(case, data):
    points, ids = case
    n, d = points.shape
    on_sky = np.isin(ids, oracle.skyline_ids(points, ids))
    # candidates: the skyline plus any other rows
    cand = on_sky | np.asarray(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool
    )
    for k in range(1, d + 1):
        want = oracle.k_dominant_ids(points, ids, k)
        for rows in (np.ones(n, dtype=bool), cand, on_sky):
            counter = OpCounter()
            got_pts, got_ids = k_dominant_skyline(
                points[rows], k, ids=ids[rows], counter=counter
            )
            _same_rows(got_pts, got_ids, points, ids, want)
            assert counter.point_tests == int(rows.sum()) ** 2
    dims = data.draw(st.lists(
        st.integers(min_value=0, max_value=d - 1),
        min_size=1, max_size=d, unique=True,
    ))
    want = oracle.subspace_ids(points, ids, dims)
    for candidates in (None, points[cand], points[on_sky]):
        got_pts, got_ids = subspace_skyline(
            points, dims, ids=ids, candidates=candidates
        )
        _same_rows(got_pts, got_ids, points, ids, want)
    sky_ids = ids[on_sky][np.argsort(ids[on_sky])]
    sky = _rows_of(points, ids, sky_ids)
    counts = oracle.dominance_counts(sky, points)
    np.testing.assert_array_equal(dominance_scores(sky, points), counts)
    _, ranked_ids, scores = rank_skyline(sky, sky_ids, points)
    order = np.argsort(-counts, kind="stable")
    np.testing.assert_array_equal(ranked_ids, sky_ids[order])
    np.testing.assert_array_equal(scores, counts[order])
    k = data.draw(st.integers(min_value=1, max_value=sky.shape[0] + 1))
    _, top_ids = top_k_skyline(sky, sky_ids, points, k)
    np.testing.assert_array_equal(
        top_ids, sky_ids[oracle.greedy_cover(sky, points, k)].reshape(-1)
    )


@given(tie_heavy(min_rows=1), st.data())
@settings(max_examples=60, deadline=None)
def test_executors_equal_all_pairs_oracle(case, data):
    points, ids = case
    d = points.shape[1]
    registry = DatasetRegistry()
    registry.register("p", points, ids=ids)
    snap = registry.snapshot("p")
    for k in range(1, d + 1):
        got = execute_on_snapshot(Query.kdominant("p", k), snap)
        _same_rows(got.points, got.ids, points, ids,
                   oracle.k_dominant_ids(points, ids, k))
    dims = data.draw(st.lists(
        st.integers(min_value=0, max_value=d - 1),
        min_size=1, max_size=d, unique=True,
    ))
    got = execute_on_snapshot(Query.subspace("p", dims), snap)
    _same_rows(got.points, got.ids, points, ids,
               oracle.subspace_ids(points, ids, dims))
    sky_ids = oracle.skyline_ids(points, ids)
    sky = _rows_of(points, ids, sky_ids)
    k = data.draw(st.integers(min_value=1, max_value=sky.shape[0] + 1))
    counts = oracle.dominance_counts(sky, points)
    order = np.argsort(-counts, kind="stable")[:k]
    picks = oracle.greedy_cover(sky, points, k)
    for method, want_ids, want_scores in (
        ("dominance", sky_ids[order], counts[order].astype(float)),
        ("representative", sky_ids[picks], None),
    ):
        got = execute_on_snapshot(Query.topk("p", k, method=method), snap)
        np.testing.assert_array_equal(got.ids, want_ids)
        assert (
            got.points.tobytes() == _rows_of(points, ids, want_ids).tobytes()
        )
        if want_scores is None:
            assert got.scores is None
        else:
            np.testing.assert_array_equal(got.scores, want_scores)
