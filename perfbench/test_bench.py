"""Tests for the benchmark's own arithmetic and tracing.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import oracle
from perfbench.common import Outcome
from perfbench.pace import NOMINAL_S, Pace, python_skyline
from perfbench.stats import (MIN_BEYOND, MISS, beyond, median_per_op,
                             percentile, rank, spread)
from perfbench.trace import Patches, Span, Tracer, covered, self_times


# ----------------------------------------------------------------------
# percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_nearest_rank_uses_integer_arithmetic():
    # 0.99 * 1000 is 990.0000000000001 in floating point; a float ceiling
    # would pick rank 991 and leave only 9 samples beyond p99.
    assert rank(1000, 99) == 990
    assert beyond(1000, 99) == 10
    assert rank(100, 50) == 50
    assert rank(101, 50) == 51
    assert rank(1, 99) == 1
    assert rank(7, 100) == 7


def test_percentile_returns_an_observed_sample():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 90) == 5.0
    assert percentile(samples, 20) == 1.0


def test_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        rank(0, 50)
    with pytest.raises(ValueError):
        rank(10, 0)


@pytest.mark.parametrize("n, q, supported", [
    (1000, 99, True),    # exactly 10 beyond
    (999, 99, False),    # 9 beyond
    (100, 90, True),
    (99, 90, False),
    (20, 50, True),
    (19, 50, False),
])
def test_named_percentile_flags_fewer_than_ten_beyond(n, q, supported):
    outcome = Outcome()
    outcome.name("lat", [float(i) for i in range(n)], q, "ms")
    entry = outcome.named["lat"]
    assert entry["samples"] == n
    assert entry["beyond"] == beyond(n, q)
    assert entry["supported"] is supported
    assert (entry["beyond"] >= MIN_BEYOND) is supported


def test_named_percentile_without_samples():
    outcome = Outcome()
    assert outcome.name("lat", [], 50, "ms") is None
    assert outcome.named["lat"]["samples"] == 0
    assert outcome.named["lat"]["supported"] is False


# ----------------------------------------------------------------------
# failures are misses
# ----------------------------------------------------------------------
def test_misses_sort_last_and_own_the_tail():
    samples = [1.0, 2.0, 3.0, MISS, MISS]
    assert percentile(samples, 99) == MISS
    assert percentile(samples, 50) == 3.0


def test_failing_slow_requests_cannot_improve_the_tail():
    served = [1.0] * 95 + [100.0] * 5
    # The same traffic where the 5 slow requests fail instead.
    failing = [1.0] * 95 + [MISS] * 5
    assert percentile(failing, 99) >= percentile(served, 99)
    assert percentile(failing, 50) == percentile(served, 50)


class _RefusingService:
    """Answers nothing: every request is refused."""

    def query(self, request):
        raise RuntimeError("refused")

    def mutate(self, request):
        raise RuntimeError("refused")


def test_serving_loop_records_a_refused_request_as_a_miss():
    from perfbench import serving

    points = np.random.default_rng(1).integers(0, 64, size=(50, serving.D))
    stream = serving.OpStream(1, np.arange(50), points, decks=1)
    outcome = Outcome()
    samples = serving.Samples()
    serving._drive(_RefusingService(), stream, outcome, samples, Pace())
    assert outcome.attempted == 44 and outcome.failed == 44
    assert outcome.failures == {"RuntimeError": 44}
    assert [label for label, _ in stream.ops].count("insert") == 2
    assert all(value == MISS for value in samples.times)


def test_serving_round_deals_the_mix_and_heavy_parameters_exactly():
    from perfbench import serving

    points = np.random.default_rng(3).integers(0, 64, size=(50, serving.D))
    stream = serving.OpStream(7, np.arange(50), points)
    labels = [label for label, _ in stream.ops]
    reads = [label for label in labels if label not in serving.WRITES]
    assert len(reads) == 80 and len(labels) == 88
    assert sorted(reads) == sorted(serving.READ_DECK * serving.ROUND_DECKS)
    assert all(label in serving.WRITES
               for label in labels[serving.READS_PER_WRITE::11])
    ks = [request.k for label, request in stream.ops
          if label == "kdominant"]
    sizes = [len(request.dims) for label, request in stream.ops
             if label == "subspace"]
    dims = [tuple(request.dims) for label, request in stream.ops
            if label == "subspace"]
    assert sorted(ks) == [2, 3, 4, 5]
    assert sorted(sizes) == [2] * 4 + [3] * 4 + [4] * 4
    assert len(set(dims)) == len(dims)
    sums = sorted(request.k for label, request in stream.ops
                  if label == "topk:sum")
    assert sums == [1, 3, 5, 6, 8, 10]
    # every delete takes exactly one point of the then-current skyline
    alive = {int(i): row for i, row in enumerate(points)}
    for label, request in stream.ops:
        if label == "insert":
            alive.update(zip(request.ids.tolist(), request.points))
        elif label == "delete":
            ids = np.array(sorted(alive))
            sky = set(oracle.skyline_ids(np.array([alive[i] for i in ids]),
                                         ids).tolist())
            assert len(sky & set(request.ids.tolist())) == 1
            for i in request.ids.tolist():
                del alive[i]


def test_serving_round_is_the_same_in_every_process():
    # set iteration order changes with PYTHONHASHSEED; the round must not
    script = (
        "import numpy as np; from perfbench import serving\n"
        "s = serving.OpStream(4, np.arange(50), np.random.default_rng(1)"
        ".integers(0, 64, size=(50, serving.D)))\n"
        "print([(l, getattr(r, 'k', None), getattr(r, 'dims', None)) "
        "for l, r in s.ops])\n")
    root = Path(__file__).resolve().parent.parent
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"),
                                               str(root)]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]


def test_median_per_op_takes_each_operations_median_round():
    rounds = [[3.0, 1.0, 2.0], [1.0, 4.0, 2.5], [2.0, 2.0, 9.0]]
    assert median_per_op(rounds) == [2.0, 2.0, 2.5]
    # a miss in any round stays a miss
    assert median_per_op([[1.0, MISS], [2.0, 1.0]]) == [1.5, MISS]
    with pytest.raises(ValueError):
        median_per_op([[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        median_per_op([])


def test_pace_scales_by_the_reference_time_at_each_operation():
    pace = Pace()
    pace.at = [0.0, 10.0]
    pace.reference = [NOMINAL_S, 2 * NOMINAL_S]
    # at the start the host runs at its nominal pace; halfway through,
    # the kernel takes 1.5x as long, so a time reads 1/1.5 of itself
    got = pace.scaled([0.0, 4.0, 20.0], [0.0, 2.0, 1.0])
    assert got[0] == 0.0
    assert got[1] == pytest.approx(2.0 / 1.5)
    assert got[2] == pytest.approx(0.5)
    assert pace.scaled([1.0], [MISS]) == [MISS]


def test_python_skyline_matches_the_numpy_oracle():
    rows = np.random.default_rng(5).integers(0, 32, size=(200, 4))
    got = sorted(python_skyline([tuple(int(x) for x in r) for r in rows]))
    ids = oracle.skyline_ids(rows.astype(np.float64), np.arange(200))
    # the oracle keeps every copy of a duplicated skyline point, the
    # Python skyline one
    assert got == sorted({tuple(int(x) for x in rows[i]) for i in ids})


def test_pace_ticks_at_most_every_interval_unless_forced():
    pace = Pace(every=60.0)
    pace.tick()
    pace.tick()
    assert len(pace.reference) == 1
    pace.tick(force=True)
    assert len(pace.reference) == 2 and min(pace.reference) > 0


def test_play_rounds_stops_within_the_time_and_plays_the_minimum():
    from perfbench.common import play_rounds

    assert play_rounds(0.0, lambda i: i, minimum=3) == [0, 1, 2]
    played = play_rounds(0.05, lambda i: time.sleep(0.01) or i, minimum=1)
    assert 2 <= len(played) <= 5


def test_outcome_counts_failures_by_class():
    outcome = Outcome()
    outcome.fail(TimeoutError("late"))
    outcome.fail(TimeoutError("late"))
    outcome.fail(ValueError("bad"))
    assert outcome.failed == 3
    assert outcome.failures == {"TimeoutError": 2, "ValueError": 1}


def test_outcome_is_correct_only_when_every_check_passes():
    outcome = Outcome()
    assert not outcome.correct  # no check ran
    outcome.check("a", True)
    assert outcome.correct
    outcome.check("b", False)
    assert not outcome.correct


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 9.5, 10.5, 10.0, 10.0, 10.0]
    assert 0.0 < spread(values) < 0.1


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(sid, parent, start, end, name="x"):
    span = Span(sid, parent, name, 0, start)
    span.end = end
    return span


def test_covered_merges_overlapping_children_and_clips():
    assert covered((0, 10), []) == 0.0
    assert covered((0, 10), [(2, 5)]) == 3.0
    assert covered((0, 10), [(1, 4), (2, 6)]) == 5.0
    assert covered((0, 10), [(1, 4), (2, 6), (8, 12)]) == 7.0
    assert covered((0, 10), [(-5, -1), (11, 12)]) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 2.0, 5.0),
        _span(3, 2, 3.0, 4.0),   # grandchild: counts against 2, not 1
        _span(4, 1, 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_with_concurrent_children():
    # A scatter: four sub-queries in flight at once under one parent.
    spans = [_span(1, None, 0.0, 10.0)] + [
        _span(2 + i, 1, 1.0 + i * 0.5, 6.0 + i * 0.5) for i in range(4)
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (7.5 - 1.0))
    assert sum(own.values()) > 10.0  # children overlap each other


def test_self_time_never_negative_when_children_outlive_parent():
    spans = [_span(1, None, 0.0, 2.0), _span(2, 1, 1.0, 5.0)]
    assert self_times(spans)[1] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# tracer and patches
# ----------------------------------------------------------------------
def test_tracer_parents_are_per_thread():
    tracer = Tracer()
    outer = tracer.open("outer")
    seen = {}

    def worker():
        span = tracer.open("worker")
        seen["parent"] = span.parent
        tracer.close(span)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert seen["parent"] is None
    assert inner.parent == outer.sid
    assert tracer.current() is None


def test_span_finished_by_another_thread():
    tracer = Tracer()
    root = tracer.open("root")
    pending = tracer.open("async", push=False)
    assert tracer.current() is root
    thread = threading.Thread(target=tracer.close, args=(pending,),
                              kwargs={"pop": False})
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(root)
    assert pending.end is not None and pending.parent == root.sid
    assert tracer.current() is None


def test_generator_span_lasts_until_exhausted():
    tracer = Tracer()

    def produce():
        yield 1
        yield 2

    wrapped = tracer.wrap(produce, "gen")
    iterator = wrapped()
    assert not tracer.spans  # nothing ran yet
    assert list(iterator) == [1, 2]
    assert [s.name for s in tracer.finished()] == ["gen"]


def test_patches_install_and_restore():
    module = types.ModuleType("perfbench_fake_module")

    def twice(x):
        return 2 * x

    class Box:
        @classmethod
        def make(cls, x):
            return cls, x

        def get(self, x):
            return x + 1

    module.twice = twice
    module.Box = Box
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        patches = Patches(tracer)
        patches.install("perfbench_fake_module:twice", "f.twice")
        patches.install("perfbench_fake_module:Box.make", "f.make")
        patches.install("perfbench_fake_module:Box.get", "f.get")
        assert module.twice(3) == 6
        assert Box.make(1) == (Box, 1)
        assert Box().get(1) == 2
        assert [s.name for s in tracer.finished()] == [
            "f.twice", "f.make", "f.get"]
        patches.restore()
        assert module.twice is twice
        assert isinstance(Box.__dict__["make"], classmethod)
        module.twice(1)
        assert len(tracer.spans) == 3
    finally:
        del sys.modules[module.__name__]


# ----------------------------------------------------------------------
# oracles against the simplest possible definitions
# ----------------------------------------------------------------------
def _naive_dominates(q, p):
    return bool(np.all(q <= p) and np.any(q < p))


def test_skyline_oracle_matches_pairwise_definition():
    rng = np.random.default_rng(5)
    points = rng.integers(0, 6, size=(300, 3)).astype(np.float64)
    ids = np.arange(300) + 1000
    want = [int(ids[i]) for i, p in enumerate(points)
            if not any(_naive_dominates(q, p) for q in points)]
    assert oracle.skyline_ids(points, ids).tolist() == sorted(want)


def test_kdominant_oracle_matches_pairwise_definition():
    rng = np.random.default_rng(6)
    points = rng.integers(0, 8, size=(120, 4)).astype(np.float64)
    ids = np.arange(120)
    for k in (2, 3, 4):
        want = [i for i, p in enumerate(points) if not any(
            np.sum(q <= p) >= k and np.any(q < p) for q in points)]
        assert oracle.kdominant_ids(points, ids, k).tolist() == want
