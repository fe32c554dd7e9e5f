"""Perf smoke for the serving layer (``repro.serving``).

Three guarded measurements, written to ``BENCH_serving.json``:

* **cache speedup** — a repeated-query read workload against the same
  snapshot must run at least **5x** faster with the version-keyed
  result cache than with caching disabled (identical answers, checked
  bit-for-bit before the timing means anything);
* **admission control** — under a read flood with one worker, p99
  queue wait with a bounded queue must stay far below the
  unbounded-queue control run (shed-fast beats wait-forever);
* **query kernels** — at n=2,500, d=5, each extension kernel, called
  the way the service's executor calls it (from the snapshot's
  maintained skyline), must match the all-pairs oracle of
  ``tests/extension_oracles.py`` and run at least **10x** faster than
  it, and the uncached ``kdominant`` read p50 through the service must
  stay at or below **50 ms**.  The uncached p50 of every query kind is
  recorded alongside.

Absolute seconds are host-dependent; the first three guards are
self-relative ratios measured on the same host in the same process,
the ``kdominant`` p50 is an absolute bound.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import Future
from typing import Dict, List

import numpy as np

from repro.core.exceptions import OverloadedError
from repro.extensions import (
    dominance_scores,
    k_dominant_skyline,
    subspace_skyline,
    top_k_skyline,
)
from repro.serving import (
    AdmissionConfig,
    DatasetRegistry,
    Query,
    ServiceConfig,
    SkylineService,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the all-pairs oracles live in the tier-1 suite's package
sys.path.insert(0, REPO_ROOT)
from tests import extension_oracles as oracle  # noqa: E402
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_serving.json")

#: minimum cached-vs-uncached read throughput ratio
MIN_CACHE_SPEEDUP = 5.0
#: bounded p99 queue wait must be at most this fraction of unbounded
MAX_BOUNDED_WAIT_FRACTION = 1.0 / 3.0
#: minimum oracle-vs-kernel time ratio for each extension kernel
MIN_KERNEL_SPEEDUP = 10.0
#: uncached kdominant read p50 bound (ms) at n=2,500, d=5
MAX_KDOMINANT_P50_MS = 50.0


def _read_recorded() -> Dict:
    if not os.path.exists(BENCH_PATH):
        return {}
    with open(BENCH_PATH, "r") as handle:
        return json.load(handle)


def _update_bench(section: str, payload: Dict) -> None:
    recorded = _read_recorded()
    recorded[section] = payload
    with open(BENCH_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _registry(n: int = 2500, d: int = 5, seed: int = 21) -> DatasetRegistry:
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 256, size=(n, d)).astype(np.float64)
    registry = DatasetRegistry()
    registry.register("bench", points)
    return registry


#: the repeated-query rotation (what a dashboard refresh looks like)
QUERY_POOL = (
    Query.full("bench"),
    Query.subspace("bench", [0, 1, 2]),
    Query.subspace("bench", [1, 3]),
    Query.kdominant("bench", 4),
    Query.topk("bench", 8, method="sum"),
    Query.topk("bench", 4, method="dominance"),
)


class TestCacheSpeedup:
    def test_version_keyed_cache_delivers_5x_reads(self):
        rounds = 30
        registry = _registry()

        def run_reads(cache_entries: int):
            config = ServiceConfig(cache_entries=cache_entries)
            with SkylineService(registry, config=config) as service:
                # Warm both variants identically (first round pays the
                # compute either way; the cached variant then hits).
                answers = [service.query(q) for q in QUERY_POOL]
                start = time.perf_counter()
                for _ in range(rounds):
                    for query in QUERY_POOL:
                        service.query(query)
                elapsed = time.perf_counter() - start
            return answers, elapsed

        cached_answers, cached_s = run_reads(cache_entries=256)
        uncached_answers, uncached_s = run_reads(cache_entries=0)

        # Identical answers first — a fast wrong cache is worthless.
        for warm, cold in zip(cached_answers, uncached_answers):
            assert np.array_equal(warm.ids, cold.ids)
            assert np.array_equal(warm.points, cold.points)

        reads = rounds * len(QUERY_POOL)
        speedup = uncached_s / cached_s
        payload = {
            "reads": reads,
            "distinct_queries": len(QUERY_POOL),
            "cached_seconds": round(cached_s, 4),
            "uncached_seconds": round(uncached_s, 4),
            "cached_reads_per_s": round(reads / cached_s),
            "uncached_reads_per_s": round(reads / uncached_s),
            "speedup": round(speedup, 2),
        }
        _update_bench("cache_speedup", payload)
        assert speedup >= MIN_CACHE_SPEEDUP, (
            f"cache delivers only {speedup:.2f}x read throughput "
            f"(need >= {MIN_CACHE_SPEEDUP}x)"
        )


class TestAdmissionControl:
    def _flood(self, max_read_queue: int, flood: int):
        """Submit a read flood against one slow worker; return the
        queue waits of completed requests + the shed count."""
        registry = _registry(n=1500)
        config = ServiceConfig(
            admission=AdmissionConfig(
                read_concurrency=1, max_read_queue=max_read_queue
            ),
            cache_entries=0,  # every request pays full compute
        )
        waits: List[float] = []
        shed = 0
        with SkylineService(registry, config=config) as service:
            futures: List[Future] = []
            for _ in range(flood):
                try:
                    futures.append(
                        service.submit(Query.kdominant("bench", 4))
                    )
                except OverloadedError:
                    shed += 1
            for future in futures:
                waits.append(future.result().queue_wait_seconds)
        return waits, shed

    def test_bounded_queue_bounds_p99_wait(self):
        flood = 150
        bounded_waits, bounded_shed = self._flood(
            max_read_queue=8, flood=flood
        )
        unbounded_waits, unbounded_shed = self._flood(
            max_read_queue=10**9, flood=flood
        )
        assert unbounded_shed == 0  # the control run queues everything
        assert bounded_shed > 0  # admission control actually shed load

        bounded_p99 = float(np.percentile(bounded_waits, 99))
        unbounded_p99 = float(np.percentile(unbounded_waits, 99))
        payload = {
            "flood_requests": flood,
            "bounded": {
                "max_read_queue": 8,
                "completed": len(bounded_waits),
                "shed": bounded_shed,
                "p50_wait_s": round(
                    float(np.percentile(bounded_waits, 50)), 4
                ),
                "p99_wait_s": round(bounded_p99, 4),
            },
            "unbounded_control": {
                "completed": len(unbounded_waits),
                "shed": unbounded_shed,
                "p50_wait_s": round(
                    float(np.percentile(unbounded_waits, 50)), 4
                ),
                "p99_wait_s": round(unbounded_p99, 4),
            },
            "p99_ratio": round(bounded_p99 / unbounded_p99, 4),
        }
        _update_bench("admission_control", payload)
        assert bounded_p99 <= unbounded_p99 * MAX_BOUNDED_WAIT_FRACTION, (
            f"bounded p99 wait {bounded_p99:.4f}s is not well below the "
            f"unbounded control's {unbounded_p99:.4f}s"
        )


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestQueryKernels:
    def test_kernels_beat_the_all_pairs_oracle_10x(self):
        snap = _registry().snapshot("bench")
        points, ids = snap.points, snap.ids
        order = np.argsort(snap.sky_ids, kind="stable")
        sky, sky_ids = snap.sky_points[order], snap.sky_ids[order]
        dims = [1, 3, 4]
        # (name, kernel as the executor calls it, oracle, same-answer test)
        cases = [
            ("kdominant",
             lambda: k_dominant_skyline(sky, 4, ids=sky_ids)[1],
             lambda: oracle.k_dominant_ids(points, ids, 4),
             lambda got, want: np.array_equal(np.sort(got), want)),
            ("subspace",
             lambda: subspace_skyline(points, dims, ids=ids,
                                      candidates=sky)[1],
             lambda: oracle.subspace_ids(points, ids, dims),
             lambda got, want: np.array_equal(np.sort(got), want)),
            ("dominance_scores",
             lambda: dominance_scores(sky, points),
             lambda: oracle.dominance_counts(sky, points),
             np.array_equal),
            ("representative_top_k",
             lambda: top_k_skyline(sky, sky_ids, points, 8)[1],
             lambda: sky_ids[oracle.greedy_cover(sky, points, 8)],
             np.array_equal),
        ]
        payload: Dict[str, Dict] = {}
        for name, kernel, brute, same in cases:
            # Identical answers first — a fast wrong kernel is worthless.
            assert same(kernel(), brute()), name
            kernel_s = _best_of(kernel, repeats=20)
            oracle_s = _best_of(brute, repeats=3)
            payload[name] = {
                "kernel_ms": round(kernel_s * 1e3, 3),
                "oracle_ms": round(oracle_s * 1e3, 1),
                "speedup": round(oracle_s / kernel_s, 1),
            }

        kinds = {
            "full": Query.full("bench"),
            "subspace": Query.subspace("bench", dims),
            "kdominant": Query.kdominant("bench", 4),
            "topk_sum": Query.topk("bench", 8, method="sum"),
            "topk_weighted": Query.topk(
                "bench", 8, method="weighted", weights=[1.0, 2.0, 1.0, 2.0, 1.0]
            ),
            "topk_dominance": Query.topk("bench", 8, method="dominance"),
            "topk_representative": Query.topk(
                "bench", 8, method="representative"
            ),
            "explain": Query.explain("bench", point=[128.0] * 5),
        }
        p50_ms: Dict[str, float] = {}
        config = ServiceConfig(cache_entries=0)
        with SkylineService(_registry(), config=config) as service:
            for kind, query in kinds.items():
                samples = []
                for _ in range(21):
                    start = time.perf_counter()
                    service.query(query)
                    samples.append(time.perf_counter() - start)
                p50_ms[kind] = round(float(np.median(samples)) * 1e3, 3)
        _update_bench("query_kernels", {
            "n": int(points.shape[0]),
            "d": int(points.shape[1]),
            "skyline": int(sky.shape[0]),
            "kernels": payload,
            "uncached_p50_ms": p50_ms,
        })
        for name, row in payload.items():
            assert row["speedup"] >= MIN_KERNEL_SPEEDUP, (
                f"{name} runs only {row['speedup']}x faster than the "
                f"all-pairs oracle (need >= {MIN_KERNEL_SPEEDUP}x)"
            )
        assert p50_ms["kdominant"] <= MAX_KDOMINANT_P50_MS, (
            f"uncached kdominant p50 {p50_ms['kdominant']} ms exceeds "
            f"{MAX_KDOMINANT_P50_MS} ms"
        )
