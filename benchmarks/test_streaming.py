"""Perf smoke for the streaming layer (``repro.streaming``).

Two guarded measurements, written to ``BENCH_streaming.json``:

* ``streaming_slo``: a CDC feed sustains **>= 1k records/s** of
  windowed ingest while push-notification latency (publish ->
  subscriber receipt) holds **p99 <= 50ms** and concurrent cached reads
  stay available — the serving SLO the subsystem was built around.
  The diff stream is also re-checked for soundness (replay reconstructs
  the final skyline id-set) so a fast-but-wrong run cannot pass.
* ``write_path``: a 1-row insert+publish on a non-durable registry
  costs **p50 <= 25ms at n=200k** and grows at most **10x** from
  n=10k to n=200k, so the write path's per-batch work stays
  proportional to the batch rather than the dataset.

Absolute numbers are host-dependent; the thresholds are deliberately
loose for CI boxes — local runs land far inside them.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.serving import DatasetRegistry, Query, SkylineService
from repro.streaming import (
    ContinuousQueryManager,
    FeedConfig,
    IngestFeed,
    SubscriptionHub,
    WindowSpec,
    replay,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_streaming.json")

#: sustained windowed ingest floor, records/second
MIN_INGEST_PER_SEC = 1_000.0
#: publish -> notify latency ceiling at p99, seconds
MAX_NOTIFY_P99_SECONDS = 0.050
#: concurrent cached reads must succeed at least this often
MIN_READ_SUCCESS = 0.99

RECORDS = 4_000
BATCH = 64
WINDOW = 2_000
DIMS = 5
BITS = 8

#: 1-row insert+publish p50 ceiling at the large size, seconds
MAX_WRITE_P50_SECONDS = 0.025
#: p50(large) / p50(small) ceiling
MAX_WRITE_GROWTH = 10.0
WRITE_SIZES = (10_000, 200_000)
WRITE_REPS = 15


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


class TestStreamingSLO:
    def test_ingest_throughput_with_p99_notify_latency(self):
        rng = np.random.default_rng(31)
        seed_points = rng.integers(
            0, 2**BITS, size=(1_000, DIMS)
        ).astype(np.float64)
        metrics = MetricsRegistry()
        registry = DatasetRegistry(metrics=metrics, keep_versions=4)
        registry.register("stream", seed_points)
        hub = SubscriptionHub(metrics=metrics).attach(registry)
        manager = ContinuousQueryManager(metrics=metrics).attach(registry)
        manager.register("windowed", "stream", WindowSpec.count(WINDOW))

        stop = threading.Event()
        latencies: List[float] = []
        lock = threading.Lock()

        def consume(sub):
            while True:
                event = sub.get(timeout=0.2)
                if event is None:
                    if stop.is_set() and sub.pending == 0:
                        return
                    continue
                if event.published_at:
                    sample = time.perf_counter() - event.published_at
                    with lock:
                        latencies.append(sample)

        reads = {"ok": 0, "failed": 0, "cached": 0}

        def read_loop(service):
            while not stop.is_set():
                try:
                    result = service.query(Query.full("stream"))
                    reads["ok"] += 1
                    if result.cached:
                        reads["cached"] += 1
                except Exception:
                    reads["failed"] += 1
                time.sleep(0.002)

        with SkylineService(registry, metrics=metrics) as service:
            fast = hub.subscribe("stream")
            slow = hub.subscribe("stream", max_pending=1)
            threads = [
                threading.Thread(target=consume, args=(fast,), daemon=True),
                threading.Thread(
                    target=read_loop, args=(service,), daemon=True
                ),
            ]
            for thread in threads:
                thread.start()
            feed = IngestFeed(
                registry,
                "stream",
                admission=service.admission,
                config=FeedConfig(batch_size=BATCH, on_overload="block"),
                window=WindowSpec.count(WINDOW),
                metrics=metrics,
            )
            stream_rows = rng.integers(
                0, 2**BITS, size=(RECORDS, DIMS)
            ).astype(np.float64)
            started = time.perf_counter()
            for row in stream_rows:
                feed.append(row)
            feed.flush()
            ingest_seconds = time.perf_counter() - started
            stop.set()
            for thread in threads:
                thread.join(10.0)

        # Soundness before speed: the coalescing subscriber's surviving
        # event stream must still reconstruct the final skyline.
        final_sky = frozenset(
            int(i) for i in registry.snapshot("stream").sky_ids
        )
        events = []
        while True:
            event = slow.get(timeout=0.01)
            if event is None:
                break
            events.append(event)
        got, _ = replay(events, slow.start_sky_ids, slow.start_version)
        assert got == final_sky, "coalesced diff replay diverged"

        ingest_rate = RECORDS / ingest_seconds
        with lock:
            samples = sorted(latencies)
        assert samples, "no notifications were observed"
        p50 = samples[int(0.50 * (len(samples) - 1))]
        p99 = samples[int(0.99 * (len(samples) - 1))]
        total_reads = reads["ok"] + reads["failed"]
        read_success = reads["ok"] / total_reads if total_reads else 0.0
        counters = metrics.counters_as_dict().get("streaming", {})

        payload = {
            "records": RECORDS,
            "batch_size": BATCH,
            "window": WINDOW,
            "ingest_seconds": round(ingest_seconds, 4),
            "ingest_records_per_sec": round(ingest_rate, 1),
            "notify_p50_ms": round(p50 * 1e3, 3),
            "notify_p99_ms": round(p99 * 1e3, 3),
            "notifications": len(samples),
            "diffs_published": counters.get("diffs_published", 0),
            "diffs_coalesced": counters.get("diffs_coalesced", 0),
            "concurrent_reads": total_reads,
            "concurrent_read_success": round(read_success, 4),
            "concurrent_reads_cached": reads["cached"],
            "expired_records": feed.records_expired,
            "replay_sound": True,
            "min_ingest_per_sec": MIN_INGEST_PER_SEC,
            "max_notify_p99_ms": MAX_NOTIFY_P99_SECONDS * 1e3,
        }
        _update_bench("streaming_slo", payload)

        assert ingest_rate >= MIN_INGEST_PER_SEC, (
            f"sustained ingest {ingest_rate:.1f} records/s is below the "
            f"{MIN_INGEST_PER_SEC:.0f}/s floor"
        )
        assert p99 <= MAX_NOTIFY_P99_SECONDS, (
            f"publish->notify p99 {p99 * 1e3:.2f}ms exceeds "
            f"{MAX_NOTIFY_P99_SECONDS * 1e3:.0f}ms"
        )
        assert total_reads > 0 and read_success >= MIN_READ_SUCCESS, (
            f"concurrent reads degraded: {read_success:.4f} success "
            f"over {total_reads}"
        )
        assert reads["cached"] > 0, "cache never hit during ingest"


def _write_path_at(n: int) -> Dict:
    """1-row insert+publish timings over a registered n-row base, then
    one delete of the skyline point with the smallest coordinate sum
    (the member whose removal re-examines the most rows)."""
    rng = np.random.default_rng(53)
    base = rng.integers(0, 2**BITS, size=(n, DIMS)).astype(np.float64)
    rows = rng.integers(0, 2**BITS, size=(WRITE_REPS, DIMS)).astype(
        np.float64
    )
    registry = DatasetRegistry(keep_versions=2)
    registry.register("base", base)
    samples = []
    for rep in range(WRITE_REPS):
        started = time.perf_counter()
        registry.insert("base", rows[rep : rep + 1], [n + rep])
        samples.append(time.perf_counter() - started)
    snapshot = registry.snapshot("base")
    victim = int(snapshot.sky_ids[np.argmin(snapshot.sky_points.sum(axis=1))])
    started = time.perf_counter()
    registry.delete("base", [victim])
    delete_seconds = time.perf_counter() - started
    return {
        "insert_p50_ms": float(np.median(samples)) * 1e3,
        "skyline_delete_ms": delete_seconds * 1e3,
        "skyline_size": snapshot.skyline_size,
    }


class TestWritePath:
    def test_one_row_publish_scales_with_the_batch(self):
        small, large = (_write_path_at(n) for n in WRITE_SIZES)
        growth = large["insert_p50_ms"] / small["insert_p50_ms"]
        payload = {
            "sizes": list(WRITE_SIZES),
            "reps": WRITE_REPS,
            "insert_p50_ms": [
                round(small["insert_p50_ms"], 3),
                round(large["insert_p50_ms"], 3),
            ],
            "growth": round(growth, 2),
            "skyline_delete_ms": round(large["skyline_delete_ms"], 1),
            "skyline_size": large["skyline_size"],
            "max_p50_ms": MAX_WRITE_P50_SECONDS * 1e3,
            "max_growth": MAX_WRITE_GROWTH,
        }
        _update_bench("write_path", payload)
        assert large["insert_p50_ms"] <= MAX_WRITE_P50_SECONDS * 1e3, (
            f"1-row publish p50 at n={WRITE_SIZES[1]} is "
            f"{large['insert_p50_ms']:.2f}ms (ceiling "
            f"{MAX_WRITE_P50_SECONDS * 1e3:.0f}ms)"
        )
        assert growth <= MAX_WRITE_GROWTH, (
            f"1-row publish grew {growth:.1f}x from n={WRITE_SIZES[0]} "
            f"to n={WRITE_SIZES[1]} (ceiling {MAX_WRITE_GROWTH:.0f}x)"
        )
