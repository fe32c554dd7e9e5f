"""Continuous skylines: CDC ingest + push-based diff subscriptions.

A hotel catalogue is served live while new listings stream in.  The
flow this demonstrates:

1. register a dataset and attach a `SubscriptionHub` plus a
   `ContinuousQueryManager` to the registry's publish hook;
2. subscribe — fast, slow (bounded queue, diffs coalesce), and a
   cursor resumed mid-stream via `subscribe_from`;
3. pump records through an `IngestFeed` (batched, backpressured via
   the service's admission controller, windowed expiry as ordinary
   delete batches);
4. verify the push stream: replaying every subscriber's events over
   its starting id-set reconstructs the live skyline exactly.

Run:  python examples/streaming_subscriptions.py
"""

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.serving import DatasetRegistry, SkylineClient, SkylineService
from repro.streaming import (
    ContinuousQueryManager,
    FeedConfig,
    IngestFeed,
    SubscriptionHub,
    WindowSpec,
    replay,
)

DIMS = 4
BITS = 8
SEED_ROWS = 500
STREAM_ROWS = 3_000
WINDOW = 1_000


def main() -> None:
    rng = np.random.default_rng(17)
    seed = rng.integers(0, 2**BITS, size=(SEED_ROWS, DIMS)).astype(float)

    metrics = MetricsRegistry()
    registry = DatasetRegistry(metrics=metrics, keep_versions=8)
    registry.register("hotels", seed)

    # Both consumers ride the registry's publish hook: the hub pushes
    # skyline diffs, the manager advances windowed continuous queries.
    hub = SubscriptionHub(metrics=metrics).attach(registry)
    manager = ContinuousQueryManager(metrics=metrics).attach(registry)
    manager.register("fresh", "hotels", WindowSpec.count(WINDOW))

    with SkylineService(registry, metrics=metrics) as service:
        client = SkylineClient(service, "hotels", hub=hub)

        fast = client.subscribe()             # keeps up, sees every diff
        slow = client.subscribe(max_pending=2)  # bounded: diffs coalesce

        feed = IngestFeed(
            registry,
            "hotels",
            admission=service.admission,       # backpressure, not drops
            config=FeedConfig(batch_size=64, on_overload="block"),
            window=WindowSpec.count(WINDOW),   # expiry = delete batches
            metrics=metrics,
        )

        stream = rng.integers(0, 2**BITS, size=(STREAM_ROWS, DIMS))
        half = STREAM_ROWS // 2
        for row in stream[:half].astype(float):
            feed.append(row)
        feed.flush()

        # A cursor resumed mid-stream: replays retained diffs from the
        # ring, or falls back to a full sync if trimmed.  The caller of
        # subscribe_from holds the state at that version — capture it.
        mid = registry.snapshot("hotels")
        mid_version = mid.version
        mid_sky = frozenset(int(i) for i in mid.sky_ids)
        resumed = client.subscribe_from(mid_version)

        for row in stream[half:].astype(float):
            feed.append(row)
        feed.flush()

        final = frozenset(int(i) for i in registry.snapshot("hotels").sky_ids)
        print(f"streamed {STREAM_ROWS} records in batches of 64, "
              f"window={WINDOW}, expired={feed.records_expired}")
        print(f"live skyline: {len(final)} points at "
              f"version {registry.snapshot('hotels').version}")

        subscribers = {
            "fast": (fast, fast.start_sky_ids, fast.start_version),
            "slow": (slow, slow.start_sky_ids, slow.start_version),
            "resumed": (resumed, mid_sky, mid_version),
        }
        for name, (sub, base, base_version) in subscribers.items():
            events = list(sub.events(timeout=0.05))
            got, version = replay(events, base, base_version)
            stats = sub.stats()
            ok = "ok" if got == final else "DIVERGED"
            print(f"  {name:8s} events={len(events):3d} "
                  f"coalesced={stats['coalesced']:3d} "
                  f"full_syncs={stats['full_syncs']} "
                  f"replayed to v{version}: {ok}")
            assert got == final
            sub.close()

        cq = manager.queries("hotels")[0]
        print(f"continuous query 'fresh': window={cq.window_size} rows, "
              f"skyline={len(cq.skyline_ids())} ids")

    streaming = metrics.counters_as_dict().get("streaming", {})
    print("streaming counters:", {
        k: streaming[k]
        for k in sorted(streaming)
        if k in ("diffs_published", "diffs_coalesced", "full_syncs",
                 "feed_batches", "feed_expirations")
    })


if __name__ == "__main__":
    main()
