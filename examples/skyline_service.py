"""A live skyline query service over a mutating hotel dataset.

One writer publishes immutable snapshot versions through the
:class:`~repro.serving.DatasetRegistry` while concurrent readers issue
all five query types through a :class:`~repro.serving.SkylineService`
— demonstrating snapshot isolation (a held snapshot never changes),
the version-keyed result cache, admission control, and a drift-policy
rebuild.

With ``--faults``, the same service runs under a seeded
:class:`~repro.serving.ServingFaultPlan` — worker crashes, writer
crashes recovered from the mutation WAL, cache corruption caught by
the CRC guard — and the demo verifies the chaos run still converges
to a healthy writer with every fault accounted for.

Run:  python examples/skyline_service.py
      python examples/skyline_service.py --faults
"""

import argparse
import tempfile

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.serving import (
    DatasetRegistry,
    ServiceConfig,
    ServingFaultPlan,
    SkylineClient,
    SkylineService,
    WorkloadSpec,
    replay_workload,
)


def main() -> None:
    rng = np.random.default_rng(7)
    dims = 4  # price, distance, noise, inverted rating — all minimised
    hotels = rng.integers(0, 1024, size=(2_000, dims)).astype(float)

    metrics = MetricsRegistry()
    registry = DatasetRegistry(metrics=metrics)
    registry.register("hotels", hotels)

    with SkylineService(registry, metrics=metrics) as service:
        client = SkylineClient(service, "hotels")

        sky = client.skyline()
        print(f"v{sky.version}: skyline has {sky.size} of 2000 hotels")
        again = client.skyline()
        print(f"repeat query cached: {again.cached}")

        cheap_close = client.subspace([0, 1])
        print(f"price x distance subspace skyline: {cheap_close.size}")
        top = client.top_k(3, method="sum")
        print(f"top-3 by coordinate sum: ids {top.ids.tolist()}")

        non_sky = np.setdiff1d(registry.snapshot("hotels").ids, sky.ids)
        loser = client.why_not(point_id=int(non_sky[0]))
        fix = loser.explanation.cheapest_fix()
        print(
            f"why-not: {loser.explanation.num_dominators} dominators; "
            f"cheapest fix: improve dim {fix[0]} by {fix[1]:.0f}"
        )

        # A held snapshot is immune to later writes.
        held = registry.snapshot("hotels")
        client.insert(
            rng.integers(0, 1024, size=(50, dims)).astype(float),
            np.arange(10_000, 10_050),
        )
        client.delete(list(range(20)))
        print(
            f"writer is at v{client.version}; held snapshot still "
            f"v{held.version} with {held.size} rows"
        )

        # A seeded mixed workload: throughput, latency, cache hit rate.
        report = replay_workload(
            service,
            WorkloadSpec(dataset="hotels", operations=300,
                         read_fraction=0.85, seed=3),
        )
        summary = report.summary()
        print(
            f"replayed {summary['operations']} ops at "
            f"{summary['throughput_ops_per_second']:.0f} ops/s, "
            f"cache hit rate {summary['cache_hit_rate']:.0%}, "
            f"read p99 {summary['read_latency_seconds']['p99'] * 1e3:.2f} ms"
        )


def chaos_main() -> None:
    """The same service under a seeded fault plan: every worker crash
    respawned, every writer crash recovered from the WAL, every cache
    corruption caught — and the run is deterministic per seed."""
    rng = np.random.default_rng(7)
    hotels = rng.integers(0, 1024, size=(2_000, 4)).astype(float)

    plan = ServingFaultPlan(
        seed=13,
        worker_crash_rate=0.04,
        writer_crash_rate=0.12,
        cache_corruption_rate=0.15,
        queue_delay_rate=0.05,
        queue_delay_seconds=0.001,
    )
    print(f"fault plan: {plan.describe()}")

    metrics = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as wal_dir:
        registry = DatasetRegistry(
            metrics=metrics,
            durability_dir=wal_dir,   # writer crashes recover from here
            checkpoint_every=8,
            fault_plan=plan,
        )
        registry.register("hotels", hotels)

        with SkylineService(
            registry, config=ServiceConfig(fault_plan=plan), metrics=metrics
        ) as service:
            report = replay_workload(
                service,
                WorkloadSpec(
                    dataset="hotels", operations=400, read_fraction=0.8,
                    seed=3, retry_attempts=4,
                ),
            )

        status = registry.writer_status("hotels")
        digest = registry.snapshot("hotels").state_digest()

    counter = lambda name: metrics.counter("serving", name)  # noqa: E731
    print(
        f"replayed {report.operations} ops: {report.reads} reads, "
        f"{report.writes} writes, availability {report.availability:.1%}"
    )
    print(
        f"worker crashes: {counter('worker_crashes')} "
        f"(respawned {counter('worker_respawns')}, "
        f"re-enqueued {counter('requeued')})"
    )
    print(
        f"writer crashes: {counter('writer_crashes')} "
        f"(auto-recovered {counter('writer_auto_recoveries')}, "
        f"WAL batches replayed {counter('wal_replayed')})"
    )
    print(
        f"cache corruptions: injected "
        f"{counter('cache_corruption_injected')}, caught "
        f"{counter('cache_corruption_detected')} — none served"
    )
    print(
        f"degraded reads: {report.degraded_stale} stale, "
        f"{report.degraded_partial} partial; retries {report.retries}"
    )
    if report.failures:
        shown = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(report.failures.items())
        )
        print(f"typed terminal failures: {shown}")
    assert not status["writer_down"], "writer must end the run healthy"
    print(
        f"writer healthy at v{status['published_version']} after "
        f"{status['recoveries']} recoveries; state digest {digest[:16]}…"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--faults", action="store_true",
        help="run the seeded chaos-injection demo",
    )
    if parser.parse_args().faults:
        chaos_main()
    else:
        main()
