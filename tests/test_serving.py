"""Unit + property tests for the serving layer.

The load-bearing guarantee: every service answer is bit-identical to a
fresh offline computation over the same snapshot's alive set — cached
or not, after any mutation stream, whatever the codec.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import (
    ConfigurationError,
    DatasetError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.core.skyline import skyline_indices_oracle
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    DatasetRegistry,
    Mutation,
    Query,
    ResultCache,
    ServiceConfig,
    SkylineClient,
    SkylineService,
    Snapshot,
    WorkloadSpec,
    replay_workload,
)
from repro.zorder.encoding import ZGridCodec
from tests import extension_oracles as oracle


def grid_points(rng, n, d, top=16):
    return rng.integers(0, top, size=(n, d)).astype(np.float64)


def oracle_sky_ids(points, ids):
    """Offline reference: skyline ids of the alive set, sorted."""
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    keep = skyline_indices_oracle(points)
    return np.sort(ids[keep])


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_arrays_are_frozen(self, rng):
        registry = DatasetRegistry()
        registry.register("a", grid_points(rng, 50, 3))
        snap = registry.snapshot("a")
        for array in (snap.points, snap.ids, snap.sky_points, snap.sky_ids):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_point_of_and_row_of(self, rng):
        points = grid_points(rng, 40, 3)
        ids = np.arange(100, 140, dtype=np.int64)
        registry = DatasetRegistry()
        registry.register("a", points, ids=ids)
        snap = registry.snapshot("a")
        assert np.array_equal(snap.point_of(117), points[17])
        assert snap.row_of(99) is None
        with pytest.raises(DatasetError):
            snap.point_of(99)

    def test_old_versions_stay_readable(self, rng):
        registry = DatasetRegistry()
        registry.register("a", grid_points(rng, 30, 3))
        v1 = registry.snapshot("a")
        v1_points = v1.points.copy()
        registry.insert("a", grid_points(rng, 10, 3), np.arange(1000, 1010))
        registry.delete("a", [0, 1, 2])
        # The old reference still reads version 1 exactly.
        assert v1.version == 1
        assert np.array_equal(v1.points, v1_points)
        assert registry.snapshot("a").version == 3
        # ...and the retention ring can serve it too.
        assert registry.snapshot_at("a", 2).version == 2


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_requires_grid_points(self):
        registry = DatasetRegistry()
        with pytest.raises(DatasetError):
            registry.register("a", np.array([[0.5, 1.0]]))

    def test_register_rejects_duplicate_names(self, rng):
        registry = DatasetRegistry()
        registry.register("a", grid_points(rng, 10, 2))
        with pytest.raises(ConfigurationError):
            registry.register("a", grid_points(rng, 10, 2))

    def test_register_rejects_duplicate_ids(self, rng):
        registry = DatasetRegistry()
        with pytest.raises(DatasetError):
            registry.register(
                "a", grid_points(rng, 4, 2), ids=np.array([1, 1, 2, 3])
            )

    def test_unknown_dataset(self):
        registry = DatasetRegistry()
        with pytest.raises(DatasetError):
            registry.snapshot("ghost")

    def test_initial_skyline_matches_oracle(self, rng):
        points = grid_points(rng, 200, 4)
        registry = DatasetRegistry()
        registry.register("a", points)
        snap = registry.snapshot("a")
        assert np.array_equal(
            np.sort(snap.sky_ids), oracle_sky_ids(points, snap.ids)
        )

    def test_mutations_bump_version_and_stay_exact(self, rng):
        registry = DatasetRegistry()
        registry.register("a", grid_points(rng, 100, 3))
        pub = registry.insert(
            "a", grid_points(rng, 20, 3), np.arange(500, 520)
        )
        assert pub.version == 2
        pub = registry.delete("a", list(range(10)))
        assert pub.version == 3
        snap = registry.snapshot("a")
        assert np.array_equal(
            np.sort(snap.sky_ids), oracle_sky_ids(snap.points, snap.ids)
        )

    def test_skyline_biased_churn_stays_exact(self, rng, tmp_path):
        """Incremental maintenance is exact with no periodic recompute.

        Registration at this size takes the pipeline branch; then 64
        insert+delete rounds, most deletes hitting current skyline
        members, delete over half the original alive set.  Every round
        matches the oracle, and the final state equals both a fresh
        registration of the surviving points and a cold adoption of the
        durable home.
        """
        codec = ZGridCodec.grid_identity(3, bits_per_dim=6)
        metrics = MetricsRegistry()
        registry = DatasetRegistry(
            metrics=metrics, durability_dir=str(tmp_path),
            checkpoint_every=7,
        )
        registry.register("a", grid_points(rng, 640, 3, top=64), codec=codec)
        assert metrics.counter("serving", "pipeline_rebuilds") == 1
        next_id = 10_000
        for _ in range(64):
            registry.insert(
                "a", grid_points(rng, 5, 3, top=64),
                np.arange(next_id, next_id + 5),
            )
            next_id += 5
            snap = registry.snapshot("a")
            on_sky = rng.choice(
                snap.sky_ids, size=min(4, snap.sky_ids.size), replace=False
            )
            rest = np.setdiff1d(snap.ids, on_sky)
            registry.delete(
                "a", np.concatenate([on_sky, rng.choice(rest, size=2,
                                                         replace=False)])
            )
            snap = registry.snapshot("a")
            assert np.array_equal(
                np.sort(snap.sky_ids), oracle_sky_ids(snap.points, snap.ids)
            )
        final = registry.snapshot("a")
        assert final.size == 640 + 64 * 5 - 64 * 6

        fresh = DatasetRegistry()
        fresh.register("a", final.points, ids=final.ids, codec=codec)
        rebuilt = fresh.snapshot("a")
        assert Snapshot.build(
            "a", final.version, codec, rebuilt.points, rebuilt.ids,
            rebuilt.sky_points, rebuilt.sky_ids,
        ).state_digest() == final.state_digest()

        adopted = DatasetRegistry(durability_dir=str(tmp_path / "copy"))
        shutil.copytree(str(tmp_path / "a"), str(tmp_path / "copy" / "a"))
        adopted.adopt("a")
        assert adopted.snapshot("a").state_digest() == final.state_digest()

    def test_drift_rebuild_uses_pipeline_at_scale(self, rng):
        """At scale the pipeline runs once, at registration; deletes past
        what used to be a drift budget stay incremental and exact."""
        metrics = MetricsRegistry()
        registry = DatasetRegistry(metrics=metrics)
        points = grid_points(rng, 700, 3, top=64)
        registry.register(
            "a", points, codec=ZGridCodec.grid_identity(3, bits_per_dim=6)
        )
        assert metrics.counter("serving", "pipeline_rebuilds") == 1
        pub = registry.delete("a", list(range(8)))
        assert pub.version == 2
        assert metrics.counter("serving", "pipeline_rebuilds") == 1
        snap = registry.snapshot("a")
        assert np.array_equal(
            np.sort(snap.sky_ids), oracle_sky_ids(snap.points, snap.ids)
        )

    def test_register_dataset_quantizes_floats(self, rng):
        from repro.core.dataset import Dataset

        raw = Dataset(rng.random((80, 3)), name="raw")
        registry = DatasetRegistry()
        pub = registry.register_dataset("a", raw, bits_per_dim=8)
        assert pub.version == 1
        snap = registry.snapshot("a")
        assert snap.size == 80
        assert np.all(snap.points == np.floor(snap.points))


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_eviction(self):
        metrics = MetricsRegistry()
        cache = ResultCache(max_entries=2, metrics=metrics)
        k1 = ResultCache.make_key("a", 1, "q1")
        k2 = ResultCache.make_key("a", 1, "q2")
        k3 = ResultCache.make_key("a", 2, "q1")
        hit, _ = cache.lookup(k1)
        assert not hit
        cache.store(k1, "v1")
        cache.store(k2, "v2")
        assert cache.lookup(k1) == (True, "v1")
        cache.store(k3, "v3")  # evicts k2 (k1 was refreshed)
        assert cache.lookup(k2) == (False, None)
        assert cache.lookup(k3) == (True, "v3")
        assert cache.evictions == 1
        assert metrics.counter("serving", "cache_hits") == cache.hits
        assert metrics.counter("serving", "cache_misses") == cache.misses
        assert metrics.counter("serving", "cache_evictions") == 1

    def test_version_is_part_of_the_key(self):
        cache = ResultCache(max_entries=8)
        cache.store(ResultCache.make_key("a", 1, "q"), "old")
        hit, _ = cache.lookup(ResultCache.make_key("a", 2, "q"))
        assert not hit

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            ResultCache(max_entries=0)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_sheds_when_queue_full(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            AdmissionConfig(max_read_queue=2), metrics=metrics
        )
        controller.admit("read")
        controller.admit("read")
        with pytest.raises(OverloadedError):
            controller.admit("read")
        # The mutate queue is independent.
        controller.admit("mutate")
        assert metrics.counter("serving", "read_rejected") == 1
        stats = controller.stats()
        assert stats["read"]["queued"] == 2
        assert stats["read"]["rejected"] == 1

    def test_lifecycle_accounting(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(metrics=metrics)
        ticket = controller.admit("read")
        controller.started(ticket)
        controller.finished(ticket)
        stats = controller.stats()
        assert stats["read"]["queued"] == 0
        assert stats["read"]["running"] == 0
        assert metrics.histogram("serving.read_queue_wait_seconds")
        assert metrics.histogram("serving.read_service_seconds")

    def test_deadline_resolution_and_expiry(self):
        controller = AdmissionController(
            AdmissionConfig(default_timeout_seconds=100.0)
        )
        ticket = controller.admit("read")
        assert ticket.deadline is not None
        assert not ticket.expired()
        explicit = controller.admit("read", timeout_seconds=1e-12)
        assert explicit.expired(now=explicit.deadline + 1.0)
        controller.expire(explicit)
        assert controller.stats()["read"]["expired"] == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(read_concurrency=0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(default_timeout_seconds=0.0)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
@pytest.fixture
def served(rng):
    """A registry + service over one 4-D dataset (and its raw arrays)."""
    points = grid_points(rng, 150, 4)
    registry = DatasetRegistry()
    registry.register("d", points)
    with SkylineService(registry) as service:
        yield service, registry


class TestService:
    def test_full_matches_oracle(self, served):
        service, registry = served
        snap = registry.snapshot("d")
        result = service.query(Query.full("d"))
        assert np.array_equal(
            result.ids, oracle_sky_ids(snap.points, snap.ids)
        )
        assert result.version == snap.version
        # Canonical ordering: ids ascending.
        assert np.all(np.diff(result.ids) > 0)

    def test_subspace_matches_operator(self, served):
        service, registry = served
        snap = registry.snapshot("d")
        result = service.query(Query.subspace("d", [0, 2]))
        expected = oracle.subspace_ids(snap.points, snap.ids, [0, 2])
        assert np.array_equal(result.ids, expected)

    def test_kdominant_matches_operator(self, served):
        service, registry = served
        snap = registry.snapshot("d")
        result = service.query(Query.kdominant("d", 3))
        expected = oracle.k_dominant_ids(snap.points, snap.ids, 3)
        assert np.array_equal(result.ids, expected)

    def test_topk_methods(self, served):
        service, _ = served
        sums = service.query(Query.topk("d", 5, method="sum"))
        assert sums.size == 5 and sums.scores is not None
        assert np.all(np.diff(sums.scores) >= 0)
        rep = service.query(Query.topk("d", 3, method="representative"))
        assert rep.size == 3 and rep.scores is None
        weighted = service.query(
            Query.topk("d", 4, method="weighted",
                       weights=[1.0, 0.0, 0.0, 0.0])
        )
        assert weighted.size == 4

    def test_explain_member_and_loser(self, served):
        service, registry = served
        snap = registry.snapshot("d")
        winner = int(snap.sky_ids[0])
        result = service.query(Query.explain("d", point_id=winner))
        assert result.explanation.is_skyline_member
        assert result.live_member is True
        worst = service.query(Query.explain("d", point=[15.0] * 4))
        assert not worst.explanation.is_skyline_member
        assert worst.explanation.num_dominators > 0
        assert worst.live_member is None  # what-if point has no live row

    def test_cached_results_are_bit_identical(self, served):
        service, _ = served
        for query in (
            Query.full("d"),
            Query.subspace("d", [1, 3]),
            Query.kdominant("d", 3),
            Query.topk("d", 4, method="sum"),
            Query.explain("d", point=[15.0] * 4),
        ):
            fresh = service.query(query)
            again = service.query(query)
            assert not fresh.cached and again.cached
            assert np.array_equal(fresh.ids, again.ids)
            assert np.array_equal(fresh.points, again.points)
            if fresh.scores is not None:
                assert np.array_equal(fresh.scores, again.scores)

    @pytest.mark.parametrize("method", ["sum", "dominance"])
    def test_ignored_weights_share_the_cache_entry(self, served, method):
        service, _ = served
        plain = service.query(Query.topk("d", 4, method=method))
        weighted = service.query(
            Query.topk("d", 4, method=method, weights=[3.0, 1.0, 0.0, 2.0])
        )
        assert weighted.cached
        assert np.array_equal(plain.ids, weighted.ids)
        assert np.array_equal(plain.scores, weighted.scores)

    def test_mutation_invalidates_by_version(self, served):
        service, _ = served
        first = service.query(Query.full("d"))
        service.mutate(
            Mutation.insert("d", np.zeros((1, 4)), [7777])
        )
        after = service.query(Query.full("d"))
        assert not after.cached  # new version -> cache miss
        assert after.version == first.version + 1
        assert after.ids.tolist() == [7777]  # origin dominates everything

    def test_validation_errors_are_synchronous(self, served):
        service, _ = served
        with pytest.raises(ConfigurationError):
            service.query(Query.subspace("d", []))
        with pytest.raises(ConfigurationError):
            service.query(Query.topk("d", 0))
        with pytest.raises(ConfigurationError):
            service.query(Query.explain("d"))
        with pytest.raises(DatasetError):
            service.query(Query.full("ghost"))

    def test_deadline_expiry_surfaces_typed_error(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 50, 3))
        with SkylineService(registry) as service:
            # A deadline that has already passed when a worker picks
            # the request up.
            future = service.submit(
                Query.full("d", timeout_seconds=1e-9)
            )
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=10.0)
            assert service.admission.stats()["read"]["expired"] == 1

    def test_overload_sheds_with_typed_error(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 30, 3))
        config = ServiceConfig(
            admission=AdmissionConfig(max_read_queue=0)
        )
        with SkylineService(registry, config=config) as service:
            with pytest.raises(OverloadedError):
                service.query(Query.full("d"))

    def test_closed_service_rejects_submissions(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 30, 3))
        service = SkylineService(registry)
        service.close()
        with pytest.raises(ConfigurationError):
            service.submit(Query.full("d"))

    def test_tracer_records_query_spans(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 30, 3))
        tracer = Tracer()
        with SkylineService(registry, tracer=tracer) as service:
            service.query(Query.full("d"))
            service.mutate(Mutation.delete("d", [0]))
        names = [span.name for span in tracer.spans]
        assert "serving.query" in names
        assert "serving.mutation" in names


class TestClientAndReplay:
    def test_client_facade(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 80, 3))
        with SkylineService(registry) as service:
            client = SkylineClient(service, "d")
            assert client.version == 1
            sky = client.skyline()
            assert sky.size > 0
            client.insert(np.zeros((1, 3)), [999])
            assert client.version == 2
            client.delete([999])
            assert client.version == 3
            assert client.subspace([0, 1]).size > 0
            assert client.k_dominant(2).size >= 0
            assert client.top_k(3).size <= 3
            assert client.why_not(point=[15.0, 15.0, 15.0]) is not None

    def test_replay_workload_is_deterministic_in_shape(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 100, 3))
        with SkylineService(registry) as service:
            spec = WorkloadSpec(
                dataset="d", operations=60, read_fraction=0.7, seed=9
            )
            report = replay_workload(service, spec)
        assert report.reads + report.writes + report.shed == 60
        assert report.cache_hits > 0
        summary = report.summary()
        assert summary["final_version"] >= 1
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0


# ----------------------------------------------------------------------
# property: service answers == fresh offline computation, across codecs,
# under arbitrary mutation streams
# ----------------------------------------------------------------------
@st.composite
def mutation_stream(draw):
    ops = []
    next_id = 30
    alive = list(range(30))
    for _ in range(draw(st.integers(1, 5))):
        if len(alive) > 4 and draw(st.booleans()):
            count = draw(st.integers(1, min(6, len(alive) - 2)))
            positions = draw(
                st.lists(
                    st.integers(0, len(alive) - 1),
                    min_size=count, max_size=count, unique=True,
                )
            )
            doomed = [alive[p] for p in positions]
            ops.append(("delete", doomed))
            alive = [a for a in alive if a not in set(doomed)]
        else:
            n = draw(st.integers(1, 8))
            rows = draw(
                st.lists(
                    st.lists(st.integers(0, 15), min_size=3, max_size=3),
                    min_size=n, max_size=n,
                )
            )
            ids = list(range(next_id, next_id + n))
            ops.append(("insert", (rows, ids)))
            alive.extend(ids)
            next_id += n
    return ops


@pytest.mark.parametrize("bits", [4, 6])
@given(stream=mutation_stream())
@settings(max_examples=15, deadline=None)
def test_service_bit_identical_to_offline(bits, stream):
    rng = np.random.default_rng(7)
    points = rng.integers(0, 16, size=(30, 3)).astype(np.float64)
    registry = DatasetRegistry()
    registry.register(
        "p", points,
        codec=ZGridCodec.grid_identity(3, bits_per_dim=bits),
    )
    with SkylineService(registry) as service:
        for op, payload in stream:
            if op == "insert":
                rows, ids = payload
                service.mutate(
                    Mutation.insert(
                        "p", np.asarray(rows, dtype=np.float64), ids
                    )
                )
            else:
                service.mutate(Mutation.delete("p", payload))
        snap = registry.snapshot("p")
        # full: against the brute-force oracle on the alive set
        full = service.query(Query.full("p"))
        assert np.array_equal(
            full.ids, oracle_sky_ids(snap.points, snap.ids)
        )
        full_cached = service.query(Query.full("p"))
        assert full_cached.cached
        assert np.array_equal(full.ids, full_cached.ids)
        assert np.array_equal(full.points, full_cached.points)
        if snap.size:
            # subspace + kdominant: against the all-pairs oracles
            sub = service.query(Query.subspace("p", [0, 2]))
            expected = oracle.subspace_ids(snap.points, snap.ids, [0, 2])
            assert np.array_equal(sub.ids, expected)
            kdom = service.query(Query.kdominant("p", 2))
            expected = oracle.k_dominant_ids(snap.points, snap.ids, 2)
            assert np.array_equal(kdom.ids, expected)
            # topk over the oracle skyline, fed in the same id order
            top = service.query(Query.topk("p", 3, method="sum"))
            assert top.size == min(3, full.size)
            # explain: dominators of the worst corner == every
            # alive point that dominates it
            worst = service.query(Query.explain("p", point=[15.0] * 3))
            explanation = worst.explanation
            assert explanation.num_dominators == len(explanation.dominator_ids)
