"""Sharded serving: scatter-gather identity, certified partial
answers, failover, health checks, and hedged sub-queries.

The contract hierarchy:

* with every shard healthy, the router is *indistinguishable* from a
  single :class:`SkylineService` — bit-identical answers (id-sorted
  canonical) for every query kind, at every shard count;
* with shards lost, every non-failed answer is either exact or carries
  a ``partial`` certificate whose floor bounds make the degradation
  *verifiable* — the returned set is provably a subset of the true
  answer;
* a durable shard that crashes fails over onto a bit-identical
  replacement (``Snapshot.state_digest()`` oracle).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import (
    ConfigurationError,
    DatasetError,
    ShardDownError,
)
from repro.core.skyline import skyline_indices_oracle
from repro.observability.metrics import MetricsRegistry
from repro.serving import (
    DatasetRegistry,
    Mutation,
    Query,
    RouterConfig,
    ServingFaultPlan,
    ShardMap,
    ShardedSkylineService,
    SkylineClient,
    SkylineService,
    WorkloadSpec,
    floor_dominated_mask,
    floor_k_dominated_mask,
    replay_workload,
)
from repro.zorder.encoding import ZGridCodec

D = 4
CELLS = 64
CODEC = ZGridCodec.grid_identity(D, bits_per_dim=8)


def _grid(rng, n, d=D, cells=CELLS):
    return rng.integers(0, cells, size=(n, d)).astype(np.float64)


def _single(points, ids):
    registry = DatasetRegistry(keep_versions=16)
    registry.register("ds", points, ids=ids, codec=CODEC)
    return SkylineService(registry)


def _router(points, ids, shards, hedge=0.0, **kw):
    config = RouterConfig(
        num_shards=shards,
        hedge_after_seconds=hedge,
        breaker_cooldown_seconds=kw.pop("cooldown", 0.05),
        heartbeat_every_ops=kw.pop("heartbeat_every_ops", 0),
    )
    return ShardedSkylineService(
        "ds",
        points,
        ids=ids,
        codec=CODEC,
        config=config,
        **kw,
    )


def _all_variants(d=D):
    """Every query kind the service understands (explain separately)."""
    return [
        Query.full("ds"),
        Query.subspace("ds", [0, 1]),
        Query.subspace("ds", [1, 2, 3]),
        Query.kdominant("ds", d - 1),
        Query.topk("ds", 5, method="sum"),
        Query.topk("ds", 5, method="dominance"),
        Query.topk("ds", 5, method="weighted", weights=[1.0] * d),
        Query.topk("ds", 5, method="representative"),
    ]


def _assert_same_answer(got, want, label=""):
    np.testing.assert_array_equal(got.ids, want.ids, err_msg=label)
    np.testing.assert_array_equal(got.points, want.points, err_msg=label)
    if want.scores is None:
        assert got.scores is None, label
    else:
        np.testing.assert_array_equal(got.scores, want.scores, label)
    if want.explanation is not None:
        g, w = got.explanation, want.explanation
        assert g.is_skyline_member == w.is_skyline_member, label
        assert g.single_dimension_fixes == w.single_dimension_fixes, label


#: one malformed query per validation rule; each used to reach the
#: shards and fail there, scored as shard failures
MALFORMED = {
    "subspace-dim-out-of-range": Query.subspace("ds", [0, D]),
    "subspace-dim-negative": Query.subspace("ds", [-1, 2]),
    "subspace-dim-repeated": Query.subspace("ds", [1, 1]),
    "kdominant-k-above-d": Query.kdominant("ds", D + 1),
    "weighted-nan": Query.topk(
        "ds", 3, method="weighted", weights=[float("nan")] * D
    ),
    "weighted-negative": Query.topk(
        "ds", 3, method="weighted", weights=[1.0, -1.0, 1.0, 1.0]
    ),
    "weighted-short": Query.topk(
        "ds", 3, method="weighted", weights=[1.0] * (D - 1)
    ),
    "explain-point-wrong-d": Query.explain("ds", point=[1.0] * (D + 1)),
    "explain-point-column": Query(
        kind="explain", dataset="ds", point=np.ones((D, 1))
    ),
}


# ----------------------------------------------------------------------
# shard map geometry
# ----------------------------------------------------------------------
class TestShardMap:
    def test_routing_is_total_and_stable(self):
        rng = np.random.default_rng(0)
        points = _grid(rng, 200)
        smap = ShardMap.fit(CODEC, points, 4)
        sids = smap.shard_of(points)
        assert sids.shape == (200,)
        assert set(np.unique(sids)) <= set(range(smap.num_shards))
        # routing is a pure function of coordinates
        np.testing.assert_array_equal(sids, smap.shard_of(points))

    def test_split_partitions_exactly(self):
        rng = np.random.default_rng(1)
        points = _grid(rng, 150)
        ids = np.arange(150, dtype=np.int64)
        smap = ShardMap.fit(CODEC, points, 3)
        parts = smap.split(points, ids)
        seen = np.concatenate([i for _, i in parts.values()])
        assert sorted(seen.tolist()) == ids.tolist()
        for sid, (pts, pids) in parts.items():
            np.testing.assert_array_equal(smap.shard_of(pts), sid)
            assert pts.shape[0] == pids.shape[0] > 0

    def test_floor_bounds_every_owned_point(self):
        rng = np.random.default_rng(2)
        points = _grid(rng, 300)
        smap = ShardMap.fit(CODEC, points, 4)
        parts = smap.split(points, np.arange(300, dtype=np.int64))
        for sid, (pts, _ids) in parts.items():
            floor = smap.floor(sid)
            assert (pts >= floor).all(), (
                f"shard {sid} owns a point below its region floor"
            )

    def test_floors_matrix_matches_per_shard(self):
        rng = np.random.default_rng(3)
        smap = ShardMap.fit(CODEC, _grid(rng, 100), 4)
        sids = list(range(smap.num_shards))
        stacked = smap.floors(sids)
        for row, sid in zip(stacked, sids):
            np.testing.assert_array_equal(row, smap.floor(sid))
        assert smap.floors([]).shape == (0, D)

    def test_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ConfigurationError):
            ShardMap.fit(CODEC, _grid(rng, 10), 0)
        with pytest.raises(DatasetError):
            ShardMap.fit(CODEC, np.empty((0, D)), 2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_floor_mask_is_sound(self, seed):
        """If any *actual* point of a lost shard dominates q, the floor
        mask must flag q (the certificate's soundness)."""
        rng = np.random.default_rng(seed)
        lost_pts = _grid(rng, 20, cells=16)
        floors = lost_pts.min(axis=0, keepdims=True)
        queries = _grid(rng, 40, cells=16)
        mask = floor_dominated_mask(queries, floors)
        for qi, q in enumerate(queries):
            dominated = any(
                (p <= q).all() and (p < q).any() for p in lost_pts
            )
            if dominated:
                assert mask[qi]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_floor_k_mask_is_sound(self, seed):
        k = D - 1
        rng = np.random.default_rng(seed)
        lost_pts = _grid(rng, 20, cells=16)
        floors = lost_pts.min(axis=0, keepdims=True)
        queries = _grid(rng, 40, cells=16)
        mask = floor_k_dominated_mask(queries, floors, k)
        for qi, q in enumerate(queries):
            kdom = any(
                (p <= q).sum() >= k and ((p <= q) & (p < q)).any()
                for p in lost_pts
            )
            if kdom:
                assert mask[qi]


# ----------------------------------------------------------------------
# scatter-gather bit-identity (the core gate)
# ----------------------------------------------------------------------
class TestScatterGatherIdentity:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_every_query_kind_matches_single_service(self, shards):
        rng = np.random.default_rng(7)
        points = _grid(rng, 400)
        ids = np.arange(400, dtype=np.int64)
        with _single(points, ids) as single, _router(
            points, ids, shards
        ) as router:
            for query in _all_variants():
                want = single.query(query)
                got = router.query(query)
                _assert_same_answer(got, want, label=repr(query))
                assert got.certificate["kind"] == "fresh"
                assert got.version == sum(
                    int(v)
                    for v in got.certificate["version_vector"].values()
                )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_explain_matches_single_service(self, shards):
        rng = np.random.default_rng(8)
        points = _grid(rng, 300)
        ids = np.arange(300, dtype=np.int64)
        with _single(points, ids) as single, _router(
            points, ids, shards
        ) as router:
            for query in (
                Query.explain("ds", point=[CELLS - 1.0] * D),
                Query.explain("ds", point_id=17),
            ):
                want = single.query(query).explanation
                got = router.query(query).explanation
                assert got.is_skyline_member == want.is_skyline_member
                np.testing.assert_array_equal(
                    got.dominator_ids, want.dominator_ids
                )
                np.testing.assert_array_equal(
                    got.dominator_points, want.dominator_points
                )
                assert (
                    got.single_dimension_fixes
                    == want.single_dimension_fixes
                )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=60),
    )
    @settings(max_examples=15, deadline=None)
    def test_identity_on_arbitrary_inputs(self, seed, n):
        """Hypothesis gate: every query kind's answer is shard-count
        invariant on arbitrary grid inputs."""
        rng = np.random.default_rng(seed)
        points = _grid(rng, n, cells=16)
        ids = np.arange(n, dtype=np.int64)
        queries = [
            Query.full("ds"),
            Query.subspace("ds", [0, 1]),
            Query.kdominant("ds", D - 1),
            Query.topk("ds", 3, method="sum"),
            Query.topk("ds", 3, method="dominance"),
            Query.topk("ds", 3, method="representative"),
            Query.topk("ds", 3, method="weighted", weights=[2.0, 1.0, 0.0, 1.0]),
            Query.explain("ds", point=[8.0] * D),
            Query.explain("ds", point_id=n // 2),
        ]
        with _single(points, ids) as single:
            wants = [single.query(q) for q in queries]
        for shards in (2, 4):
            with _router(points, ids, shards) as router:
                for query, want in zip(queries, wants):
                    got = router.query(query)
                    _assert_same_answer(
                        got, want, label=f"{shards} shards {query!r}"
                    )

    def test_identity_survives_mutations(self):
        rng = np.random.default_rng(9)
        points = _grid(rng, 250)
        ids = np.arange(250, dtype=np.int64)
        new_pts = _grid(rng, 12)
        new_ids = np.arange(1000, 1012, dtype=np.int64)
        doomed = [3, 77, 140, 1004]
        with _single(points, ids) as single, _router(
            points, ids, 4
        ) as router:
            for target in (single, router):
                target.mutate(Mutation.insert("ds", new_pts, new_ids))
                target.mutate(Mutation.delete("ds", doomed))
            for query in _all_variants():
                _assert_same_answer(
                    router.query(query), single.query(query),
                    label=repr(query),
                )

    def test_logical_version_monotone_under_mutation(self):
        rng = np.random.default_rng(10)
        points = _grid(rng, 120)
        ids = np.arange(120, dtype=np.int64)
        with _router(points, ids, 4) as router:
            seen = [router.logical_version()]
            for i in range(4):
                pts = _grid(rng, 3)
                pids = np.arange(2000 + 3 * i, 2003 + 3 * i, dtype=np.int64)
                result = router.mutate(Mutation.insert("ds", pts, pids))
                assert result.publish.version == router.logical_version()
                seen.append(router.logical_version())
            assert seen == sorted(seen) and len(set(seen)) == len(seen)

    def test_delete_of_unknown_id_raises_like_single_service(self):
        rng = np.random.default_rng(11)
        points = _grid(rng, 50)
        ids = np.arange(50, dtype=np.int64)
        with _router(points, ids, 2) as router:
            with pytest.raises(DatasetError, match="not alive"):
                router.mutate(Mutation.delete("ds", [99_999]))

    def test_wrong_dataset_rejected(self):
        rng = np.random.default_rng(12)
        with _router(_grid(rng, 30), np.arange(30), 2) as router:
            with pytest.raises(DatasetError, match="not served"):
                router.query(Query.full("other"))


class TestMalformedQueries:
    @pytest.mark.parametrize(
        "query", list(MALFORMED.values()), ids=list(MALFORMED)
    )
    def test_rejected_synchronously_without_tripping_breakers(self, query):
        rng = np.random.default_rng(13)
        points = _grid(rng, 200)
        ids = np.arange(200, dtype=np.int64)
        with _single(points, ids) as single, _router(
            points, ids, 4
        ) as router:
            with pytest.raises(ConfigurationError):
                single.query(query)
            for _ in range(3):
                with pytest.raises(ConfigurationError):
                    router.query(query)
            states = router.shard_states()
            assert all(st["breaker"] == "closed" for st in states.values())
            got = router.query(Query.full("ds"))
            assert got.certificate["kind"] == "fresh"
            _assert_same_answer(got, single.query(Query.full("ds")))


# ----------------------------------------------------------------------
# certified partial answers
# ----------------------------------------------------------------------
class TestCertifiedPartial:
    def _crashed_router(self, rng, crash_sid=1, n=400):
        points = _grid(rng, n)
        ids = np.arange(n, dtype=np.int64)
        plan = ServingFaultPlan(
            seed=3, scripted_shard_crashes={crash_sid: 1}
        )
        # no durability_dir: the crash is terminal, answers stay partial
        router = _router(points, ids, 4, fault_plan=plan)
        return router, points, ids

    def test_partial_certificate_is_verifiable(self):
        rng = np.random.default_rng(20)
        router, points, ids = self._crashed_router(rng)
        with router:
            result = router.query(Query.full("ds"))  # op 1: crash fires
            cert = result.certificate
            assert cert["kind"] == "partial"
            assert cert["lost_shards"] == [1]
            assert cert["scope"] == "shards"
            floors = np.asarray(cert["floors"], dtype=np.float64)
            assert floors.shape == (1, D)
            np.testing.assert_array_equal(floors[0], router.map.floor(1))

            # soundness: every returned point is in the TRUE skyline of
            # the full dataset (including the lost shard's rows)
            truth = set(
                ids[skyline_indices_oracle(points)].tolist()
            )
            assert set(result.ids.tolist()) <= truth

            # completeness of the certificate: the answer is exactly the
            # alive-union skyline minus the floor-masked uncertain set
            alive = router.map.shard_of(points) != 1
            alive_pts, alive_ids = points[alive], ids[alive]
            sky = skyline_indices_oracle(alive_pts)
            sky_pts, sky_ids = alive_pts[sky], alive_ids[sky]
            keep = ~floor_dominated_mask(sky_pts, floors)
            order = np.argsort(sky_ids[keep], kind="stable")
            np.testing.assert_array_equal(
                result.ids, sky_ids[keep][order]
            )
            assert cert["masked"] == int((~keep).sum())

    def test_kdominant_partial_uses_k_mask(self):
        rng = np.random.default_rng(21)
        router, points, ids = self._crashed_router(rng)
        with router:
            k = D - 1
            result = router.query(Query.kdominant("ds", k))
            cert = result.certificate
            assert cert["kind"] == "partial"
            floors = np.asarray(cert["floors"], dtype=np.float64)
            # nothing returned may be k-dominated by the lost floor
            if result.ids.shape[0]:
                assert not floor_k_dominated_mask(
                    result.points, floors, k
                ).any()

    def test_explain_on_lost_shard_point_raises_typed(self):
        rng = np.random.default_rng(22)
        router, points, ids = self._crashed_router(rng)
        with router:
            router.query(Query.full("ds"))  # trigger the crash
            lost_ids = ids[router.map.shard_of(points) == 1]
            with pytest.raises(ShardDownError) as excinfo:
                router.query(
                    Query.explain("ds", point_id=int(lost_ids[0]))
                )
            assert excinfo.value.shard == 1
            assert excinfo.value.terminal  # no durable home
            assert not excinfo.value.retryable

    def test_explain_by_point_flags_uncertainty(self):
        rng = np.random.default_rng(23)
        router, points, ids = self._crashed_router(rng)
        with router:
            router.query(Query.full("ds"))
            # a corner point the lost floor certainly dominates
            result = router.query(
                Query.explain("ds", point=[CELLS - 1.0] * D)
            )
            assert result.certificate["kind"] == "partial"
            assert result.certificate.get("explain_uncertain") is True

    def test_writes_to_lost_shard_fail_typed_and_fast(self):
        rng = np.random.default_rng(24)
        metrics = MetricsRegistry()
        points = _grid(rng, 400)
        ids = np.arange(400, dtype=np.int64)
        plan = ServingFaultPlan(seed=3, scripted_shard_crashes={1: 1})
        router = _router(
            points, ids, 4, fault_plan=plan, metrics=metrics
        )
        with router:
            router.query(Query.full("ds"))
            lost_ids = ids[router.map.shard_of(points) == 1]
            with pytest.raises(ShardDownError) as excinfo:
                router.mutate(Mutation.delete("ds", [int(lost_ids[0])]))
            assert excinfo.value.terminal
            assert (
                metrics.counter("serving", "mutations_rejected_shard_down")
                == 1
            )
            # writes to healthy shards keep working
            healthy = ids[router.map.shard_of(points) == 0]
            router.mutate(Mutation.delete("ds", [int(healthy[0])]))


# ----------------------------------------------------------------------
# failover
# ----------------------------------------------------------------------
class TestFailover:
    def test_failover_republishes_bit_identically(self, tmp_path):
        rng = np.random.default_rng(30)
        points = _grid(rng, 300)
        ids = np.arange(300, dtype=np.int64)
        plan = ServingFaultPlan(
            seed=5, scripted_shard_crashes={2: 3}
        )
        metrics = MetricsRegistry()
        with _router(
            points, ids, 4,
            durability_dir=str(tmp_path),
            fault_plan=plan,
            metrics=metrics,
            cooldown=0.02,
        ) as router:
            before = router.query(Query.full("ds"))
            router.mutate(
                Mutation.insert(
                    "ds", _grid(rng, 4), np.arange(900, 904)
                )
            )
            want = router.query(Query.full("ds"))  # op 3: crash fires
            # op 3 crashed shard 2 *before* the scatter: this answer is
            # already partial for its region
            assert want.certificate["kind"] == "partial"
            version_before = router.logical_version()

            time.sleep(0.03)  # past the breaker cooldown
            after = router.query(Query.full("ds"))  # half-open -> failover
            assert after.certificate["kind"] == "fresh"
            state = router.shard_states()[2]
            assert not state["down"]
            assert state["failovers"] == 1
            assert state["incarnation"] == 1
            assert state["last_failover_identical"] is True
            # bit-identical republish leaves the logical version alone
            assert router.logical_version() == version_before
            assert metrics.counter("serving", "shard_crashes") == 1
            assert metrics.counter("serving", "shard_failovers") == 1
            assert (
                metrics.counter("serving", "shard_failover_identical") == 1
            )
            # the post-failover skyline must contain every pre-crash
            # member plus reflect the insert — recompute offline
            alive_ids = np.asarray(
                sorted(router._owner), dtype=np.int64
            )
            assert int(before.version) <= int(after.version)
            assert alive_ids.shape[0] == 304

    def test_failover_answers_match_single_service(self, tmp_path):
        rng = np.random.default_rng(31)
        points = _grid(rng, 250)
        ids = np.arange(250, dtype=np.int64)
        plan = ServingFaultPlan(seed=6, scripted_shard_crashes={0: 1})
        with _single(points, ids) as single, _router(
            points, ids, 4,
            durability_dir=str(tmp_path),
            fault_plan=plan,
            cooldown=0.01,
        ) as router:
            router.query(Query.full("ds"))  # crash
            time.sleep(0.02)
            for query in _all_variants():
                _assert_same_answer(
                    router.query(query), single.query(query),
                    label=repr(query),
                )

    def test_terminal_schedule_blocks_failover(self, tmp_path):
        rng = np.random.default_rng(32)
        points = _grid(rng, 150)
        ids = np.arange(150, dtype=np.int64)
        plan = ServingFaultPlan(
            seed=7,
            scripted_shard_crashes={1: 1},
            terminal_shards=(1,),
        )
        with _router(
            points, ids, 4,
            durability_dir=str(tmp_path),
            fault_plan=plan,
            cooldown=0.0,
        ) as router:
            router.query(Query.full("ds"))
            time.sleep(0.01)
            result = router.query(Query.full("ds"))
            assert result.certificate["kind"] == "partial"
            assert router.shard_states()[1]["terminal"]
            assert router.shard_states()[1]["failovers"] == 0


# ----------------------------------------------------------------------
# health checks and breaker-driven degradation
# ----------------------------------------------------------------------
class TestHealth:
    def test_heartbeat_loss_opens_then_self_heals(self):
        rng = np.random.default_rng(40)
        points = _grid(rng, 200)
        ids = np.arange(200, dtype=np.int64)
        plan = ServingFaultPlan(seed=8, heartbeat_loss_rate=1.0)
        metrics = MetricsRegistry()
        with _router(
            points, ids, 4,
            fault_plan=plan,
            metrics=metrics,
            cooldown=0.02,
        ) as router:
            # every heartbeat is lost: two rounds open every breaker
            router.health.tick()
            router.health.tick()
            assert all(
                s["state"] == "open"
                for s in router.health.status().values()
            )
            result = router.query(Query.full("ds"))
            assert result.certificate["kind"] == "partial"
            assert result.certificate["lost_shards"] == [0, 1, 2, 3]
            assert result.ids.shape[0] == 0  # nothing is certain
            assert metrics.counter("serving", "heartbeat_lost") == 8
            assert metrics.counter("serving", "shard_skipped_open") == 4

            # false positive self-heals: real traffic is let through as
            # the half-open probe and closes the breakers
            time.sleep(0.03)
            healed = router.query(Query.full("ds"))
            assert healed.certificate["kind"] == "fresh"
            assert all(
                not s["down"] for s in router.shard_states().values()
            )

    def test_heartbeats_report_versions(self):
        rng = np.random.default_rng(41)
        points = _grid(rng, 100)
        ids = np.arange(100, dtype=np.int64)
        with _router(points, ids, 3) as router:
            healthy = router.health.tick()
            assert healthy == {0: True, 1: True, 2: True}
            status = router.health.status()
            for sid, entry in status.items():
                assert entry["state"] == "closed"
                assert entry["last_version"] == 1
                assert entry["consecutive_misses"] == 0
            assert router.health.ticks == 1

    def test_inline_heartbeat_cadence(self):
        rng = np.random.default_rng(42)
        points = _grid(rng, 80)
        ids = np.arange(80, dtype=np.int64)
        with _router(
            points, ids, 2, heartbeat_every_ops=2
        ) as router:
            for _ in range(6):
                router.query(Query.full("ds"))
            assert router.health.ticks == 3

    def test_heartbeat_probe_drives_failover(self, tmp_path):
        rng = np.random.default_rng(43)
        points = _grid(rng, 150)
        ids = np.arange(150, dtype=np.int64)
        plan = ServingFaultPlan(seed=9, scripted_shard_crashes={1: 1})
        with _router(
            points, ids, 4,
            durability_dir=str(tmp_path),
            fault_plan=plan,
            cooldown=30.0,  # queries alone could not recover in time
        ) as router:
            router.query(Query.full("ds"))  # crash shard 1
            assert router.shard_states()[1]["down"]
            # the probe path recovers the shard out-of-band (ungated)
            healthy = router.health.tick()
            assert healthy[1] is True
            assert not router.shard_states()[1]["down"]
            assert router.shard_states()[1]["failovers"] == 1


# ----------------------------------------------------------------------
# hedged sub-queries
# ----------------------------------------------------------------------
class TestHedging:
    def test_straggler_is_hedged_and_answer_identical(self):
        rng = np.random.default_rng(50)
        points = _grid(rng, 300)
        ids = np.arange(300, dtype=np.int64)
        plan = ServingFaultPlan(
            seed=10, shard_slow_rate=1.0, shard_slow_seconds=0.25
        )
        metrics = MetricsRegistry()
        with _single(points, ids) as single, _router(
            points, ids, 4,
            hedge=0.02,
            fault_plan=plan,
            metrics=metrics,
        ) as router:
            want = single.query(Query.full("ds"))
            got = router.query(Query.full("ds"))
            _assert_same_answer(got, want)
            assert got.certificate["kind"] == "fresh"
        assert metrics.counter("serving", "shard_slow_injected") == 4
        assert metrics.counter("serving", "hedged_subqueries") == 4
        assert metrics.counter("serving", "hedge_wins") == 4

    def test_hedging_disabled_waits_out_the_straggler(self):
        rng = np.random.default_rng(51)
        points = _grid(rng, 100)
        ids = np.arange(100, dtype=np.int64)
        plan = ServingFaultPlan(
            seed=11, shard_slow_rate=1.0, shard_slow_seconds=0.02
        )
        metrics = MetricsRegistry()
        with _router(
            points, ids, 2, hedge=0.0, fault_plan=plan, metrics=metrics
        ) as router:
            result = router.query(Query.full("ds"))
            assert result.certificate["kind"] == "fresh"
        assert metrics.counter("serving", "hedged_subqueries") == 0


# ----------------------------------------------------------------------
# client facade + replayed workload through the router
# ----------------------------------------------------------------------
class TestClientFacade:
    def test_skyline_client_speaks_to_router(self):
        rng = np.random.default_rng(60)
        points = _grid(rng, 150)
        ids = np.arange(150, dtype=np.int64)
        with _router(points, ids, 3) as router:
            client = SkylineClient(router, "ds")
            full = client.skyline()
            assert full.certificate["kind"] == "fresh"
            snap = router.registry.snapshot("ds")
            assert snap.size == 150
            assert snap.skyline_size == full.ids.shape[0]
            assert snap.version == router.logical_version()

    def test_replay_workload_under_shard_chaos(self, tmp_path):
        rng = np.random.default_rng(61)
        points = _grid(rng, 400)
        ids = np.arange(400, dtype=np.int64)
        plan = ServingFaultPlan(
            seed=12,
            scripted_shard_crashes={2: 20},
            shard_slow_rate=0.05,
            shard_slow_seconds=0.06,
            heartbeat_loss_rate=0.05,
        )
        metrics = MetricsRegistry()
        with _router(
            points, ids, 4,
            hedge=0.02,
            durability_dir=str(tmp_path),
            fault_plan=plan,
            metrics=metrics,
            cooldown=0.02,
            heartbeat_every_ops=16,
        ) as router:
            report = replay_workload(
                router,
                WorkloadSpec(
                    dataset="ds",
                    operations=120,
                    read_fraction=0.8,
                    seed=29,
                    retry_attempts=4,
                    retry_base_delay=0.005,
                ),
            )
            assert report.operations == 120
            assert report.availability >= 0.99, report.failures
            assert metrics.counter("serving", "shard_crashes") == 1
            # the crashed shard came back bit-identically
            state = router.shard_states()[2]
            assert not state["down"]
            assert state["last_failover_identical"] is True


# ----------------------------------------------------------------------
# coordinator merge cache
# ----------------------------------------------------------------------
class TestMergeCacheIdentity:
    """The cached read path is invisible except for being faster.

    Every answer produced from the merge cache, the result cache, or an
    incremental re-merge must be bit-identical to the uncached
    scatter-gather answer — which is itself bit-identical to a single
    unsharded service.
    """

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_repeat_queries_hit_and_stay_identical(self, shards):
        rng = np.random.default_rng(70)
        points, ids = _grid(rng, 300), np.arange(300, dtype=np.int64)
        single = _single(points, ids)
        with _router(points, ids, shards) as router:
            for query in _all_variants():
                first = router.query(query)
                second = router.query(query)
                want = single.query(query)
                _assert_same_answer(first, want, f"first {query.kind}")
                _assert_same_answer(second, want, f"second {query.kind}")
                assert second.cached, query.kind
            stats = router.stats()
            assert stats["merge_cache"]["hits"] > 0
            assert stats["result_cache"]["hits"] > 0

    def test_ignored_weights_share_the_result_cache_entry(self):
        rng = np.random.default_rng(72)
        points, ids = _grid(rng, 200), np.arange(200, dtype=np.int64)
        with _router(points, ids, 4) as router:
            for method in ("sum", "dominance"):
                plain = router.query(Query.topk("ds", 5, method=method))
                hits = router.stats()["result_cache"]["hits"]
                again = router.query(
                    Query.topk("ds", 5, method=method, weights=[1.0] * D)
                )
                assert router.stats()["result_cache"]["hits"] == hits + 1
                _assert_same_answer(again, plain, method)

    def test_single_shard_mutation_remerges_incrementally(self):
        rng = np.random.default_rng(71)
        points, ids = _grid(rng, 400), np.arange(400, dtype=np.int64)
        single = _single(points, ids)
        with _router(points, ids, 4) as router:
            router.query(Query.full("ds"))
            # Delete ids owned by exactly one shard: the other three
            # shards keep their versions, so the re-merge should fold
            # retained trees with fresh ones.
            sid = sorted(router._shards)[0]
            victims = np.array(
                [pid for pid, owner in router._owner.items()
                 if owner == sid][:3],
                dtype=np.int64,
            )
            mutation = Mutation.delete("ds", victims)
            router.mutate(mutation)
            single.mutate(mutation)
            got = router.query(Query.full("ds"))
            _assert_same_answer(got, single.query(Query.full("ds")))
            stats = router.stats()["merge_cache"]
            assert stats["incremental"] >= 1
            assert stats["trees_reused"] >= 1

    def test_disabled_caches_still_identical(self):
        rng = np.random.default_rng(72)
        points, ids = _grid(rng, 250), np.arange(250, dtype=np.int64)
        single = _single(points, ids)
        config = RouterConfig(
            num_shards=3, merge_cache_entries=0, result_cache_entries=0
        )
        with ShardedSkylineService(
            "ds", points, ids=ids, codec=CODEC, config=config,
        ) as router:
            for query in _all_variants():
                got = router.query(query)
                _assert_same_answer(got, single.query(query), query.kind)
            stats = router.stats()
            assert stats["merge_cache"] is None
            assert stats["result_cache"] is None

    def test_negative_cache_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(merge_cache_entries=-1)
        with pytest.raises(ConfigurationError):
            RouterConfig(result_cache_entries=-1)

    def test_mutation_invalidates_via_version_vector(self):
        rng = np.random.default_rng(73)
        points, ids = _grid(rng, 300), np.arange(300, dtype=np.int64)
        single = _single(points, ids)
        with _router(points, ids, 4) as router:
            assert not router.query(Query.full("ds")).cached
            assert router.query(Query.full("ds")).cached
            extra = _grid(rng, 8)
            new_ids = np.arange(1000, 1008, dtype=np.int64)
            mutation = Mutation.insert("ds", extra, new_ids)
            router.mutate(mutation)
            single.mutate(mutation)
            # New vector -> the old entry no longer matches.
            after = router.query(Query.full("ds"))
            assert not after.cached
            _assert_same_answer(after, single.query(Query.full("ds")))
            assert router.query(Query.full("ds")).cached


class TestMergeCacheSemantics:
    """Version-vector keying on the cache object itself: a publish on
    one shard invalidates exactly the keys containing that shard's old
    version, and a reader pinned to an old vector keeps seeing its own
    merge."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.integers(min_value=2, max_value=5),
        publishes=st.lists(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_publish_invalidates_exactly_affected_keys(
        self, seed, shards, publishes
    ):
        from repro.serving import MergeCache, MergedSkyline

        rng = np.random.default_rng(seed)
        cache = MergeCache(max_entries=64)
        vector = {sid: 1 for sid in range(shards)}

        def entry_for(vec):
            pts = rng.random((2, 3))
            return MergedSkyline(
                vector=dict(vec), lost=(),
                points=pts,
                ids=np.arange(2, dtype=np.int64),
            )

        stored = {}
        first = entry_for(vector)
        cache.store(first)
        stored[cache.key(vector, ())] = first
        for publish in publishes:
            sid = publish % shards
            old_vector = dict(vector)
            vector[sid] += 1
            # Pinned read: the old vector still answers from its own
            # merge — a newer publish never leaks into it.
            old_key = cache.key(old_vector, ())
            if old_key in stored:
                got = cache.get(old_vector, ())
                assert got is stored[old_key]
            # The new vector has no entry until someone merges it.
            assert cache.get(vector, ()) is None
            fresh = entry_for(vector)
            cache.store(fresh)
            stored[cache.key(vector, ())] = fresh
            assert cache.get(vector, ()) is fresh

    def test_lost_shards_get_their_own_key(self):
        from repro.serving import MergeCache, MergedSkyline

        cache = MergeCache(max_entries=8)
        vector = {0: 3, 1: 5}
        whole = MergedSkyline(
            vector=dict(vector), lost=(),
            points=np.zeros((1, 2)), ids=np.array([7], dtype=np.int64),
        )
        partial = MergedSkyline(
            vector=dict(vector), lost=(1,),
            points=np.ones((1, 2)), ids=np.array([9], dtype=np.int64),
        )
        cache.store(whole)
        cache.store(partial)
        assert cache.get(vector, ()) is whole
        assert cache.get(vector, (1,)) is partial


# ----------------------------------------------------------------------
# shed-rate fairness
# ----------------------------------------------------------------------
class TestShedFairness:
    def test_ratios_from_admission_deltas(self):
        from repro.serving import shed_ratios_from_admission

        before = {
            0: {"read": {"admitted": 10, "rejected": 0}},
            1: {"read": {"admitted": 5, "rejected": 5}},
        }
        after = {
            0: {"read": {"admitted": 40, "rejected": 10}},
            1: {"read": {"admitted": 25, "rejected": 15}},
            # shard adopted mid-replay: counted from zero
            2: {"read": {"admitted": 9, "rejected": 1}},
            # shard with no traffic in the window: omitted
            3: {"read": {"admitted": 0, "rejected": 0}},
        }
        ratios = shed_ratios_from_admission(before, after)
        assert ratios == {0: 0.25, 1: 1 / 3, 2: 0.1}

    def test_fairness_edge_cases(self):
        from repro.serving import ReplayReport

        report = ReplayReport()
        assert report.shed_fairness == 1.0  # no shards
        report.shard_shed_ratios = {0: 0.2}
        assert report.shed_fairness == 1.0  # one shard: moot
        report.shard_shed_ratios = {0: 0.0, 1: 0.0}
        assert report.shed_fairness == 1.0  # nobody shed
        report.shard_shed_ratios = {0: 0.0, 1: 0.2}
        assert report.shed_fairness == float("inf")
        report.shard_shed_ratios = {0: 0.1, 1: 0.4}
        assert report.shed_fairness == pytest.approx(4.0)
        assert "shed_fairness" in report.summary()

    def test_replay_collects_per_shard_ratios(self):
        rng = np.random.default_rng(74)
        points, ids = _grid(rng, 300), np.arange(300, dtype=np.int64)
        with _router(points, ids, 3) as router:
            report = replay_workload(
                router,
                WorkloadSpec(
                    dataset="ds", operations=40, read_fraction=0.8,
                    seed=5,
                ),
            )
        # Healthy unthrottled run: every shard saw traffic, nobody shed.
        assert set(report.shard_shed_ratios) == {0, 1, 2}
        assert all(r == 0.0 for r in report.shard_shed_ratios.values())
        assert report.shed_fairness == 1.0
