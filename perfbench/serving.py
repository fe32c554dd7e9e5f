"""``serve`` and ``sharded``: one closed-loop client against the serving tier.

Both workloads run the same data and the same operations; ``serve``
sends them to one ``SkylineService``, ``sharded`` to a 4-shard
``ShardedSkylineService``, so the difference between the two is the
router's cost.  Service and router configs are the defaults.

A run plays rounds until its time is spent.  Each round builds the
system afresh (the set-up that ``setup_s`` times) and replays the same
seeded round of operations from one client thread that waits for every
reply.  Because every round starts from the same state, operation ``i``
does the same work in every round; its time is scaled to the host's
nominal pace (``perfbench/pace.py``) and its median over the rounds is
what the metrics are computed from.

A round is 88 operations: 80 reads and, after every tenth read, a
write.  Writes alternate an insert of 8 new grid points and a delete of
8 alive ids, one of them a skyline point (the one that costs the
maintainer re-promotion work).  The reads are two shuffled decks of 40
that each hold the mix exactly: full 40%, topk 30% (sum, weighted,
dominance and representative equally), subspace 15%, explain 10%,
kdominant 5%.  The mix is an assumption, not a recorded trace: most dashboard reads are the
plain skyline, ranked views are next, and the expensive analyses are
rare.  The parameters that set a query's cost are dealt from fixed
sets too (the k of kdominant and topk, the size of a subspace, explain
by id or by point), and no kdominant, topk or subspace query repeats
within a round, so none is a cache hit by luck of the draw.  The seed
moves the order and which points, dimensions and weights a query names,
not how much work a round holds.

The initial dataset is the same for every seed; the seed draws the
traffic (deck order, parameters, inserted points, deleted ids).
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers, oracle
from perfbench.common import (MIN_ROUNDS, AnswerDigest, Outcome,
                              peak_rss_mb, play_rounds, same_answers,
                              same_array)
from perfbench.pace import Pace
from perfbench.stats import MISS, median_per_op, percentile
from perfbench.trace import Tracer

NAME = "bench"
N = 2_500
D = 5
BITS = 12
CELLS = 1 << BITS
BATCH = 8
READS_PER_WRITE = 10
ROUND_DECKS = 2
#: The initial dataset is the same for every run; ``--seed`` draws the
#: traffic.  Which base draw a run gets moves its throughput by up to a
#: fifth (the base's skyline decides how much each delete re-promotes),
#: and that is luck of the input, not a property of the build under test.
BASE_SEED = 0
READ_DECK = (
    ["full"] * 16
    + ["topk:sum", "topk:weighted", "topk:dominance",
       "topk:representative"] * 3
    + ["subspace"] * 6 + ["explain"] * 4 + ["kdominant"] * 2
)
WRITES = ("insert", "delete")


def params(sharded: bool) -> dict:
    return {
        "target": "ShardedSkylineService(4 shards)" if sharded
        else "SkylineService", "distribution": "independent", "n": N,
        "base_seed": BASE_SEED,
        "d": D, "bits_per_dim": BITS, "reads_per_write": READS_PER_WRITE,
        "batch": BATCH, "read_deck": len(READ_DECK),
        "round": f"{ROUND_DECKS} decks of reads, fresh system per round",
        "client": "closed loop, 1 thread",
    }


class OpStream:
    """One seeded round of operations, and the benchmark's own copy of
    the alive set (ids and grid points) after it, for the oracles."""

    def __init__(self, seed: int, ids: np.ndarray, points: np.ndarray,
                 decks: int = ROUND_DECKS) -> None:
        from repro.serving import Mutation, Query

        self._query = Query
        self._mutation = Mutation
        self.rng = rng = np.random.default_rng([seed, 17])
        order = np.argsort(ids, kind="stable")
        self.ids = np.asarray(ids, dtype=np.int64)[order]
        self.points = np.asarray(points, dtype=np.float64)[order]
        self.next_id = int(self.ids.max()) + 1
        #: every mutation issued, in order
        self.mutations: List = []
        labels = [str(label) for _ in range(decks)
                  for label in rng.permutation(READ_DECK)]
        self._ks = self._dealt(labels.count("kdominant"), range(2, D + 1))
        sizes = self._dealt(labels.count("subspace"), range(2, D))
        self._dims = []
        for size in sizes:
            choices = list(combinations(range(D), int(size)))
            taken = {dims for dims in self._dims if len(dims) == size}
            fresh = [dims for dims in choices if dims not in taken]
            self._dims.append(fresh[int(rng.integers(len(fresh)))])
        self._by_id = self._dealt(labels.count("explain"), (True, False))
        self._topk_k = {}
        for label in sorted(set(labels)):
            if label.startswith("topk:"):
                count = labels.count(label)
                self._topk_k[label] = self._dealt(
                    count, np.linspace(1, 10, count).round().astype(int))
        #: (label, request) for every operation of the round, in order
        self.ops: List[Tuple[str, object]] = []
        for index, label in enumerate(labels):
            self.ops.append((label, self._read(label)))
            if (index + 1) % READS_PER_WRITE == 0:
                insert = len(self.mutations) % 2 == 0
                self.ops.append(("insert", self._insert()) if insert
                                else ("delete", self._delete()))

    def _dealt(self, count: int, values) -> list:
        """``count`` values that hold each of ``values`` equally often
        (up to one), in seeded order."""
        return list(self.rng.permutation(np.resize(list(values), count)))

    def _insert(self):
        points = self.rng.integers(0, CELLS, size=(BATCH, D)).astype(
            np.float64)
        ids = np.arange(self.next_id, self.next_id + BATCH, dtype=np.int64)
        self.next_id += BATCH
        self.ids = np.concatenate([self.ids, ids])
        self.points = np.vstack([self.points, points])
        mutation = self._mutation.insert(NAME, points, ids)
        self.mutations.append(mutation)
        return mutation

    def _delete(self):
        sky = np.isin(self.ids, oracle.skyline_ids(self.points, self.ids))
        doomed = np.concatenate([
            self.rng.choice(self.ids[sky], size=1, replace=False),
            self.rng.choice(self.ids[~sky], size=BATCH - 1, replace=False)])
        keep = ~np.isin(self.ids, doomed)
        self.ids = self.ids[keep]
        self.points = self.points[keep]
        mutation = self._mutation.delete(NAME, doomed)
        self.mutations.append(mutation)
        return mutation

    def _read(self, label: str):
        rng, query = self.rng, self._query
        kind, _, method = label.partition(":")
        if kind == "full":
            return query.full(NAME)
        if kind == "subspace":
            return query.subspace(NAME, list(self._dims.pop()))
        if kind == "kdominant":
            return query.kdominant(NAME, int(self._ks.pop()))
        if kind == "topk":
            weights = tuple(float(w) for w in rng.random(D)) \
                if method == "weighted" else None
            return query.topk(NAME, int(self._topk_k[label].pop()),
                              method=method, weights=weights)
        if self._by_id.pop():
            return query.explain(NAME, point_id=int(rng.choice(self.ids)))
        point = rng.integers(0, CELLS, size=D).astype(np.float64)
        return query.explain(NAME, point=point)


def _build(sharded: bool, dataset, metrics):
    from repro.serving import (DatasetRegistry, ShardedSkylineService,
                               SkylineService)

    if sharded:
        return ShardedSkylineService.from_dataset(
            NAME, dataset, bits_per_dim=BITS, metrics=metrics)
    registry = DatasetRegistry(metrics=metrics)
    registry.register_dataset(NAME, dataset, bits_per_dim=BITS)
    return SkylineService(registry, metrics=metrics)


class Samples:
    """What the client saw in one round, one entry per operation."""

    def __init__(self, setup_s: float = 0.0) -> None:
        #: the round's set-up time, scaled to the nominal pace
        self.setup_s = setup_s
        #: when each operation started, and its seconds (a miss is
        #: ``MISS``), in round order
        self.starts: List[float] = []
        self.times: List[float] = []
        #: ``times`` scaled to the nominal pace
        self.scaled: List[float] = []
        #: median reference-kernel time of the run so far
        self.pace_s = 0.0
        #: peak resident set size of the process when the round ended
        self.rss_mb = 0.0
        #: (class, cached, service seconds, queue wait seconds) per read
        self.results: List[Tuple[str, bool, float, float]] = []
        self.elapsed = 0.0
        self.digest = AnswerDigest()


def _drive(service, stream: OpStream, outcome: Outcome, samples: Samples,
           pace: Pace) -> None:
    """Closed loop: issue the round's next operation when the last one
    returned, timing the reference kernel in between now and then."""
    start = perf_counter()
    for label, request in stream.ops:
        pace.tick()
        outcome.attempted += 1
        write = label in WRITES
        began = perf_counter()
        try:
            result = service.mutate(request) if write \
                else service.query(request)
        except Exception as exc:  # noqa: BLE001 - a failure is a miss
            outcome.fail(exc)
            elapsed = MISS
            samples.digest.add(label, type(exc).__name__)
        else:
            elapsed = perf_counter() - began
            if write:
                samples.digest.add(label, result.version)
            else:
                samples.digest.add(label, result.ids, result.scores)
                samples.results.append((
                    label.replace(":", "."), result.cached,
                    result.service_seconds,
                    result.queue_wait_seconds))
        samples.starts.append(began)
        samples.times.append(elapsed)
    samples.elapsed = perf_counter() - start


def _rounds(sharded: bool, dataset, stream: OpStream, outcome: Outcome,
            seconds: float = 0.0, count: Optional[int] = None,
            minimum: int = MIN_ROUNDS):
    """Play the round on a fresh system each time, for ``seconds`` (or
    exactly ``count`` rounds).  Returns the last system, still open for
    the checks, and each round's samples."""
    from repro.observability.metrics import MetricsRegistry

    held: list = []
    pace = Pace()

    def play(_index: int) -> Samples:
        if held:
            held.pop().close()
        pace.tick(force=True)
        began = perf_counter()
        service = _build(sharded, dataset, MetricsRegistry())
        held.append(service)
        built = perf_counter() - began
        pace.tick(force=True)
        samples = Samples()
        _drive(service, stream, outcome, samples, pace)
        pace.tick(force=True)
        samples.setup_s = pace.scaled([began], [built])[0]
        samples.scaled = pace.scaled(samples.starts, samples.times)
        samples.pace_s = pace.median_s()
        samples.rss_mb = peak_rss_mb()
        return samples

    try:
        rounds = [play(i) for i in range(count)] if count is not None \
            else play_rounds(seconds, play, minimum)
    except BaseException:
        for service in held:
            service.close()
        raise
    return held[0], rounds


def _final_queries(stream: OpStream) -> list:
    """One or more final queries of every kind, for the checks."""
    from repro.serving import Query

    anchor = int(stream.ids[len(stream.ids) // 2])
    return [
        Query.full(NAME),
        Query.subspace(NAME, [0, 1]),
        Query.subspace(NAME, [1, 3, 4]),
        Query.kdominant(NAME, D - 1),
        Query.topk(NAME, 5, method="sum"),
        Query.topk(NAME, 5, method="weighted",
                   weights=(0.5, 1.0, 0.25, 2.0, 1.5)),
        Query.topk(NAME, 5, method="dominance"),
        Query.topk(NAME, 3, method="representative"),
        Query.explain(NAME, point_id=anchor),
        Query.explain(NAME, point=(CELLS // 2,) * D),
    ]


def _oracle_matches(query, result, points: np.ndarray, ids: np.ndarray
                    ) -> bool:
    """Does a service answer equal the brute-force answer?"""
    if query.kind == "full":
        return np.array_equal(result.ids, oracle.skyline_ids(points, ids))
    if query.kind == "subspace":
        return np.array_equal(
            result.ids, oracle.subspace_ids(points, ids, list(query.dims)))
    if query.kind == "kdominant":
        return np.array_equal(result.ids,
                              oracle.kdominant_ids(points, ids, query.k))
    if query.kind == "topk":
        want_ids, want_scores = oracle.topk(points, ids, query.k,
                                            query.method, query.weights)
        return np.array_equal(result.ids, want_ids) and (
            want_scores is None or np.array_equal(result.scores, want_scores))
    if query.point_id is not None:
        point = points[int(np.flatnonzero(ids == query.point_id)[0])]
    else:
        point = np.asarray(query.point, dtype=np.float64)
    want = oracle.explain(point, points, ids)
    got = result.explanation
    return (np.array_equal(result.ids, want["dominator_ids"])
            and got.is_skyline_member == want["member"]
            and dict(got.single_dimension_fixes) == want["fixes"])


def _replayed_registry(dataset, stream: OpStream):
    """A fresh single registry fed the same mutation batches."""
    from repro.serving import DatasetRegistry

    registry = DatasetRegistry()
    registry.register_dataset(NAME, dataset, bits_per_dim=BITS)
    for mutation in stream.mutations:
        if mutation.kind == "insert":
            registry.insert(NAME, mutation.points, mutation.ids)
        else:
            registry.delete(NAME, mutation.ids)
    return registry


def _check(sharded: bool, service, dataset, stream: OpStream,
           outcome: Outcome) -> None:
    from repro.serving.service import execute_on_snapshot

    replayed = _replayed_registry(dataset, stream)
    snapshot = replayed.snapshot(NAME)
    theirs = np.argsort(snapshot.ids, kind="stable")
    mine = np.argsort(stream.ids, kind="stable")
    outcome.check(
        "a fresh registry fed the same batches holds the benchmark's copy "
        "of the alive set",
        np.array_equal(snapshot.ids[theirs], stream.ids[mine])
        and np.array_equal(snapshot.points[theirs], stream.points[mine]))
    for query in _final_queries(stream):
        result = service.query(query)
        label = f"{query.kind}:{query.method}" if query.kind == "topk" \
            else query.kind
        if sharded:
            want = execute_on_snapshot(query, snapshot)
            same = (same_array(result.ids, want.ids)
                    and same_array(result.points, want.points)
                    and same_array(result.scores, want.scores))
            if query.kind == "explain":
                same = same and (
                    result.explanation.is_skyline_member
                    == want.explanation.is_skyline_member
                    and result.explanation.single_dimension_fixes
                    == want.explanation.single_dimension_fixes)
            outcome.check(f"final {label} bit-identical to a single "
                          "registry fed the same mutations", same)
        else:
            outcome.check(f"final {label} equals the brute-force oracle",
                          _oracle_matches(query, result, stream.points,
                                          stream.ids))
    if not sharded:
        live = service.registry.snapshot(NAME).state_digest()
        outcome.check(
            "state digest equals a fresh registry fed the same batches",
            live == snapshot.state_digest())


def _fill_metrics(outcome: Outcome, stream: OpStream,
                  rounds: List[Samples]) -> None:
    typical = median_per_op([r.scaled for r in rounds])
    labels = [label for label, _request in stream.ops]
    reads = [t for t, label in zip(typical, labels) if label not in WRITES]
    done = [t for t in typical if t != MISS]
    outcome.end_to_end = {
        "setup_s": median(r.setup_s for r in rounds),
        "ops_per_s": len(done) / sum(done) if done else 0.0,
        "latency_p50_ms": percentile(reads, 50) * 1e3,
        "latency_tail_ms": percentile(reads, 90) * 1e3,
        "peak_rss_mb": rounds[MIN_ROUNDS - 1].rss_mb,
    }
    outcome.value("rounds", len(rounds), "count")
    outcome.value("pace_reference_ms", rounds[-1].pace_s * 1e3, "ms")
    outcome.value("ops_per_s", outcome.end_to_end["ops_per_s"], "ops/s",
                  samples=len(done))
    outcome.value("wall_ops_per_s", outcome.attempted / sum(
        r.elapsed for r in rounds), "ops/s", samples=outcome.attempted)
    outcome.name("read_p50_ms", reads, 50, "ms")
    outcome.name("read_p90_ms", reads, 90, "ms")
    outcome.name("write_p50_ms", [t for t, label in zip(typical, labels)
                                  if label in WRITES], 50, "ms")
    for kind in WRITES:
        outcome.name(f"{kind}_p50_ms", [
            t for t, label in zip(typical, labels) if label == kind],
            50, "ms")
    outcome.name("wall_read_p50_ms", [
        t for r in rounds for t, label in zip(r.times, labels)
        if label not in WRITES], 50, "ms")
    results = rounds[0].results
    hits = sum(1 for _k, cached, _s, _w in results if cached)
    outcome.value("read_cached_ratio", hits / max(1, len(results)),
                  "ratio", samples=len(results))


def _result_layers(sharded: bool, service,
                   results: List[Tuple[str, bool, float, float]]
                   ) -> Dict[str, float]:
    """Per-layer values read from results and ``stats()``.

    ``service.exec_ms`` counts only uncached answers: a service cache hit
    skips execution.  The router marks an answer cached when its shard
    sub-answers were, yet still merges and ranks on the coordinator, so
    ``router.exec_ms`` counts every answer.
    """
    values: Dict[str, float] = {}
    prefix = "router" if sharded else "service"
    for kind in layers.KINDS:
        timed = [s for k, cached, s, _w in results
                 if k == kind and (sharded or not cached)]
        values[f"{prefix}.exec_ms.{kind}"] = (
            percentile(timed, 50) * 1e3 if timed else 0.0)
    if sharded:
        stats = service.stats()
        for cache in ("merge_cache", "result_cache"):
            entry = stats.get(cache) or {}
            total = entry.get("hits", 0) + entry.get("misses", 0)
            values[f"router.{cache}_hit_ratio"] = (
                entry.get("hits", 0) / total if total else 0.0)
    else:
        entry = service.cache.stats()
        total = entry["hits"] + entry["misses"]
        values["cache.hit_ratio"] = entry["hits"] / total if total else 0.0
        waits = [w for _k, _c, _s, w in results]
        if waits:
            values["admission.wait_p50_ms"] = percentile(waits, 50) * 1e3
            values["admission.wait_p99_ms"] = percentile(waits, 99) * 1e3
    return values


def run(sharded: bool, seed: int, seconds: float, traced: bool,
        out_dir: str) -> Outcome:
    from repro.data import independent
    from repro.zorder.encoding import quantize_dataset

    outcome = Outcome()
    dataset = independent(N, D, seed=BASE_SEED)
    snapped, _codec = quantize_dataset(dataset, bits_per_dim=BITS)
    stream = OpStream(seed, snapped.ids, snapped.points)

    if not traced:
        service, rounds = _rounds(sharded, dataset, stream, outcome,
                                  seconds=seconds)
        with service:
            _fill_metrics(outcome, stream, rounds)
            same_answers(outcome, rounds)
            _check(sharded, service, dataset, stream, outcome)
        return outcome

    # Traced: the same rounds once plain, once with wrappers.
    service, plain = _rounds(sharded, dataset, stream, outcome,
                             seconds=seconds / 2, minimum=1)
    service.close()
    tracer = Tracer()
    patches = layers.instrument(tracer)
    try:
        mark = perf_counter()
        service, rounds = _rounds(sharded, dataset, stream, outcome,
                                  count=len(plain))
        with service:
            spans = tracer.finished(since=mark)
            patches.restore()
            values = layers.span_metrics(spans)
            values.update(_result_layers(
                sharded, service, [x for r in rounds for x in r.results]))
            ratio = (sum(r.elapsed for r in rounds)
                     / sum(r.elapsed for r in plain))
            values["trace.overhead_ratio"] = ratio
            outcome.layers = values
            outcome.value("trace.overhead_ratio", ratio, "ratio",
                          samples=len(rounds))
            same_answers(outcome, plain + rounds)
            _check(sharded, service, dataset, stream, outcome)
    finally:
        patches.restore()
    tracer.write_jsonl(
        f"{out_dir}/trace-{'sharded' if sharded else 'serve'}-{seed}.jsonl")
    return outcome
