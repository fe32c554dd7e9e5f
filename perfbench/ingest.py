"""``ingest``: the durable write path under a continuous feed.

A durable ``DatasetRegistry`` (WAL fsync per append and a checkpoint
every 8 publishes, both defaults) over an independent base of n=4,000,
d=5.  An ``IngestFeed`` (batch 64, count window 1,000) appends grid
records; each full batch publishes one insert version and, once the
window is full, one delete version for the records that fell out.  A
``ContinuousQuery`` keeps the skyline of the window, a
``SubscriptionHub`` pushes diffs to one consuming subscriber thread and
to one ``max_pending=1`` subscriber that is only drained at the end.

A run plays rounds until its time is spent.  Each round builds the
system afresh in a new durability directory (the set-up that
``setup_s`` times) and feeds it the same seeded stream of 80 batches
(5,120 records).  The base is small enough that window expiries cross
the default drift threshold (deletes above 25% of the alive set) from
about the 36th batch on, so every round pays for drift rebuilds.  How
much maintenance a record costs depends on whether it enters the
window's skyline and what it dominates when it expires, so a stream of
40 batches moved the throughput by a tenth from seed to seed; 80
batches halve that luck's weight.
Because every round starts from the same state, batch ``i`` does the
same work in every round; its times are scaled to the host's nominal
pace (``perfbench/pace.py``) and their medians over the rounds are what
the metrics are computed from.  No reads run here.
The base is the same for every seed; the seed draws the stream.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers, oracle
from perfbench.common import (MIN_ROUNDS, AnswerDigest, Outcome,
                              peak_rss_mb, play_rounds, same_answers)
from perfbench.pace import Pace
from perfbench.stats import MISS, median_per_op, percentile
from perfbench.trace import Tracer

NAME = "stream"
N = 4_000
D = 5
BITS = 12
CELLS = 1 << BITS
FEED_BATCH = 64
WINDOW = 1_000
ROUND_BATCHES = 80
#: The initial dataset is the same for every run; ``--seed`` draws the
#: traffic.  Which base draw a run gets moves its throughput by up to a
#: fifth (the base's skyline decides how much each delete re-promotes),
#: and that is luck of the input, not a property of the build under test.
BASE_SEED = 0
PARAMS = {"base": "independent", "base_seed": BASE_SEED, "n": N, "d": D,
          "bits_per_dim": BITS,
          "feed_batch": FEED_BATCH, "count_window": WINDOW,
          "round": f"{ROUND_BATCHES} batches, fresh system per round",
          "wal": "fsync per append", "checkpoint_every": 8,
          "subscribers": "1 consuming thread + 1 max_pending=1, drained "
          "at the end"}


class System:
    """The durable registry with its feed, standing query and hub."""

    def __init__(self, dataset, work_dir: str) -> None:
        from repro.observability.metrics import MetricsRegistry
        from repro.serving import DatasetRegistry
        from repro.streaming import (ContinuousQueryManager, FeedConfig,
                                     IngestFeed, SubscriptionHub,
                                     WindowSpec)

        self.work_dir = tempfile.mkdtemp(prefix="ingest-", dir=work_dir)
        self.metrics = MetricsRegistry()
        self.registry = DatasetRegistry(metrics=self.metrics,
                                        durability_dir=self.work_dir)
        self.registry.register_dataset(NAME, dataset, bits_per_dim=BITS)
        self.hub = SubscriptionHub(metrics=self.metrics).attach(
            self.registry)
        manager = ContinuousQueryManager(metrics=self.metrics).attach(
            self.registry)
        self.query = manager.register("window", NAME,
                                      WindowSpec.count(WINDOW))
        self.feed = IngestFeed(
            self.registry, NAME, config=FeedConfig(batch_size=FEED_BATCH),
            window=WindowSpec.count(WINDOW), metrics=self.metrics)
        self.consumer = self.hub.subscribe(NAME)
        self.slow = self.hub.subscribe(NAME, max_pending=1)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class Samples:
    """What one round fed and saw, one entry per batch."""

    def __init__(self) -> None:
        #: set-up time, scaled to the nominal pace
        self.setup_s = 0.0
        #: when each batch's hand-over started, and its seconds (the last
        #: record publishes the batch)
        self.starts: List[float] = []
        self.times: List[float] = []
        #: per batch, hand-over and freshness scaled to the nominal pace
        self.scaled: List[float] = []
        self.fresh: List[float] = []
        #: median reference-kernel time of the run so far
        self.pace_s = 0.0
        #: peak resident set size of the process when the round ended
        self.rss_mb = 0.0
        #: insert version -> time its batch's last record was handed over
        self.sent: Dict[int, float] = {}
        #: (from version, to version, received at, published at)
        self.received: List[Tuple[int, int, float, float]] = []
        self.records = 0
        self.elapsed = 0.0
        self.rebuilds = 0
        self.digest = AnswerDigest()
        self.fed: List[Tuple[np.ndarray, np.ndarray]] = []


def _consume(subscription, stop: threading.Event,
             received: List[Tuple[int, int, float, float]]) -> None:
    """The consuming subscriber: note when each diff arrives."""
    while True:
        event = subscription.get(timeout=0.05)
        if event is None:
            if stop.is_set():
                return
            continue
        received.append((getattr(event, "from_version", -1),
                         event.to_version, perf_counter(),
                         event.published_at))


def _stream(seed: int) -> np.ndarray:
    """The round's records: ``ROUND_BATCHES`` batches of grid rows."""
    rng = np.random.default_rng([seed, 29])
    return rng.integers(0, CELLS, size=(ROUND_BATCHES, FEED_BATCH, D)
                        ).astype(np.float64)


def _drive(system: System, stream: np.ndarray, outcome: Outcome,
           samples: Samples, pace: Pace) -> None:
    registry, feed = system.registry, system.feed
    rebuilds_before = system.metrics.counter("serving", "drift_rebuilds")
    stop = threading.Event()
    consumer = threading.Thread(
        target=_consume, args=(system.consumer, stop, samples.received),
        name="bench-subscriber", daemon=True)
    consumer.start()
    start = perf_counter()
    try:
        for rows in stream:
            pace.tick()
            outcome.attempted += FEED_BATCH
            insert_version = registry.version(NAME) + 1
            began = perf_counter()
            samples.starts.append(began)
            try:
                ids = [feed.append(row) for row in rows[:-1]]
                created = perf_counter()
                ids.append(feed.append(rows[-1]))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                outcome.fail(exc)
                outcome.failed += FEED_BATCH - 1
                samples.times.append(MISS)
                continue
            samples.times.append(perf_counter() - began)
            samples.sent[insert_version] = created
            samples.records += FEED_BATCH
            samples.fed.append((np.asarray(ids, dtype=np.int64), rows))
            snapshot = registry.snapshot(NAME)
            samples.digest.add(snapshot.version, np.sort(snapshot.sky_ids))
        samples.elapsed = perf_counter() - start
    finally:
        stop.set()
        consumer.join(timeout=30.0)
    samples.rebuilds = (
        system.metrics.counter("serving", "drift_rebuilds") - rebuilds_before)


def _rounds(dataset, stream: np.ndarray, outcome: Outcome, work_dir: str,
            seconds: float = 0.0, count: Optional[int] = None,
            minimum: int = MIN_ROUNDS) -> Tuple[System, List[Samples]]:
    """Feed the stream to a fresh system each time, for ``seconds`` (or
    exactly ``count`` rounds).  Returns the last system, still open for
    the checks, and each round's samples."""
    held: List[System] = []
    pace = Pace()

    def play(_index: int) -> Samples:
        if held:
            held.pop().close()
        pace.tick(force=True)
        began = perf_counter()
        held.append(System(dataset, work_dir))
        built = perf_counter() - began
        pace.tick(force=True)
        samples = Samples()
        _drive(held[-1], stream, outcome, samples, pace)
        pace.tick(force=True)
        samples.setup_s = pace.scaled([began], [built])[0]
        samples.scaled = pace.scaled(samples.starts, samples.times)
        created, fresh = zip(*_freshness(samples))
        samples.fresh = pace.scaled(created, fresh)
        samples.pace_s = pace.median_s()
        samples.rss_mb = peak_rss_mb()
        return samples

    try:
        rounds = [play(i) for i in range(count)] if count is not None \
            else play_rounds(seconds, play, minimum)
    except BaseException:
        for system in held:
            system.close()
        raise
    return held[0], rounds


def _freshness(samples: Samples) -> List[Tuple[float, float]]:
    """Per batch: when its last record was created, and from then until
    the consumer held a diff that covers the batch's insert version (a
    miss if none did, or if the batch failed)."""
    sent = iter(sorted(samples.sent.items()))
    out = []
    for elapsed in samples.times:
        if elapsed == MISS:
            out.append((0.0, MISS))
            continue
        version, created = next(sent)
        arrival = next((at for lo, hi, at, _pub in samples.received
                        if lo < version <= hi), None)
        out.append((created,
                     MISS if arrival is None else arrival - created))
    return out


def _check(system: System, dataset_points: np.ndarray,
           dataset_ids: np.ndarray, samples: Samples,
           outcome: Outcome) -> None:
    from repro.core.exceptions import DatasetError
    from repro.serving import DatasetRegistry
    from repro.streaming import replay

    registry = system.registry
    live = registry.snapshot(NAME)
    final_sky = frozenset(int(i) for i in live.sky_ids)

    events = []
    while True:
        event = system.slow.get(timeout=0)
        if event is None:
            break
        events.append(event)
    got, version = replay(events, system.slow.start_sky_ids,
                          system.slow.start_version)
    outcome.check("drained coalescing subscriber replays to the final "
                  "skyline", got == final_sky and version == live.version)

    try:
        system.query.verify()
        failure = ""
    except (AssertionError, DatasetError) as exc:
        failure = str(exc) or type(exc).__name__
    outcome.check("ContinuousQuery.verify() passes", not failure, failure)

    fed_ids = np.concatenate([ids for ids, _ in samples.fed])
    fed_rows = np.vstack([rows for _, rows in samples.fed])
    window_ids = fed_ids[-WINDOW:]
    outcome.check(
        "windowed skyline equals the oracle over the last window records",
        sorted(system.query.skyline_ids())
        == oracle.skyline_ids(fed_rows[-WINDOW:], window_ids).tolist())

    alive_ids = np.concatenate([dataset_ids, window_ids])
    alive_rows = np.vstack([dataset_points, fed_rows[-WINDOW:]])
    order = np.argsort(live.ids, kind="stable")
    mine = np.argsort(alive_ids, kind="stable")
    outcome.check(
        "alive set and skyline equal the oracle over base + window",
        np.array_equal(live.ids[order], alive_ids[mine])
        and np.array_equal(live.points[order], alive_rows[mine])
        and np.array_equal(np.sort(live.sky_ids),
                           oracle.skyline_ids(alive_rows, alive_ids)))

    adopted = DatasetRegistry(durability_dir=system.work_dir)
    adopted.adopt(NAME)
    outcome.check("a fresh registry adopting the WAL directory reproduces "
                  "the live state digest",
                  adopted.snapshot(NAME).state_digest()
                  == live.state_digest())


def _fill_metrics(outcome: Outcome, rounds: List[Samples]) -> None:
    typical = median_per_op([r.scaled for r in rounds])
    fresh = median_per_op([r.fresh for r in rounds])
    done = [t for t in typical if t != MISS]
    rate = FEED_BATCH * len(done) / sum(done) if done else 0.0
    outcome.end_to_end = {
        "setup_s": median(r.setup_s for r in rounds),
        "ops_per_s": rate,
        "latency_p50_ms": percentile(fresh, 50) * 1e3,
        "latency_tail_ms": percentile(fresh, 90) * 1e3,
        "peak_rss_mb": rounds[MIN_ROUNDS - 1].rss_mb,
    }
    outcome.value("rounds", len(rounds), "count")
    outcome.value("pace_reference_ms", rounds[-1].pace_s * 1e3, "ms")
    outcome.value("ingest_rps", rate, "records/s",
                  samples=FEED_BATCH * len(done))
    outcome.value("wall_ingest_rps", sum(r.records for r in rounds) / sum(
        r.elapsed for r in rounds), "records/s")
    outcome.name("fresh_p50_ms", fresh, 50, "ms")
    outcome.name("fresh_p90_ms", fresh, 90, "ms")
    outcome.name("batch_p50_ms", typical, 50, "ms")
    outcome.value("rebuilds", rounds[0].rebuilds, "count")


def _notify_ms(received: List[Tuple[int, int, float, float]]) -> float:
    waits = [at - pub for _lo, _hi, at, pub in received if pub]
    return percentile(waits, 50) * 1e3 if waits else 0.0


def run(seed: int, seconds: float, traced: bool, out_dir: str) -> Outcome:
    from repro.data import independent
    from repro.zorder.encoding import quantize_dataset

    outcome = Outcome()
    dataset = independent(N, D, seed=BASE_SEED)
    snapped, _codec = quantize_dataset(dataset, bits_per_dim=BITS)
    stream = _stream(seed)

    if not traced:
        system, rounds = _rounds(dataset, stream, outcome, out_dir,
                                 seconds=seconds)
        try:
            _fill_metrics(outcome, rounds)
            same_answers(outcome, rounds)
            _check(system, snapped.points, snapped.ids, rounds[-1], outcome)
        finally:
            system.close()
        return outcome

    # Traced: the same rounds once plain, once with wrappers.
    system, plain = _rounds(dataset, stream, outcome, out_dir,
                            seconds=seconds / 2, minimum=1)
    system.close()
    tracer = Tracer()
    patches = layers.instrument(tracer)
    system = None
    try:
        mark = perf_counter()
        system, rounds = _rounds(dataset, stream, outcome, out_dir,
                                 count=len(plain))
        patches.restore()
        values = layers.span_metrics(tracer.finished(since=mark))
        ratio = (sum(r.elapsed for r in rounds)
                 / sum(r.elapsed for r in plain))
        values.update({
            "registry.rebuilds": rounds[-1].rebuilds,
            "streaming.notify_ms": _notify_ms(
                [x for r in rounds for x in r.received]),
            "streaming.diffs_coalesced": system.metrics.counter(
                "streaming", "diffs_coalesced"),
            "trace.overhead_ratio": ratio,
        })
        outcome.layers = values
        outcome.value("trace.overhead_ratio", ratio, "ratio",
                      samples=len(rounds))
        outcome.value("rebuilds", rounds[-1].rebuilds, "count")
        same_answers(outcome, plain + rounds)
        _check(system, snapped.points, snapped.ids, rounds[-1], outcome)
    finally:
        patches.restore()
        if system is not None:
            system.close()
    tracer.write_jsonl(f"{out_dir}/trace-ingest-{seed}.jsonl")
    return outcome
