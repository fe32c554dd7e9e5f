"""The :class:`SkylineService`: a long-lived, concurrent query engine.

One service instance serves typed queries over the datasets of a
:class:`~repro.serving.registry.DatasetRegistry`:

* ``full`` — the maintained skyline of the snapshot;
* ``subspace`` — skyline over a dimension subset
  (:func:`repro.extensions.subspace.subspace_skyline`);
* ``kdominant`` — the k-dominant skyline
  (:func:`repro.extensions.kdominant.k_dominant_skyline`);
* ``topk`` — ranked/representative top-k over the skyline
  (:mod:`repro.extensions.ranking`);
* ``explain`` — why-not explanation for a point or a stored id
  (:func:`repro.extensions.explain.why_not`), plus the live
  skyline-membership probe.

Every query executes against the immutable snapshot that is current at
execution time, so concurrent mutations never tear a result; the
snapshot's version is recorded on the result and keys the result
cache.  Requests pass admission control (bounded queues, load
shedding), run on small per-class worker pools, honour per-query
deadlines with the same :class:`DeadlineExceededError` contract the
pipeline supervisor uses, and emit one tracer span each.

Results are **canonical**: set-valued answers (full/subspace/
kdominant) are sorted by id, so a service answer is bit-comparable to
an offline recomputation on the same snapshot regardless of internal
iteration order.
"""

from __future__ import annotations

import json
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import monotonic, sleep
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import (
    ConfigurationError,
    DatasetError,
    DeadlineExceededError,
    QueryPoisonedError,
    WriterDownError,
    is_retryable,
)
from repro.extensions.explain import WhyNotExplanation, why_not
from repro.extensions.kdominant import k_dominant_skyline
from repro.extensions.ranking import rank_skyline, top_k_skyline
from repro.extensions.subspace import subspace_skyline
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.serving.admission import (
    MUTATE,
    READ,
    AdmissionConfig,
    AdmissionController,
    Ticket,
)
from repro.serving.cache import ResultCache
from repro.serving.faults import ServingFaultPlan
from repro.serving.registry import (
    SERVING_GROUP,
    DatasetRegistry,
    PublishResult,
)
from repro.serving.resilience import CircuitBreaker
from repro.serving.snapshot import Snapshot

QUERY_KINDS = ("full", "subspace", "kdominant", "topk", "explain")
TOPK_METHODS = ("sum", "weighted", "dominance", "representative")


# ----------------------------------------------------------------------
# request types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Query:
    """One typed read query (immutable; construct via the factories)."""

    kind: str
    dataset: str
    dims: Tuple[int, ...] = ()
    k: int = 0
    method: str = "sum"
    weights: Optional[Tuple[float, ...]] = None
    point: Optional[Tuple[float, ...]] = None
    point_id: Optional[int] = None
    timeout_seconds: Optional[float] = None

    # -- factories -----------------------------------------------------
    @classmethod
    def full(cls, dataset: str, **kw: Any) -> "Query":
        return cls(kind="full", dataset=dataset, **kw)

    @classmethod
    def subspace(
        cls, dataset: str, dims: Sequence[int], **kw: Any
    ) -> "Query":
        return cls(
            kind="subspace", dataset=dataset,
            dims=tuple(int(d) for d in dims), **kw,
        )

    @classmethod
    def kdominant(cls, dataset: str, k: int, **kw: Any) -> "Query":
        return cls(kind="kdominant", dataset=dataset, k=int(k), **kw)

    @classmethod
    def topk(
        cls,
        dataset: str,
        k: int,
        method: str = "sum",
        weights: Optional[Sequence[float]] = None,
        **kw: Any,
    ) -> "Query":
        return cls(
            kind="topk", dataset=dataset, k=int(k), method=method,
            weights=None if weights is None else tuple(
                float(w) for w in weights
            ),
            **kw,
        )

    @classmethod
    def explain(
        cls,
        dataset: str,
        point: Optional[Sequence[float]] = None,
        point_id: Optional[int] = None,
        **kw: Any,
    ) -> "Query":
        return cls(
            kind="explain", dataset=dataset,
            point=None if point is None else tuple(float(v) for v in point),
            point_id=None if point_id is None else int(point_id),
            **kw,
        )

    # -- validation / identity -----------------------------------------
    def validate(self, dimensions: int) -> None:
        """Reject a query that is malformed for a ``dimensions``-d
        dataset (raises :class:`ConfigurationError`)."""
        if self.kind not in QUERY_KINDS:
            raise ConfigurationError(f"unknown query kind {self.kind!r}")
        if self.kind == "subspace" and (
            not self.dims
            or len(set(self.dims)) != len(self.dims)
            or not all(0 <= d < dimensions for d in self.dims)
        ):
            raise ConfigurationError(
                f"subspace query needs distinct dims in "
                f"[0, {dimensions}); got {list(self.dims)}"
            )
        if self.kind in ("kdominant", "topk") and self.k <= 0:
            raise ConfigurationError(f"{self.kind} query needs k >= 1")
        if self.kind == "kdominant" and self.k > dimensions:
            raise ConfigurationError(
                f"kdominant query needs k <= {dimensions}; got {self.k}"
            )
        if self.kind == "topk":
            if self.method not in TOPK_METHODS:
                raise ConfigurationError(
                    f"topk method must be one of {TOPK_METHODS}; "
                    f"got {self.method!r}"
                )
            if self.method == "weighted" and (
                self.weights is None
                or len(self.weights) != dimensions
                or not all(np.isfinite(w) and w >= 0 for w in self.weights)
            ):
                raise ConfigurationError(
                    f"weighted topk needs {dimensions} finite, "
                    f"non-negative weights; got {self.weights}"
                )
        if self.kind == "explain":
            if (self.point is None) == (self.point_id is None):
                raise ConfigurationError(
                    "explain query needs exactly one of point / point_id"
                )
            if self.point is not None and np.shape(self.point) != (
                dimensions,
            ):
                raise ConfigurationError(
                    f"explain point must be {dimensions}-D"
                )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")

    def fingerprint(self) -> str:
        """Canonical identity of the query *computation* (excludes the
        deadline, which affects scheduling but never the answer)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "subspace":
            payload["dims"] = sorted(self.dims)
        elif self.kind == "kdominant":
            payload["k"] = self.k
        elif self.kind == "topk":
            payload["k"] = self.k
            payload["method"] = self.method
            # Only the weighted method reads its weights.
            if self.method == "weighted":
                payload["weights"] = [repr(w) for w in self.weights]
        elif self.kind == "explain":
            if self.point is not None:
                payload["point"] = [repr(v) for v in self.point]
            else:
                payload["point_id"] = self.point_id
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class Mutation:
    """One write batch (insert or delete)."""

    kind: str  # "insert" | "delete"
    dataset: str
    points: Optional[np.ndarray] = None
    ids: Optional[np.ndarray] = None
    timeout_seconds: Optional[float] = None

    @classmethod
    def insert(
        cls,
        dataset: str,
        points: np.ndarray,
        ids: Sequence[int],
        **kw: Any,
    ) -> "Mutation":
        return cls(
            kind="insert", dataset=dataset,
            points=np.asarray(points, dtype=np.float64),
            ids=np.asarray(ids, dtype=np.int64), **kw,
        )

    @classmethod
    def delete(cls, dataset: str, ids: Sequence[int], **kw: Any) -> "Mutation":
        return cls(
            kind="delete", dataset=dataset,
            ids=np.asarray(ids, dtype=np.int64), **kw,
        )

    def validate(self) -> None:
        if self.kind not in ("insert", "delete"):
            raise ConfigurationError(f"unknown mutation kind {self.kind!r}")
        if self.ids is None:
            raise ConfigurationError("mutation needs ids")
        if self.kind == "insert" and self.points is None:
            raise ConfigurationError("insert needs points")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")


# ----------------------------------------------------------------------
# result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryResult:
    """Answer + provenance of one read query."""

    kind: str
    dataset: str
    #: snapshot version the answer was computed on
    version: int
    points: np.ndarray
    ids: np.ndarray
    scores: Optional[np.ndarray] = None
    explanation: Optional[WhyNotExplanation] = None
    #: live (current-version) skyline membership for explain-by-id;
    #: deliberately *not* part of the cached payload
    live_member: Optional[bool] = None
    cached: bool = False
    queue_wait_seconds: float = 0.0
    service_seconds: float = 0.0
    #: answer provenance under the degradation ladder: ``{"kind":
    #: "fresh" | "stale" | "partial", "version": ..., ...}`` — ``stale``
    #: while the writer is down (bounded-staleness snapshot),
    #: ``partial`` on a post-recovery snapshot whose WAL replay dropped
    #: a torn tail frame.  Computed per request, never cached.
    certificate: Optional[Dict[str, Any]] = None

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one write batch: the published version."""

    publish: PublishResult
    queue_wait_seconds: float = 0.0
    service_seconds: float = 0.0

    @property
    def version(self) -> int:
        return self.publish.version


@dataclass(frozen=True)
class _Payload:
    """The cacheable core of a read answer (snapshot-deterministic)."""

    points: np.ndarray
    ids: np.ndarray
    scores: Optional[np.ndarray] = None
    explanation: Optional[WhyNotExplanation] = None


@dataclass
class _Request:
    """Internal queue item."""

    future: Future
    ticket: Ticket
    query: Optional[Query] = None
    mutation: Optional[Mutation] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    #: execution attempts so far (a worker crash re-enqueues the
    #: request; after ``max_requeues`` re-enqueues it is quarantined)
    attempts: int = 0
    #: stable per-class dequeue index — the identity the fault plan's
    #: keyed draws hash, assigned at first dequeue and kept across
    #: re-enqueues so a retried request re-draws by attempt number
    op_index: Optional[int] = None


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs."""

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: result-cache capacity; 0 disables caching
    cache_entries: int = 512
    #: seeded chaos schedule (worker crashes, cache corruption, queue
    #: delays); None = no injection.  Writer crashes are injected by
    #: the *registry's* plan — pass the same plan to both.
    fault_plan: Optional[ServingFaultPlan] = None
    #: on WriterDownError from a durable registry, replay the WAL and
    #: resolve the mutation in place (exactly-once semantics)
    auto_recover_writer: bool = True
    #: per-dataset circuit breaker over mutations; 0 disables it
    circuit_failure_threshold: int = 5
    circuit_cooldown_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.cache_entries < 0:
            raise ConfigurationError("cache_entries must be >= 0")
        if self.circuit_failure_threshold < 0:
            raise ConfigurationError(
                "circuit_failure_threshold must be >= 0"
            )
        if self.circuit_cooldown_seconds < 0:
            raise ConfigurationError(
                "circuit_cooldown_seconds must be >= 0"
            )


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class SkylineService:
    """Bounded worker pools serving typed skyline queries.

    Use as a context manager (``with SkylineService(registry) as svc:``)
    or call :meth:`close` explicitly; workers are daemon threads either
    way.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServiceConfig()
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.admission = AdmissionController(
            self.config.admission, metrics=metrics
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(
                self.config.cache_entries,
                metrics=metrics,
                fault_plan=self.config.fault_plan,
            )
            if self.config.cache_entries
            else None
        )
        self._queues: Dict[str, "queue.Queue[Optional[_Request]]"] = {
            READ: queue.Queue(),
            MUTATE: queue.Queue(),
        }
        self._workers: list = []
        self._worker_serial = 0
        self._closed = False
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        #: per-class dequeue counters (fault-plan draw identities)
        self._dequeues: Dict[str, int] = {READ: 0, MUTATE: 0}
        self._dequeue_lock = threading.Lock()
        for klass in (READ, MUTATE):
            for _ in range(self.config.admission.concurrency(klass)):
                self._spawn_worker(klass)

    def _spawn_worker(self, klass: str) -> None:
        self._worker_serial += 1
        worker = threading.Thread(
            target=self._worker_loop,
            args=(klass,),
            name=f"skyline-{klass}-{self._worker_serial}",
            daemon=True,
        )
        worker.start()
        self._workers.append((klass, worker))

    def _breaker(self, dataset: str) -> Optional[CircuitBreaker]:
        if self.config.circuit_failure_threshold == 0:
            return None
        with self._breaker_lock:
            breaker = self._breakers.get(dataset)
            if breaker is None:
                breaker = CircuitBreaker(
                    dataset,
                    failure_threshold=self.config.circuit_failure_threshold,
                    cooldown_seconds=self.config.circuit_cooldown_seconds,
                    on_transition=self._on_breaker_transition,
                )
                self._breakers[dataset] = breaker
            return breaker

    def _on_breaker_transition(
        self, dataset: str, old: str, new: str
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, f"circuit_{new}")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, request) -> Future:
        """Admit a :class:`Query` or :class:`Mutation`; returns a
        Future resolving to :class:`QueryResult` /
        :class:`MutationResult`.

        Raises synchronously on invalid requests
        (:class:`ConfigurationError`), unknown datasets
        (:class:`DatasetError`), shed requests
        (:class:`~repro.core.exceptions.OverloadedError`), and
        mutations against a tripped breaker
        (:class:`~repro.core.exceptions.CircuitOpenError`).
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        # Fail fast on unknown datasets (before burning a queue slot).
        snapshot = self.registry.snapshot(request.dataset)
        klass = READ if isinstance(request, Query) else MUTATE
        if klass == READ:
            request.validate(snapshot.dimensions)
        else:
            request.validate()
        if klass == MUTATE:
            # The breaker gates *writes* only: reads degrade to the
            # last published snapshot instead of failing (see the
            # certificate on QueryResult).
            breaker = self._breaker(request.dataset)
            if breaker is not None:
                try:
                    breaker.allow()
                except Exception:
                    if self.metrics is not None:
                        self.metrics.inc(SERVING_GROUP, "circuit_rejected")
                    raise
        try:
            ticket = self.admission.admit(klass, request.timeout_seconds)
        except BaseException:
            if klass == MUTATE and self._breakers.get(request.dataset):
                # allow() may have claimed the half-open probe slot.
                self._breakers[request.dataset].abort_probe()
            raise
        future: Future = Future()
        item = _Request(future=future, ticket=ticket)
        if klass == READ:
            item.query = request
        else:
            item.mutation = request
        self._queues[klass].put(item)
        return future

    def query(
        self, request: Query, timeout: Optional[float] = None
    ) -> QueryResult:
        """Submit a read and wait for its answer."""
        return self.submit(request).result(timeout=timeout)

    def ping(self, dataset: str) -> int:
        """Cheap liveness probe: the service accepts work and the
        dataset's current snapshot is readable.  Returns the published
        version (what a health monitor wants to record)."""
        if self._closed:
            raise ConfigurationError("service is closed")
        return self.registry.snapshot(dataset).version

    def mutate(
        self, request: Mutation, timeout: Optional[float] = None
    ) -> MutationResult:
        """Submit a write batch and wait for the published version."""
        return self.submit(request).result(timeout=timeout)

    def close(self) -> None:
        """Drain workers and stop accepting requests (idempotent).

        Any request still queued behind the shutdown sentinels (e.g.
        one re-enqueued by a worker crash that raced ``close``) has its
        future failed rather than left hanging — every submitted future
        resolves.
        """
        if self._closed:
            return
        self._closed = True
        for klass, _worker in self._workers:
            self._queues[klass].put(None)
        for _klass, worker in self._workers:
            worker.join(timeout=5.0)
        for klass in (READ, MUTATE):
            q = self._queues[klass]
            while True:
                try:
                    item = q.get_nowait()
                except queue.Empty:
                    break
                if item is None or item.future.done():
                    continue
                item.future.set_exception(
                    ConfigurationError("service closed before execution")
                )

    def __enter__(self) -> "SkylineService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self, klass: str) -> None:
        q = self._queues[klass]
        while True:
            item = q.get()
            if item is None:
                return
            plan = self.config.fault_plan
            if plan is not None and plan.any_faults:
                if item.op_index is None:
                    with self._dequeue_lock:
                        self._dequeues[klass] += 1
                        item.op_index = self._dequeues[klass]
                delay = plan.queue_delay(klass, item.op_index)
                if delay > 0:
                    if self.metrics is not None:
                        self.metrics.inc(SERVING_GROUP, "injected_delays")
                    sleep(delay)
                attempt = item.attempts + 1
                if plan.worker_crashes(klass, item.op_index, attempt):
                    item.attempts = attempt
                    self._worker_crashed(klass, item, plan)
                    return  # this worker thread is dead
            self._handle(item)

    def _worker_crashed(
        self, klass: str, item: _Request, plan: ServingFaultPlan
    ) -> None:
        """An injected crash killed this worker mid-request: re-enqueue
        the request (up to ``max_requeues`` times), then quarantine it
        as a poison pill; either way a replacement worker is spawned
        (the pool self-heals)."""
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "worker_crashes")
        if item.attempts <= plan.max_requeues:
            if self.metrics is not None:
                self.metrics.inc(SERVING_GROUP, "requeued")
            self._queues[klass].put(item)
        else:
            # Poison pill: it has now crashed max_requeues + 1 workers.
            self.admission.drop(item.ticket)
            if klass == MUTATE and item.mutation is not None:
                breaker = self._breakers.get(item.mutation.dataset)
                if breaker is not None:
                    breaker.record_failure()
            item.future.set_exception(
                QueryPoisonedError(
                    f"request quarantined after crashing "
                    f"{item.attempts} workers",
                    attempts=item.attempts,
                )
            )
        if not self._closed:
            if self.metrics is not None:
                self.metrics.inc(SERVING_GROUP, "worker_respawns")
            self._spawn_worker(klass)

    def _handle(self, item: _Request) -> None:
        ticket = item.ticket
        breaker = (
            self._breakers.get(item.mutation.dataset)
            if item.mutation is not None
            else None
        )
        if ticket.expired():
            waited = monotonic() - ticket.admitted_at
            self.admission.expire(ticket)
            if breaker is not None:
                breaker.abort_probe()
            item.future.set_exception(
                DeadlineExceededError(
                    f"{ticket.klass} request deadline passed after "
                    f"{waited:.3f}s in queue",
                    queue_wait_seconds=waited,
                    queue_depth=self.admission.queued(ticket.klass),
                    retry_after_seconds=(
                        self.admission.retry_after_estimate(ticket.klass)
                        or None
                    ),
                )
            )
            return
        self.admission.started(ticket)
        if not item.future.set_running_or_notify_cancel():
            self.admission.finished(ticket, ok=False)
            if breaker is not None:
                breaker.abort_probe()
            return
        ok = True
        try:
            if item.query is not None:
                result = self._execute_query(item.query, ticket)
            else:
                result = self._execute_mutation(item.mutation, ticket)
        except BaseException as exc:  # noqa: BLE001 — routed to caller
            ok = False
            self.admission.finished(ticket, ok=False)
            if breaker is not None:
                # Only server-side (retryable) failures feed the
                # breaker; a bad request says nothing about health.
                if is_retryable(exc):
                    breaker.record_failure()
                else:
                    breaker.abort_probe()
            item.future.set_exception(exc)
            return
        if ok:
            self.admission.finished(ticket, ok=True)
            if breaker is not None:
                breaker.record_success()
            item.future.set_result(result)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _execute_query(self, query: Query, ticket: Ticket) -> QueryResult:
        snapshot = self.registry.snapshot(query.dataset)
        span = self.tracer.start_span(
            "serving.query",
            kind=query.kind,
            dataset=query.dataset,
            version=snapshot.version,
        )
        try:
            payload, cached = self._payload_for(query, snapshot)
            live_member: Optional[bool] = None
            if query.kind == "explain" and query.point_id is not None:
                # Live membership probe (O(1) against the maintainer's
                # cached id-set); computed per request, never cached —
                # it describes the *current* version, not the snapshot.
                try:
                    live_member = self.registry.is_skyline_member(
                        query.dataset, query.point_id
                    )
                except DatasetError:
                    live_member = False
            certificate = self._certificate(query.dataset, snapshot)
            span.update(
                cached=cached,
                rows=int(payload.ids.shape[0]),
                certificate=certificate["kind"],
            )
            return QueryResult(
                kind=query.kind,
                dataset=query.dataset,
                version=snapshot.version,
                points=payload.points,
                ids=payload.ids,
                scores=payload.scores,
                explanation=payload.explanation,
                live_member=live_member,
                cached=cached,
                queue_wait_seconds=ticket.queue_wait_seconds,
                service_seconds=monotonic() - (ticket.started_at or 0.0),
                certificate=certificate,
            )
        finally:
            span.finish()

    def _certificate(
        self, dataset: str, snapshot: Snapshot
    ) -> Dict[str, Any]:
        """Degradation-ladder certificate for an answer computed on
        ``snapshot``: ``fresh`` (healthy writer) → ``stale`` (writer
        down; answer is exact for the last published version) →
        ``partial`` (post-recovery snapshot whose WAL replay dropped a
        torn, unacknowledged tail batch)."""
        status = self.registry.writer_status(dataset)
        meta = snapshot.meta
        if meta.get("dropped_tail"):
            kind = "partial"
        elif status["writer_down"]:
            kind = "stale"
        else:
            kind = "fresh"
        certificate: Dict[str, Any] = {
            "kind": kind,
            "version": snapshot.version,
        }
        if status["writer_down"]:
            certificate["writer_down"] = True
            certificate["pending_batches"] = status["pending_batches"]
            certificate["published_version"] = status["published_version"]
        if meta.get("recovered"):
            certificate["recovered"] = True
            if meta.get("dropped_tail"):
                certificate["dropped_batches"] = meta["dropped_tail"]
        if kind != "fresh" and self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, f"queries_{kind}")
        return certificate

    def _payload_for(
        self, query: Query, snapshot: Snapshot
    ) -> Tuple[_Payload, bool]:
        key = None
        if self.cache is not None:
            key = ResultCache.make_key(
                snapshot.dataset, snapshot.version, query.fingerprint()
            )
            hit, value = self.cache.lookup(key)
            if hit:
                return value, True
        payload = _EXECUTORS[query.kind](query, snapshot)
        if self.cache is not None and key is not None:
            self.cache.store(key, payload)
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, f"queries_{query.kind}")
        return payload, False

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _execute_mutation(
        self, mutation: Mutation, ticket: Ticket
    ) -> MutationResult:
        span = self.tracer.start_span(
            "serving.mutation",
            kind=mutation.kind,
            dataset=mutation.dataset,
        )
        try:
            try:
                publish = self._apply_mutation(mutation)
            except WriterDownError as exc:
                publish = self._recover_writer(mutation, exc)
            span.update(
                version=publish.version,
                skyline=publish.skyline_size,
            )
            return MutationResult(
                publish=publish,
                queue_wait_seconds=ticket.queue_wait_seconds,
                service_seconds=monotonic() - (ticket.started_at or 0.0),
            )
        finally:
            span.finish()

    def _apply_mutation(self, mutation: Mutation) -> PublishResult:
        if mutation.kind == "insert":
            return self.registry.insert(
                mutation.dataset, mutation.points, mutation.ids
            )
        return self.registry.delete(mutation.dataset, mutation.ids)

    def _recover_writer(
        self, mutation: Mutation, exc: WriterDownError
    ) -> PublishResult:
        """Self-heal a crashed dataset writer, resolving ``mutation``
        exactly once.

        The typed error's ``applied`` field disambiguates: ``True`` —
        the batch reached the durable WAL, so recovery's replay applies
        it and the recovered publish *is* this mutation's outcome;
        ``False`` — the batch was lost before the WAL, so after
        recovery it is re-executed (it never took effect); ``None`` —
        unknown, propagate and let the caller's retry policy decide.
        """
        if (
            not self.config.auto_recover_writer
            or not self.registry.durable
            or exc.applied is None
        ):
            raise exc
        recovered = self.registry.recover(mutation.dataset)
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "writer_auto_recoveries")
        if exc.applied:
            return recovered
        return self._apply_mutation(mutation)


# ----------------------------------------------------------------------
# query executors (pure functions of the snapshot — cache-safe)
# ----------------------------------------------------------------------
def _by_id(
    points: np.ndarray, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical order: ascending id (bit-stable across access paths)."""
    order = np.argsort(ids, kind="stable")
    pts = points[order].copy()
    out_ids = ids[order].copy()
    pts.setflags(write=False)
    out_ids.setflags(write=False)
    return pts, out_ids


def _exec_full(query: Query, snapshot: Snapshot) -> _Payload:
    points, ids = _by_id(snapshot.sky_points, snapshot.sky_ids)
    return _Payload(points=points, ids=ids)


def _exec_subspace(query: Query, snapshot: Snapshot) -> _Payload:
    if snapshot.size == 0:
        return _exec_full(query, snapshot)
    points, ids = subspace_skyline(
        snapshot.points, list(query.dims), ids=snapshot.ids
    )
    points, ids = _by_id(points, ids)
    return _Payload(points=points, ids=ids)


def _exec_kdominant(query: Query, snapshot: Snapshot) -> _Payload:
    if snapshot.size == 0:
        return _exec_full(query, snapshot)
    points, ids = k_dominant_skyline(
        snapshot.points, query.k, ids=snapshot.ids
    )
    points, ids = _by_id(points, ids)
    return _Payload(points=points, ids=ids)


def _exec_topk(query: Query, snapshot: Snapshot) -> _Payload:
    # Rank over the snapshot skyline, fed in canonical id order so ties
    # break identically however the skyline was obtained.
    sky_points, sky_ids = _by_id(snapshot.sky_points, snapshot.sky_ids)
    if sky_ids.shape[0] == 0:
        return _Payload(points=sky_points, ids=sky_ids)
    if query.method == "representative":
        points, ids = top_k_skyline(
            sky_points, sky_ids, snapshot.points, query.k
        )
        scores = None
    else:
        points, ids, scores = rank_skyline(
            sky_points,
            sky_ids,
            dataset_points=(
                snapshot.points if query.method == "dominance" else None
            ),
            method=query.method,
            weights=query.weights,
        )
        points = points[: query.k]
        ids = ids[: query.k]
        scores = scores[: query.k].copy()
        scores.setflags(write=False)
    points = points.copy()
    ids = ids.copy()
    points.setflags(write=False)
    ids.setflags(write=False)
    return _Payload(points=points, ids=ids, scores=scores)


def _exec_explain(query: Query, snapshot: Snapshot) -> _Payload:
    if query.point_id is not None:
        point = snapshot.point_of(query.point_id)
    else:
        point = np.asarray(query.point, dtype=np.float64)
    explanation = why_not(point, snapshot.points, snapshot.ids)
    # Canonicalise dominator order by id so cached and fresh answers
    # are bit-identical however the snapshot was assembled.
    dom_points, dom_ids = _by_id(
        explanation.dominator_points, explanation.dominator_ids
    )
    explanation = WhyNotExplanation(
        point=explanation.point,
        is_skyline_member=explanation.is_skyline_member,
        dominator_points=dom_points,
        dominator_ids=dom_ids,
        single_dimension_fixes=dict(explanation.single_dimension_fixes),
    )
    return _Payload(
        points=dom_points, ids=dom_ids, explanation=explanation
    )


_EXECUTORS = {
    "full": _exec_full,
    "subspace": _exec_subspace,
    "kdominant": _exec_kdominant,
    "topk": _exec_topk,
    "explain": _exec_explain,
}


def execute_on_snapshot(query: Query, snapshot: Snapshot) -> _Payload:
    """Run a query's executor directly against a pinned snapshot.

    This is the service's own compute path minus queues, cache, and
    certificates — a pure function of ``(query, snapshot)`` producing
    the identical canonical payload.  The executors read only
    ``points``, ``ids``, ``sky_points``, ``sky_ids``, ``size``,
    ``dimensions`` and ``point_of``, so the shard router runs every
    query kind through here on a view of its gathered rows, and
    recomputes a sub-answer against a version-vector-pinned snapshot
    when a shard's live answer arrived at a different version.
    """
    query.validate(snapshot.dimensions)
    return _EXECUTORS[query.kind](query, snapshot)
