"""Where the traced run times each layer, and the per-layer metrics.

Each entry of :data:`SPANS` names a public function at the site where
its caller looks it up, and the span name its calls are recorded under.
:func:`instrument` installs them all (plus the few wrappers that need
arguments or cross threads); :func:`span_metrics` turns the spans of the
timed region into the per-layer metrics.  Metrics that come from what
the program already returns (``RunReport``, ``QueryResult``,
``stats()``, counters) are filled in by the workloads.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from perfbench.stats import percentile
from perfbench.trace import Patches, Span, Tracer, self_times

SPANS: List[Tuple[str, str]] = [
    # pipeline
    ("repro.pipeline.driver:preprocess", "pipeline.preprocess"),
    ("repro.pipeline.supervisor:preprocess", "pipeline.preprocess"),
    ("repro.pipeline.supervisor:supervised_run", "pipeline.supervised_run"),
    # partitioning
    ("repro.partitioning.zcurve:ZCurveRule.assign_groups",
     "partitioning.assign"),
    # zorder
    ("repro.algorithms.zs:zsearch", "zorder.zsearch"),
    ("repro.maintenance.maintainer:zsearch", "zorder.zsearch"),
    ("repro.serving.registry:zsearch", "zorder.zsearch"),
    ("repro.maintenance.maintainer:zmerge", "zorder.zmerge"),
    ("repro.zorder.zmerge:zmerge", "zorder.zmerge"),
    ("repro.pipeline.phase2:zmerge_all", "zorder.zmerge"),
    ("repro.serving.router:zmerge_all", "router.merge"),
    ("repro.zorder.encoding:ZGridCodec.encode_grid_batch", "zorder.codec"),
    # extensions, where the service and the router call them
    ("repro.serving.service:subspace_skyline", "extensions.subspace"),
    ("repro.serving.service:k_dominant_skyline", "extensions.kdominant"),
    ("repro.serving.service:rank_skyline", "extensions.ranking"),
    ("repro.serving.service:top_k_skyline", "extensions.ranking"),
    ("repro.serving.service:why_not", "extensions.explain"),
    ("repro.serving.router:subspace_skyline", "extensions.subspace"),
    ("repro.serving.router:k_dominant_skyline", "extensions.kdominant"),
    ("repro.serving.router:rank_skyline", "extensions.ranking"),
    ("repro.serving.router:top_k_skyline", "extensions.ranking"),
    ("repro.serving.router:why_not", "extensions.explain"),
    # maintenance
    ("repro.maintenance.maintainer:SkylineMaintainer.insert_block",
     "maintenance.apply"),
    ("repro.maintenance.maintainer:SkylineMaintainer.delete",
     "maintenance.apply"),
    ("repro.maintenance.maintainer:SkylineMaintainer.alive",
     "maintenance.alive"),
    # serving
    ("repro.serving.registry:DatasetRegistry.insert", "registry.mutate"),
    ("repro.serving.registry:DatasetRegistry.delete", "registry.mutate"),
    ("repro.serving.snapshot:Snapshot.build", "snapshot.build"),
    ("repro.serving.wal:MutationWAL.append", "wal.append"),
    ("repro.serving.wal:DatasetStore.save_checkpoint", "wal.checkpoint"),
    ("repro.serving.service:SkylineService.query", "service.query"),
    ("repro.serving.service:SkylineService.mutate", "service.mutate"),
    ("repro.serving.router:ShardedSkylineService.query", "router.query"),
    ("repro.serving.router:ShardedSkylineService.mutate", "router.mutate"),
    # streaming
    ("repro.streaming.feed:IngestFeed.flush", "streaming.flush"),
    ("repro.streaming.continuous:ContinuousQueryManager.on_publish",
     "streaming.continuous"),
    ("repro.streaming.hub:SubscriptionHub.on_publish", "streaming.hub"),
    # observability
    ("repro.observability.metrics:MetricsRegistry.inc",
     "observability.record"),
    ("repro.observability.metrics:MetricsRegistry.observe",
     "observability.record"),
    ("repro.observability.metrics:MetricsRegistry.record_time",
     "observability.record"),
]

#: read classes timed per class; topk is split by method because its
#: methods cost from ~0.1 ms (sum) to ~50 ms (dominance)
KINDS = ("full", "subspace", "kdominant", "topk.sum", "topk.weighted",
         "topk.dominance", "topk.representative", "explain")

#: every per-layer metric, with its unit, in BENCHMARK.json order
PER_LAYER: List[Tuple[str, str]] = [
    ("pipeline.preprocess_s", "s"),
    ("pipeline.phase1_s", "s"),
    ("pipeline.phase2_s", "s"),
    ("pipeline.candidates", "count"),
    ("pipeline.candidate_precision", "ratio"),
    ("mapreduce.map_s", "s"),
    ("mapreduce.reduce_s", "s"),
    ("mapreduce.shuffle_records", "count"),
    ("partitioning.assign_s", "s"),
    ("partitioning.reducer_skew", "ratio"),
    ("zorder.zsearch_s", "s"),
    ("zorder.zmerge_s", "s"),
    ("zorder.codec_s", "s"),
    ("zorder.codec_rows", "count"),
    ("zorder.dominance_tests", "count"),
    ("extensions.self_s", "s"),
    *[(f"service.exec_ms.{kind}", "ms") for kind in KINDS],
    ("cache.hit_ratio", "ratio"),
    ("admission.wait_p50_ms", "ms"),
    ("admission.wait_p99_ms", "ms"),
    ("registry.mutate_ms", "ms"),
    ("registry.rebuilds", "count"),
    ("registry.rebuild_s", "s"),
    ("maintenance.apply_ms", "ms"),
    ("maintenance.alive_ms", "ms"),
    ("snapshot.build_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.checkpoint_ms", "ms"),
    *[(f"router.exec_ms.{kind}", "ms") for kind in KINDS],
    ("router.scatter_ms", "ms"),
    ("router.merge_ms", "ms"),
    ("router.merge_cache_hit_ratio", "ratio"),
    ("router.result_cache_hit_ratio", "ratio"),
    ("router.mutate_ms", "ms"),
    ("streaming.flush_ms", "ms"),
    ("streaming.continuous_ms", "ms"),
    ("streaming.hub_ms", "ms"),
    ("streaming.notify_ms", "ms"),
    ("streaming.diffs_coalesced", "count"),
    ("observability.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
]


def _wrap_job(tracer: Tracer) -> Callable[[Callable], Callable]:
    """``make_phase*_job`` wrapper: time the job's map and reduce tasks."""

    def make(factory: Callable) -> Callable:
        def build(*args, **kwargs):
            job = factory(*args, **kwargs)
            job.mapper = tracer.wrap(job.mapper, "mapreduce.map")
            if job.combiner is not None:
                job.combiner = tracer.wrap(job.combiner, "mapreduce.map")
            job.reducer = tracer.wrap(job.reducer, "mapreduce.reduce")
            return job
        return build
    return make


def _wrap_runtime_run(tracer: Tracer) -> Callable[[Callable], Callable]:
    """``MapReduceRuntime.run``: one span per job, named after the job."""

    def make(run: Callable) -> Callable:
        def wrapper(self, job, *args, **kwargs):
            span = tracer.open(f"mapreduce.job.{job.name}")
            try:
                return run(self, job, *args, **kwargs)
            finally:
                tracer.close(span)
        return wrapper
    return make


def _wrap_submit(tracer: Tracer) -> Callable[[Callable], Callable]:
    """``SkylineService.submit``: a span from submission until the
    future resolves, closed by whichever thread resolves it."""

    def make(submit: Callable) -> Callable:
        def wrapper(self, request, *args, **kwargs):
            span = tracer.open("service.submit", push=False)
            future = submit(self, request, *args, **kwargs)
            future.add_done_callback(
                lambda _f: tracer.close(span, pop=False)
            )
            return future
        return wrapper
    return make


def instrument(tracer: Tracer) -> Patches:
    """Install every wrapper; call ``restore()`` on the result to undo."""
    patches = Patches(tracer)
    for target, name in SPANS:
        patches.install(target, name)
    for target in ("repro.pipeline.driver:make_phase1_job",
                   "repro.pipeline.driver:make_phase2_job",
                   "repro.pipeline.supervisor:make_phase1_job",
                   "repro.pipeline.supervisor:make_phase2_job"):
        patches.install_with(target, _wrap_job(tracer))
    patches.install_with("repro.mapreduce.runtime:MapReduceRuntime.run",
                         _wrap_runtime_run(tracer))
    patches.install_with("repro.serving.service:SkylineService.submit",
                         _wrap_submit(tracer))
    return patches


def span_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics that come from the spans of the timed region."""
    own = self_times(spans)
    by_id = {span.sid: span for span in spans}
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        self_s[span.name] += own[span.sid]
        total_s[span.name] += span.duration
        durations[span.name].append(span.duration)

    def p50_ms(*names: str) -> float:
        values = [v for name in names for v in durations.get(name, ())]
        return percentile(values, 50) * 1e3 if values else 0.0

    scatter = [
        span.duration for span in spans
        if span.name == "service.submit"
        and by_id.get(span.parent) is not None
        and by_id[span.parent].name == "router.query"
    ]
    rebuild_s = sum(
        span.duration for span in spans
        if span.name == "pipeline.supervised_run"
        and by_id.get(span.parent) is not None
        and by_id[span.parent].name == "registry.mutate"
    )
    return {
        "pipeline.preprocess_s": total_s["pipeline.preprocess"],
        "pipeline.phase1_s": total_s["mapreduce.job.phase1-candidates"],
        "pipeline.phase2_s": total_s["mapreduce.job.phase2-merge"],
        "mapreduce.map_s": self_s["mapreduce.map"],
        "mapreduce.reduce_s": self_s["mapreduce.reduce"],
        "partitioning.assign_s": self_s["partitioning.assign"],
        "zorder.zsearch_s": self_s["zorder.zsearch"],
        "zorder.zmerge_s": self_s["zorder.zmerge"] + self_s["router.merge"],
        "zorder.codec_s": self_s["zorder.codec"],
        "extensions.self_s": sum(
            value for name, value in self_s.items()
            if name.startswith("extensions.")
        ),
        "registry.mutate_ms": p50_ms("registry.mutate"),
        "registry.rebuild_s": rebuild_s,
        "maintenance.apply_ms": p50_ms("maintenance.apply"),
        "maintenance.alive_ms": p50_ms("maintenance.alive"),
        "snapshot.build_ms": p50_ms("snapshot.build"),
        "wal.append_ms": p50_ms("wal.append"),
        "wal.checkpoint_ms": p50_ms("wal.checkpoint"),
        "router.scatter_ms": (
            percentile(scatter, 50) * 1e3 if scatter else 0.0
        ),
        "router.merge_ms": p50_ms("router.merge"),
        "router.mutate_ms": p50_ms("router.mutate"),
        "streaming.flush_ms": p50_ms("streaming.flush"),
        "streaming.continuous_ms": p50_ms("streaming.continuous"),
        "streaming.hub_ms": p50_ms("streaming.hub"),
        "observability.self_s": self_s["observability.record"],
        "trace.spans": len(spans),
    }


def per_layer(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit; a layer the workload does
    not run reports 0."""
    return {
        name: {"value": (int if unit == "count" else float)(
            values.get(name, 0)), "unit": unit}
        for name, unit in PER_LAYER
    }
