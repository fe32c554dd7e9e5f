"""``batch``: the paper's three-phase engine on high-dimensional inputs.

``ZDG+ZS+ZM`` over independent data, n=4,000, d=8, on the default
in-process ``simulated`` executor.  The seed draws ``INPUTS`` inputs.  A
run plays rounds until its time is spent; each round builds the engine
and runs it once on a small warm-up input (the set-up that ``setup_s``
times), then calls ``SkylineEngine.run`` on every input once.  An input
costs the same work in every round; each run's time is scaled to the
host's nominal pace (``perfbench/pace.py``), and an input's median over
the rounds is what the metrics are computed from.  Several
inputs make the reported median a median over inputs: how many
candidates phase 1 emits depends on the partitioning sample, and one
draw alone moves the run time by about a tenth.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from perfbench import layers, oracle
from perfbench.common import MIN_ROUNDS, Outcome, peak_rss_mb, play_rounds
from perfbench.pace import Pace
from perfbench.stats import MISS, median_per_op, percentile
from perfbench.trace import Tracer

PLAN = "ZDG+ZS+ZM"
N = 4_000
D = 8
INPUTS = 10
WARM_N = 1_000
BITS = 12  # EngineConfig's default grid resolution
PARAMS = {"plan": PLAN, "distribution": "independent", "n": N, "d": D,
          "executor": "simulated",
          "inputs": f"{INPUTS} draws, seeds seed*1000+1..{INPUTS}",
          "round": f"engine build + warm-up run at n={WARM_N}, then every "
          "input once"}


def _report_layers(report) -> Dict[str, float]:
    """Per-layer values the engine's RunReport already carries."""
    counters = report.merged_counters()
    kernel = report.details.get("kernel_stats", {})
    return {
        "pipeline.candidates": report.num_candidates,
        "pipeline.candidate_precision": (
            report.skyline_size / report.num_candidates
            if report.num_candidates else 0.0
        ),
        "mapreduce.shuffle_records": report.shuffle_records,
        "partitioning.reducer_skew": report.reducer_skew,
        "zorder.codec_rows": sum(
            v for k, v in kernel.items() if k.endswith("_rows")
        ),
        "zorder.dominance_tests": (
            counters.counter("dominance", "point_tests")
            + counters.counter("dominance", "region_tests")
        ),
    }


class Round:
    """One round: its set-up time, and per input its time and answer."""

    def __init__(self) -> None:
        #: set-up time, scaled to the nominal pace
        self.setup_s = 0.0
        #: when each input's run started, and its seconds
        self.starts: List[float] = []
        self.times: List[float] = []
        #: ``times`` scaled to the nominal pace
        self.scaled: List[float] = []
        #: peak resident set size of the process when the round ended
        self.rss_mb = 0.0
        self.answers: List[np.ndarray] = []
        self.reports: list = []
        self.elapsed = 0.0


def run(seed: int, seconds: float, traced: bool, out_dir: str) -> Outcome:
    from repro.data import independent
    from repro.pipeline.driver import EngineConfig, SkylineEngine
    from repro.zorder.encoding import quantize_dataset

    outcome = Outcome()
    inputs = [independent(N, D, seed=seed * 1000 + i)
              for i in range(1, INPUTS + 1)]
    warm = independent(WARM_N, D, seed=seed * 1000)

    #: per-layer values of each traced input run (traced runs only)
    layer_runs: List[Dict[str, float]] = []

    pace = Pace()

    def play(_index: int, tracer: Optional[Tracer] = None) -> Round:
        done = Round()
        pace.tick(force=True)
        began = perf_counter()
        engine = SkylineEngine(EngineConfig.from_plan_string(PLAN))
        engine.run(warm)
        built = perf_counter() - began
        start = perf_counter()
        for data in inputs:
            pace.tick(force=True)
            outcome.attempted += 1
            began = perf_counter()
            done.starts.append(began)
            try:
                report = engine.run(data)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                outcome.fail(exc)
                done.times.append(MISS)
                done.answers.append(None)
                done.reports.append(None)
                continue
            done.times.append(perf_counter() - began)
            done.answers.append(np.sort(report.skyline.ids))
            done.reports.append(report)
            if tracer is not None:
                values = layers.span_metrics(tracer.finished(since=began))
                values.update(_report_layers(report))
                layer_runs.append(values)
        done.elapsed = perf_counter() - start
        pace.tick(force=True)
        done.setup_s = pace.scaled([start - built], [built])[0]
        done.scaled = pace.scaled(done.starts, done.times)
        done.rss_mb = peak_rss_mb()
        return done

    if not traced:
        rounds = play_rounds(seconds, play)
        typical = median_per_op([r.scaled for r in rounds])
        done = [t for t in typical if t != MISS]
        outcome.end_to_end = {
            "setup_s": median(r.setup_s for r in rounds),
            "ops_per_s": len(done) / sum(done) if done else 0.0,
            "latency_p50_ms": percentile(typical, 50) * 1e3,
            "latency_tail_ms": percentile(typical, 90) * 1e3,
            "peak_rss_mb": rounds[MIN_ROUNDS - 1].rss_mb,
        }
        outcome.value("rounds", len(rounds), "count")
        outcome.value("pace_reference_ms", pace.median_s() * 1e3, "ms")
        outcome.name("run_s", typical, 50, "s", scale=1.0)
        outcome.name("run_p90_s", typical, 90, "s", scale=1.0)
        outcome.value("wall_ops_per_s", outcome.attempted / sum(
            r.elapsed for r in rounds), "ops/s", samples=outcome.attempted)
    else:
        plain = play(0)
        tracer = Tracer()
        patches = layers.instrument(tracer)
        try:
            traced_round = play(1, tracer)
        finally:
            patches.restore()
        rounds = [plain, traced_round]
        if layer_runs:
            # the mean over the inputs of each per-run value
            values = {name: sum(run[name] for run in layer_runs)
                      / len(layer_runs) for name in layer_runs[0]}
            ratio = traced_round.elapsed / plain.elapsed
            values["trace.overhead_ratio"] = ratio
            outcome.layers = values
            outcome.value("trace.overhead_ratio", ratio, "ratio")
        tracer.write_jsonl(f"{out_dir}/trace-batch-{seed}.jsonl")

    answers = [r.answers for r in rounds]
    outcome.check(
        "every round gives the same skylines",
        all(len(a) == INPUTS and all(
            x is not None and y is not None and np.array_equal(x, y)
            for x, y in zip(a, answers[0])) for a in answers))
    wrong = []
    for index, (data, got) in enumerate(zip(inputs, answers[-1])):
        snapped, _codec = quantize_dataset(data, bits_per_dim=BITS)
        if got is None or not np.array_equal(
                got, oracle.skyline_ids(snapped.points, snapped.ids)):
            wrong.append(index)
    outcome.check(
        "every input's skyline ids equal the numpy reference over its "
        "grid input", not wrong, f"inputs with a wrong skyline: {wrong}")
    first = rounds[-1].reports[0]
    if first is not None:
        outcome.value("skyline", int(first.skyline_size), "count")
        outcome.value("candidates", int(first.num_candidates), "count")
    return outcome
