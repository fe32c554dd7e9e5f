"""Steadiness check: run workloads on several seeds and report spreads.

Usage, from the root of the repository::

    python3 perfbench/steady.py --workloads serve ingest --seeds 1-10 --seconds 25

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
prints, for each end-to-end metric, the median and the inter-quartile
distance as a share of the median (``statistics.quantiles(n=4)``), next
to the metric's bound from ``BENCHMARK.json``.  A spread under a third
of its bound is steady enough.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["batch", "serve", "sharded", "ingest"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: dict = {}
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
                check=False,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stdout}{done.stderr}")
                status = 1
                continue
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={entry['value']:.4g}"
                for name, entry in result["metrics"].items()), flush=True)
        for name, series in values.items():
            if len(series) < 2:
                continue
            share = spread(series)
            bound = bounds.get(name)
            print(f"  {workload:8s} {name:16s} median {statistics.median(series):12.4g}"
                  f"  spread {share:7.4f}  bound {bound}"
                  + ("" if bound is None or name == "setup_s"
                     or share <= bound / 3 else "  NOT STEADY"))
    return status


if __name__ == "__main__":
    sys.exit(main())
