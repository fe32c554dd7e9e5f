"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve --seed 3 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same inputs once plain and once with timing
wrappers installed, checks that both give the same answers, and reports
the per-layer metrics and the tracing overhead.  Spans go to
``.bench_out/trace-<workload>-<seed>.jsonl`` and the run record to
``.bench_out/record-<workload>-<seed>-trace<0|1>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when a correctness check fails and 2 when the program under test
(``src/repro``) cannot be found next to the benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch", "serve", "sharded", "ingest")
M_ARENA_MAX = -8  # glibc's mallopt parameter number


def _load_program() -> None:
    """Put ``src/`` first on the path and make sure ``repro`` comes from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program not found: {src / 'repro'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: repro imported from {repro.__file__}, "
                         f"not from {src}")


def _pin_to_one_cpu() -> int:
    """Keep this process and every thread it starts on one CPU.

    On a host of a few shared vCPUs, a thread handing work to a thread
    on the other vCPU waits for that vCPU to be scheduled by the host;
    that wait came and went with the host's load and doubled the
    sharded workload's sub-millisecond read times for minutes at a time.
    On one CPU a hand-over is a plain context switch, and the reference
    kernel that ``perfbench/pace.py`` times runs on the same CPU as the
    program.  Called before numpy is imported, so its thread pools size
    themselves to one CPU too."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _one_malloc_arena() -> None:
    """Make every thread allocate from glibc's one main arena.

    By default each thread that allocates gets an arena of its own, and
    an arena keeps what it freed.  Which of the service's read workers
    happened to run the large k-dominant temporaries then decided
    ``serve``'s peak RSS: 137 to 182 MB over ten seeds.  With one arena
    peak RSS follows the work.  Called before any thread starts; a libc
    without ``mallopt`` keeps its default."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _environment(allowed: list) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity": allowed,
        "pinned_to": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    allowed = sorted(os.sched_getaffinity(0))
    _pin_to_one_cpu()
    _one_malloc_arena()
    try:
        _load_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    from perfbench import batch, ingest, serving
    from perfbench.common import END_TO_END
    from perfbench.layers import per_layer

    modules = {"batch": batch, "serve": serving, "sharded": serving,
               "ingest": ingest}
    module = modules[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    traced = bool(args.trace)
    if module is serving:
        outcome = serving.run(args.workload == "sharded", args.seed,
                              args.seconds, traced, str(out_dir))
        params = serving.params(args.workload == "sharded")
    else:
        outcome = module.run(args.seed, args.seconds, traced, str(out_dir))
        params = module.PARAMS

    if traced:
        metrics = per_layer(outcome.layers)
    else:
        metrics = {
            name: {"value": outcome.end_to_end[name], "unit": unit}
            for name, unit in END_TO_END
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "environment": _environment(allowed),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "named": outcome.named,
        "metrics": metrics,
        "checks": [
            {"check": name, "passed": ok, "detail": detail}
            for name, ok, detail in outcome.checks
        ],
    }
    path = out_dir / f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  record {path.relative_to(ROOT)}")
    for name, entry in outcome.named.items():
        extra = ""
        if "beyond" in entry:
            extra = (f"  n={entry['samples']} beyond={entry['beyond']}"
                     + ("" if entry["supported"] else "  FLAG: <10 beyond"))
        print(f"  {name:28s} {entry['value']!s:>24} {entry['unit']}{extra}")
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail and not ok else ""))
    if outcome.failures:
        print(f"  failures {outcome.failures}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
