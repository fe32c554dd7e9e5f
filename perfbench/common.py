"""What every workload hands back, and helpers they share."""

from __future__ import annotations

import hashlib
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from perfbench.stats import MIN_BEYOND, beyond, percentile

#: the end-to-end metrics every workload reports, with their units
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


#: rounds a measured run plays at least, however long they take
MIN_ROUNDS = 3

T = TypeVar("T")


def play_rounds(seconds: float, play: Callable[[int], T],
                minimum: int = MIN_ROUNDS) -> List[T]:
    """Call ``play(0)``, ``play(1)``, ... while another round of the
    last round's length still ends within ``seconds``, and at least
    ``minimum`` times; return what each call gave."""
    out: List[T] = []
    start = last = perf_counter()
    while True:
        now = perf_counter()
        if len(out) >= minimum and now + (now - last) - start > seconds:
            return out
        last = now
        out.append(play(len(out)))


@dataclass
class Outcome:
    """One workload run: counts, metrics, and correctness checks."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metric values by name (see END_TO_END)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: the workload's own named metrics: value, unit, samples, flags
    named: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: per-layer metric values by name (traced runs only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: failed operations by exception class name
    failures: Dict[str, int] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        key = type(exc).__name__
        self.failures[key] = self.failures.get(key, 0) + 1

    def name(self, key: str, samples: List[float], q: int, unit: str,
             scale: float = 1e3) -> Optional[float]:
        """Record the ``q``-th percentile of ``samples`` under ``key``
        with its sample count; returns the value (None without samples)."""
        n = len(samples)
        value = percentile(samples, q) * scale if n else None
        after = beyond(n, q) if n else 0
        self.named[key] = {
            "value": value, "unit": unit, "samples": n, "beyond": after,
            "supported": after >= MIN_BEYOND,
        }
        return value

    def value(self, key: str, value: float, unit: str,
              samples: int = 1) -> float:
        self.named[key] = {"value": value, "unit": unit, "samples": samples}
        return value

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def same_answers(outcome: Outcome, rounds: list) -> None:
    """Check that every round's ``digest`` of its answers is the same."""
    digests = {r.digest.hexdigest() for r in rounds}
    outcome.check("every round gives the same answers", len(digests) == 1,
                  f"{len(digests)} different answer digests")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class AnswerDigest:
    """Order-sensitive digest of a stream of answers.  Two runs of the
    same inputs that give the same answers give the same hex digest."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def add(self, *parts: object) -> None:
        for part in parts:
            if part is None:
                self._hash.update(b"-")
            elif isinstance(part, np.ndarray):
                self._hash.update(str(part.dtype).encode())
                self._hash.update(np.ascontiguousarray(part).tobytes())
            else:
                self._hash.update(repr(part).encode())
            self._hash.update(b"|")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def same_array(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    """Bit-identical arrays (dtype, shape and bytes), or both None."""
    if a is None or b is None:
        return a is None and b is None
    a = np.asarray(a)
    b = np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())
