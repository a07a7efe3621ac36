"""Clock seam and repetition protocol for wall-clock benchmarks.

Everything in :mod:`repro.bench` measures **wall time** — the one
quantity the simulated-cycle layer (:mod:`repro.obs`) cannot see.  Wall
clocks are nondeterministic by nature, so every consumer takes the clock
as an *injectable seam*: production code passes :data:`WALL` (a
monotonic ``perf_counter``), tests pass a :class:`FakeClock` and get
byte-stable artifacts.  The determinism lint allows this module because
``repro/bench/`` is outside the simulated core's scope — simulated
results never depend on anything measured here.

The repetition protocol is median-of-K with warmup: *warmup* untimed
runs first (imports, allocator pools, suite-graph memoisation), then
*repeat* timed runs, reported as the median plus the spread statistics
the compare layer uses as a per-benchmark noise floor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro._util import check_nonnegative

__all__ = ["Clock", "WALL", "FakeClock", "Sample", "measure",
           "DEFAULT_REPEAT", "DEFAULT_WARMUP"]

#: ``Clock`` is any zero-argument callable returning seconds as a float.
Clock = Callable[[], float]

#: The production clock: monotonic, high-resolution, wall seconds.
WALL: Clock = time.perf_counter

#: Default repetitions per benchmark (``bench run --repeat``).
DEFAULT_REPEAT = 5
#: Default untimed warmup runs (``bench run --warmup``).
DEFAULT_WARMUP = 1


class FakeClock:
    """Deterministic clock for tests: advances *step* per reading.

    Injecting one makes every timing-derived artifact byte-stable, which
    is how the bench tests assert schemas and trajectory round-trips
    without racing the machine they run on.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0):
        check_nonnegative("step", step)
        self.now = float(start)
        self.step = float(step)

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class Sample:
    """Timed repetitions of one benchmark, with derived statistics.

    ``spread`` — ``(max - min) / median`` — is the per-benchmark noise
    floor the compare layer adds to its tolerance band: a benchmark
    whose own repetitions wobble 30% cannot fail a 25% gate on a 28%
    drift.
    """

    seconds: list[float] = field(default_factory=list)
    warmup: int = 0

    @property
    def repeat(self) -> int:
        return len(self.seconds)

    @property
    def median(self) -> float:
        if not self.seconds:
            raise ValueError("empty sample has no median")
        return _median(self.seconds)

    @property
    def mean(self) -> float:
        if not self.seconds:
            raise ValueError("empty sample has no mean")
        return sum(self.seconds) / len(self.seconds)

    @property
    def best(self) -> float:
        return min(self.seconds)

    @property
    def worst(self) -> float:
        return max(self.seconds)

    @property
    def spread(self) -> float:
        """Relative spread of the repetitions (0.0 for a single run)."""
        med = self.median
        if med <= 0:
            return 0.0
        return (self.worst - self.best) / med

    def to_dict(self) -> dict:
        """JSON-serialisable stats block (stable key set)."""
        return {
            "median_s": self.median,
            "mean_s": self.mean,
            "min_s": self.best,
            "max_s": self.worst,
            "spread": self.spread,
            "repeat": self.repeat,
            "warmup": self.warmup,
            "samples_s": list(self.seconds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Sample":
        """Rebuild a sample from its :meth:`to_dict` stats block."""
        if "samples_s" not in data:
            raise ValueError("stats block has no samples_s")
        return cls(seconds=[float(s) for s in data["samples_s"]],
                   warmup=int(data.get("warmup", 0)))


def measure(fn: Callable[[], object], *, repeat: int = DEFAULT_REPEAT,
            warmup: int = DEFAULT_WARMUP, clock: Clock = WALL) -> Sample:
    """Time ``fn()`` *repeat* times after *warmup* untimed runs."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    check_nonnegative("warmup", warmup)
    for _ in range(warmup):
        fn()
    seconds = []
    for _ in range(repeat):
        t0 = clock()
        fn()
        seconds.append(max(0.0, clock() - t0))
    return Sample(seconds=seconds, warmup=warmup)
