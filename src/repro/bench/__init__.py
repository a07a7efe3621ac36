"""Wall-clock benchmark harness, profiler and perf-trajectory gate.

Simulated cycles answer "is the *model* faster"; this package answers
"is the *repo* faster" — the wall-clock cost of running the simulator
and the figure sweeps on real hardware.

Layout:

* :mod:`repro.bench.timer` — median-of-K measurement with warmup and an
  injectable clock (``FakeClock`` for byte-stable tests).
* :mod:`repro.bench.suite` — the two suites: ``figs`` (the fig1–fig4
  sweeps, timed into the versioned ``BENCH_figs.json`` trajectory, each
  entry fingerprinted with python/platform/CPU and the code
  fingerprint) and ``kernels`` (three campaign cells, profiled only).
* :mod:`repro.bench.profiler` — deterministic ``sys.setprofile``
  collector attributing wall time to the same subsystem buckets the
  simulated-cycle tracer uses for spans, plus collapsed-stack
  (flamegraph) export.
* :mod:`repro.bench.compare` — perf gate: median drift vs a
  per-benchmark noise floor.
* :mod:`repro.bench.cli` — ``repro bench run|profile|compare``.

Wall-clock reads are deliberate here and legal: ``repro/bench/`` sits
outside the determinism lint scope (``repro.lint`` SIM_SCOPE), unlike
the simulator it measures.
"""

from repro.bench.timer import FakeClock, Sample, measure

__all__ = ["FakeClock", "Sample", "measure"]
