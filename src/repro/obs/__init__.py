"""``repro.obs`` — unified telemetry for the simulated machine.

Three pieces, all off by default and free when off:

* :mod:`repro.obs.tracer` — a span/event tracer recorded by the engine
  (barrier waits, deadlocks, kills), the runtimes (chunk execution,
  steals, TLS init) and the resources (atomic/lock/DRAM reservations);
  exports to Perfetto-loadable Chrome trace JSON.
* :mod:`repro.obs.metrics` — a counter registry plus one
  :class:`~repro.obs.metrics.MetricsFrame` per parallel loop whose cycle
  breakdown reconciles exactly with the loop's ``LoopStats``.
* :mod:`repro.obs.diff` — exact cross-run diffs over JSONL metrics
  dumps: any differing cycle component fails, for a CI exit code.

:class:`Observer` bundles a tracer and a registry behind one context
manager::

    with Observer() as obs:
        parallel_coloring(graph, 31, spec)
    obs.write(trace_path="trace.json", metrics_path="metrics.jsonl")
"""

from __future__ import annotations

from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer
from repro.obs.diff import DiffReport, diff_frames, diff_metrics_files
from repro.obs.export import (chrome_trace_events, load_metrics_jsonl,
                              write_chrome_trace, write_metrics_jsonl)
from repro.obs.metrics import MetricsFrame, MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["Observer", "Tracer", "MetricsRegistry", "MetricsFrame",
           "DiffReport", "diff_frames", "diff_metrics_files",
           "chrome_trace_events", "write_chrome_trace",
           "write_metrics_jsonl", "load_metrics_jsonl"]


class Observer:
    """Installs a tracer and/or metrics registry for a `with` block.

    Either half can be disabled (``Observer(trace=False)`` records only
    metrics), matching the CLI's independent ``--trace`` / ``--metrics``
    flags.  Simulations started inside the block are instrumented;
    everything outside pays nothing.
    """

    def __init__(self, trace: bool = True, metrics: bool = True):
        if not trace and not metrics:
            raise ValueError("Observer with neither trace nor metrics "
                             "observes nothing")
        self.tracer = Tracer() if trace else None
        self.registry = MetricsRegistry() if metrics else None

    def __enter__(self) -> "Observer":
        if self.tracer is not None:
            _tracer.install(self.tracer)
        if self.registry is not None:
            try:
                _metrics.install(self.registry)
            except Exception:
                if self.tracer is not None:
                    _tracer.uninstall()
                raise
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            _tracer.uninstall()
        if self.registry is not None:
            _metrics.uninstall()

    @property
    def frames(self) -> list[MetricsFrame]:
        """Frames recorded so far ([] when metrics are disabled)."""
        return [] if self.registry is None else list(self.registry.frames)

    def write(self, trace_path=None, metrics_path=None, stamp=None) -> None:
        """Export the recorded artifacts (paths are optional per half).

        *stamp* (optional ``() -> float``) timestamps the exports;
        omitted, they are byte-stable for a given run.
        """
        if trace_path is not None:
            if self.tracer is None:
                raise ValueError("this Observer recorded no trace")
            write_chrome_trace(self.tracer, trace_path, stamp=stamp)
        if metrics_path is not None:
            if self.registry is None:
                raise ValueError("this Observer recorded no metrics")
            write_metrics_jsonl(self.registry, metrics_path, stamp=stamp)
