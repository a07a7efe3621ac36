"""Cell-throughput benchmark for the figure simulator.

Usage, from the repository root::

    python3 cellbench/run.py --workload color --seed 1 --seconds 25 --trace 0
    python3 cellbench/run.py --regenerate

Load model: a single-process closed loop with one client; the next cell
starts only after the previous one returns, with no worker pool.  Each
run sets up several times (``setup_s`` is the median), then makes a
fixed number of passes over the workload's cell mix, in an order
permuted by ``--seed``, and checks every cell's simulated cycles against
``reference_cycles.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up once
under layer spans, runs half the passes without spans (the baseline for
the tracing overhead) and as many with every layer entry point wrapped,
validating each colouring and BFS result outside the timed intervals.
It then seeds a ResultStore with the mix's reference cycles and serves
the mix from it through the campaign executor, and prints the per-layer
metrics.  Counts and seconds of the timed phase are per pass of the mix,
set-up layers per set-up, campaign layers per seeding and replay of the
mix.

``--regenerate`` recomputes the reference cycles of every cell, prints
the diff against the committed file and rewrites it.

Before it, every metric is printed with its unit, layer and what it
should move, with ``wrong_cells`` (reference mismatches plus rejected
validations; ``correct`` is false when it is not 0) and
``failed_ratio``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "cellbench"
WORK_DIR = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference_cycles.json"

#: Set-ups per untraced run: at least SETUPS, more while they sum to
#: under SETUP_MIN_SECONDS (sub-millisecond mmap loads), at most
#: SETUP_MAX.  ``setup_s`` is their median.
SETUPS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX = 10000


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"cellbench: no repro package under {src}; run "
                         f"from the root of a full checkout")
    sys.path[:1] = [str(ROOT), str(src)]
    # Hermetic cells: no inherited REPRO_* knob (fast mode, race
    # fraction, watchdogs, stores) may change what a cell simulates.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cellbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def load_reference() -> dict:
    """``cell_id -> reference simulated cycles``."""
    with open(REFERENCE, encoding="utf-8") as fh:
        data = json.load(fh)
    return {cid: entry["cycles"] for cid, entry in data["cells"].items()}


@dataclass
class Phase:
    """Outcome of running a list of passes over one mix."""

    walls: list = field(default_factory=list)   # seconds per completed cell
    wall: float = 0.0          # phase seconds, excluding between-cell checks
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # wrong/invalid/failed

    @property
    def cells_per_s(self) -> float:
        return len(self.walls) / self.wall if self.wall > 0 else 0.0


def run_phase(items, run, orders, expected, labels,
              between_cells=None) -> Phase:
    """Closed loop over *orders*: time each ``run(item)`` and compare its
    cycles with *expected*.  ``between_cells()`` runs untimed after each
    cell and returns a list of problems found."""
    from cellbench.mixes import clear_profile_memo
    phase = Phase()
    excluded = 0.0
    clear_profile_memo()
    t_phase = time.perf_counter()
    for order in orders:
        for i in order:
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                cycles = run(items[i])
            except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                phase.failed += 1
                phase.problems.append(
                    f"failed {labels[i]}: {type(exc).__name__}: {exc}")
                cycles = None
            else:
                phase.walls.append(time.perf_counter() - t0)
                if cycles != expected[i]:
                    phase.problems.append(
                        f"wrong {labels[i]}: {cycles!r} != reference "
                        f"{expected[i]!r}")
            if between_cells is not None:
                t_check = time.perf_counter()
                phase.problems.extend(
                    f"invalid {labels[i]}: {p}" for p in between_cells())
                excluded += time.perf_counter() - t_check
    phase.wall = time.perf_counter() - t_phase - excluded
    return phase


def _store_replay(workload, reference, expected, labels) -> Phase:
    """Seed a fresh ResultStore with the mix's reference cycles, then serve
    every cell from it through the campaign executor, one closed-loop
    ``execute`` call per cell (nothing is simulated)."""
    from repro.campaign import executor
    from repro.campaign.runners import run_cell
    from repro.campaign.spec import CellSpec
    from repro.campaign.store import ResultStore
    root = WORK_DIR / "store"
    shutil.rmtree(root, ignore_errors=True)
    store = ResultStore(root)
    specs = [CellSpec.from_dict(c) for c in workload.cells]
    for spec in specs:
        store.put(spec.to_dict(), reference[spec.cell_id])

    def replay(spec):
        report = executor.execute(run_cell, [spec], jobs=1, store=store,
                                  spec_for=CellSpec.to_dict,
                                  key_id=lambda c: c.cell_id)
        return report.values[spec]
    return run_phase(specs, replay, [range(len(specs))], expected, labels)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(workload) -> float:
    from cellbench.mixes import setup
    t0 = time.perf_counter()
    setup(workload, str(WORK_DIR))
    return time.perf_counter() - t0


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark invocation; returns the report dict."""
    from repro.campaign.runners import run_cell
    from cellbench import catalog
    from cellbench.mixes import cell_id, cell_label, pass_orders, \
        passes_for, prepare

    reference = load_reference()
    prepare(workload, str(WORK_DIR))
    ids = [cell_id(c) for c in workload.cells]
    labels = [cell_label(c) for c in workload.cells]
    expected = [reference.get(cid) for cid in ids]
    passes = passes_for(workload, seconds)
    orders = pass_orders(len(workload.cells), seed, passes)
    report = {"workload": workload.name, "seed": seed, "passes": passes,
              "mix_cells": len(workload.cells)}

    if not trace:
        setup_times = []
        while len(setup_times) < SETUPS or (
                sum(setup_times) < SETUP_MIN_SECONDS
                and len(setup_times) < SETUP_MAX):
            setup_times.append(_timed_setup(workload))
        phase = run_phase(workload.cells, run_cell, orders, expected, labels)
        tail_value, tail_pct, n = catalog.tail(phase.walls)
        report.update(phases=[phase], tail_pct=tail_pct, samples=n,
                      setup_times=setup_times, metrics={
                          "cells_per_s": phase.cells_per_s,
                          "cell_p50_ms": catalog.median(phase.walls) * 1e3,
                          "cell_tail_ms": tail_value * 1e3,
                          "setup_s": catalog.median(setup_times),
                          "peak_rss_mb": _peak_rss_mb()})
        return report

    from repro.obs import Observer
    from cellbench.spans import Capture, SpanRecorder, instrumented

    recorder, capture = SpanRecorder(), Capture()
    with Observer(trace=False) as obs, instrumented(recorder, capture):
        _timed_setup(workload)
    setup_stats, setup_counters = recorder.stats, obs.registry.snapshot()
    recorder.reset()

    # Equal halves, each starting from an empty profile memo, so the
    # traced and untraced phases do the same work.
    half = max(1, passes // 2)
    untraced = run_phase(workload.cells, run_cell, orders[:half], expected,
                         labels)

    capture.reset()
    with Observer(trace=False) as obs, instrumented(recorder, capture):
        def between_cells():
            checks, capture.pending = capture.pending, []
            obs.registry.frames.clear()
            capture.counts["trace.validated_results"] += len(checks)
            return [f"validator {i} rejected the result"
                    for i, check in enumerate(checks) if not check()]
        traced = run_phase(workload.cells, run_cell, orders[half:2 * half],
                           expected, labels, between_cells)
        counters = obs.registry.snapshot()

    replay_recorder, replay_capture = SpanRecorder(), Capture()
    with instrumented(replay_recorder, replay_capture):
        replay = _store_replay(workload, reference, expected, labels)
    metrics = layer_metrics(recorder, capture.counts, counters, setup_stats,
                            setup_counters, half, traced, untraced)
    metrics.update(campaign_metrics(replay_recorder, replay_capture.counts))
    report.update(phases=[untraced, traced, replay], metrics=metrics,
                  layer_shares=layer_shares(recorder, traced))
    return report


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, counts, counters, setup_stats, setup_counters,
                  passes, traced, untraced) -> dict:
    """Per-layer metrics: timed-phase figures per pass, set-up per set-up."""
    stats = recorder.stats

    def self_s(name, source=stats):
        return source[name].self_time if name in source else 0.0

    def calls(name):
        return stats[name].calls if name in stats else 0

    per = float(passes)
    steals, failed_steals = counts["runtime.steals"], \
        counts["runtime.failed_steals"]
    entries = counts["kernels.bfs_entries"]
    traced_wall = sum(traced.walls)
    return {
        "sim.run_s": self_s("sim.run") / per,
        "sim.events": counts["sim.events"] / per,
        "sim.events_per_s": _ratio(counts["sim.events"], self_s("sim.run")),
        "sim.channel_transfers": counters.get("channel.transfers", 0.0) / per,
        "sim.atomic_ops": counts["sim.atomic_ops"] / per,
        "runtime.loops": calls("runtime.parallel_for") / per,
        "runtime.chunks": counts["runtime.chunks"] / per,
        "runtime.loop_setup_s": self_s("runtime.parallel_for") / per,
        "runtime.steals": steals / per,
        "runtime.steal_success_ratio": _ratio(steals, steals + failed_steals),
        "runtime.tasks_spawned": counts["runtime.tasks_spawned"] / per,
        "machine.execute_s": self_s("machine.execute") / per,
        "machine.execute_calls": calls("machine.execute") / per,
        "machine.costs_s": self_s("machine.costs") / per,
        "machine.profile_s": (self_s("machine.profile")
                              + self_s("machine.profile_cached")) / per,
        "machine.profile_hit_ratio": (
            1.0 - _ratio(calls("machine.profile"),
                         calls("machine.profile_cached"))
            if calls("machine.profile_cached") else 0.0),
        "kernels.coloring_s": self_s("kernels.coloring") / per,
        "kernels.coloring_rounds": counts["kernels.coloring_rounds"] / per,
        "kernels.coloring_recolor_ratio": _ratio(
            counts["kernels.coloring_recolored"],
            counts["kernels.coloring_vertices"]),
        "kernels.bfs_s": self_s("kernels.bfs") / per,
        "kernels.bfs_levels": counts["kernels.bfs_levels"] / per,
        "kernels.bfs_useful_ratio": _ratio(
            entries - counts["kernels.bfs_duplicates"]
            - counts["kernels.bfs_sentinels"], entries),
        "kernels.irregular_s": self_s("kernels.irregular") / per,
        "graph.build_s": self_s("graph.build", setup_stats),
        "graph.reorder_s": self_s("graph.reorder", setup_stats),
        "graphstore.load_s": self_s("graphstore.load", setup_stats),
        "graphstore.hits": setup_counters.get("graphstore.hits", 0.0),
        "trace.overhead_ratio": _ratio(traced.cells_per_s,
                                       untraced.cells_per_s),
        "trace.unattributed_share": _ratio(traced_wall - recorder.root_total,
                                           traced_wall),
        "trace.validated_results": counts["trace.validated_results"] / per,
    }


def campaign_metrics(recorder, counts) -> dict:
    """Campaign-layer metrics of one store seeding and one replay pass."""
    stats = recorder.stats

    def self_s(name):
        return stats[name].self_time if name in stats else 0.0

    gets = stats["campaign.store_get"].calls \
        if "campaign.store_get" in stats else 0
    return {
        "campaign.execute_self_s": self_s("campaign.execute"),
        "campaign.store_get_s": self_s("campaign.store_get"),
        "campaign.store_hit_ratio": _ratio(counts["campaign.store_hits"],
                                           gets),
        "campaign.store_put_s": self_s("campaign.store_put"),
    }


def layer_shares(recorder, traced) -> dict:
    """Each layer's self time as a share of the traced cell wall."""
    wall = sum(traced.walls)
    shares: dict[str, float] = {}
    for name, stat in recorder.stats.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + _ratio(stat.self_time, wall)
    return dict(sorted(shares.items()))


def print_report(report: dict, trace: bool) -> dict:
    """Human-readable lines, then the result object (returned)."""
    from cellbench import catalog
    from repro.campaign.store import code_fingerprint

    phases = report["phases"]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [q for p in phases for q in p.problems]
    wrong = sum(not q.startswith("failed") for q in problems)
    print(f"cellbench workload={report['workload']} seed={report['seed']} "
          f"trace={int(trace)} passes={report['passes']} "
          f"mix_cells={report['mix_cells']}")
    print(f"stamp python={platform.python_version()} "
          f"cpus={os.cpu_count()} code_fingerprint={code_fingerprint()}")
    print("load: single-process closed loop, 1 client, no worker pool; "
          "the next cell starts when the previous one returns")
    if not trace:
        print(f"cell_tail_ms is p{report['tail_pct']:.1f} of "
              f"{report['samples']} cell samples (>= {catalog.TAIL_BEYOND} "
              f"beyond); setup_s is the median of "
              f"{[round(t, 4) for t in report['setup_times']]}")
    else:
        shares = ", ".join(f"{k} {v:.1%}"
                           for k, v in report["layer_shares"].items())
        print(f"layer self time / traced cell wall: {shares}")
    print(f"wrong_cells={wrong} failed_ratio={failed}/{attempted}")
    for problem in problems[:20]:
        print(f"  {problem}")
    metrics = catalog.PER_LAYER if trace else catalog.END_TO_END
    out = {}
    for m in metrics:
        value = report["metrics"][m.name]
        out[m.name] = {"value": value, "unit": m.unit}
        print(f"metric {m.name} = {value:.6g} {m.unit} [layer {m.layer}; "
              f"{m.better} is better] -> {m.moves}")
    return {"correct": wrong == 0 and attempted > failed,
            "attempted": attempted, "failed": failed, "metrics": out}


def regenerate() -> int:
    """Recompute every cell's reference cycles, print the diff, rewrite."""
    from repro.campaign.runners import run_cell
    from cellbench.mixes import WORKLOADS, cell_id, cell_label, prepare, \
        setup

    old = {}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as fh:
            old = json.load(fh)["cells"]
    new = {}
    for workload in WORKLOADS.values():
        prepare(workload, str(WORK_DIR))
        setup(workload, str(WORK_DIR))
        for cell in workload.cells:
            new[cell_id(cell)] = {"cell": cell, "cycles": run_cell(cell)}
    changed = 0
    for cid in sorted(set(old) | set(new)):
        before = old.get(cid, {}).get("cycles")
        after = new.get(cid, {}).get("cycles")
        if before != after:
            changed += 1
            label = cell_label((new.get(cid) or old[cid])["cell"])
            print(f"{cid} {label}: {before!r} -> {after!r}")
    print(f"{changed} of {len(new)} cells changed")
    tmp = REFERENCE.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"cells": new}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, REFERENCE)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help="recompute reference_cycles.json and print "
                             "the diff")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.regenerate:
        return regenerate()
    from cellbench.mixes import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    result = print_report(report, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
