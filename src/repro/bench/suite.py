"""Benchmark suites and the ``BENCH_figs.json`` trajectory file.

Two suites, each with one consumer:

``figs``
    The paper's figure sweeps (fig1–fig4) at smoke scale — end-to-end
    driver cost including the harness, baselines and aggregation.
    ``repro bench run`` times it and appends to ``BENCH_figs.json``;
    ``repro bench profile --suite figs`` attributes its wall time.
``kernels``
    Three :class:`~repro.campaign.spec.CellSpec`\\ s run through
    :func:`~repro.campaign.runners.run_cell` — one colouring, one BFS
    and one irregular cell at 31 threads (:data:`KERNEL_CELLS`).  They
    are profiled, never timed into a trajectory: the CI telemetry gate
    compares their metric frames with ``benchmarks/profile_baseline.jsonl``
    byte for byte, and the profiler coverage gate runs on them.

Every fig benchmark pins its environment (graphs, thread counts, fast
mode; the result store and the graph registry *off* so repetitions
measure compute, not cache hits) and restores it afterwards, so results
are comparable across checkouts and unaffected by the caller's shell.
Every run, warmup or timed, starts cold: the in-process graph, ordering,
access-profile and BFS-width memos are emptied first, so each
repetition pays graph generation, relabelling and profile set-up as a
fresh ``repro-experiments`` process does.

Each ``repro bench run`` appends one entry to ``BENCH_figs.json`` at
the repo root, carrying an environment fingerprint (python, platform,
CPU count, code fingerprint) so a regression can be told apart from a
machine change.  ``repro bench compare`` gates two such entries.
"""

from __future__ import annotations

import io
import json
import os
import platform
import sys
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro._util import atomic_write_text
from repro.bench.timer import (DEFAULT_REPEAT, DEFAULT_WARMUP, WALL, Clock,
                               measure)
from repro.campaign.runners import run_cell
from repro.campaign.spec import CellSpec

__all__ = ["Benchmark", "KERNEL_CELLS", "SUITES", "suite_benchmarks",
           "run_suite", "env_fingerprint", "validate_entry",
           "load_trajectory", "append_entry", "TRAJECTORY",
           "SCHEMA_VERSION"]

#: Version stamp of the entry schema (bump on incompatible change).
SCHEMA_VERSION = 1

#: The trajectory file ``bench run`` appends to by default.
TRAJECTORY = "BENCH_figs.json"

#: Smoke-scale sweep pins shared by the fig benchmarks: two suite graphs
#: and three thread counts keep one fig sweep in low single-digit
#: seconds while still exercising the 1-thread baseline and a wide loop.
_FIG_GRAPHS = "auto,pwtk"
_FIG_THREADS = "1,11,31"


@contextmanager
def _pinned_env(pins: dict):
    """Pin environment variables for one benchmark run, then restore.

    A pin of ``None`` removes the variable.  ``REPRO_STORE`` and
    ``REPRO_GRAPH_DIR`` are always cleared: a warm result store or graph
    registry would turn a compute benchmark into a cache-hit benchmark.
    """
    pins = {"REPRO_STORE": None, "REPRO_GRAPH_DIR": None, "REPRO_JOBS": None,
            **pins}
    saved = {name: os.environ.get(name) for name in pins}
    try:
        for name, value in pins.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = str(value)
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@dataclass(frozen=True)
class Benchmark:
    """One benchmark: a pinned, repeatable no-arg callable."""

    name: str
    fn: Callable[[], object]
    description: str = ""


def _forget_memos() -> None:
    """Empty every in-process memo a fig sweep fills, and drop the graph
    registry's handles, so the next run generates, relabels, prices and
    sequentially colours its graphs again.

    The memos: ``suite_graph``, ``ordered_suite_graph``,
    ``fig4_bfs._widths``, ``_access_profile_lru`` and the first-fit
    colourings (``coloring.sequential._FIRST_FIT``)."""
    from repro.experiments.fig4_bfs import _widths
    from repro.experiments.harness import ordered_suite_graph
    from repro.graph.suite import suite_graph
    from repro.graphstore import registry
    from repro.kernels.coloring.sequential import _FIRST_FIT
    from repro.machine.cache import _access_profile_lru
    suite_graph.cache_clear()
    ordered_suite_graph.cache_clear()
    _widths.cache_clear()
    _access_profile_lru.cache_clear()
    _FIRST_FIT.clear()
    registry._ACTIVE.clear()


def _run_fig(module: str, runner: str) -> None:
    from importlib import import_module
    _forget_memos()
    with _pinned_env({"REPRO_FAST": "1", "REPRO_GRAPHS": _FIG_GRAPHS,
                      "REPRO_THREADS": _FIG_THREADS,
                      "REPRO_PROGRESS": None}):
        getattr(import_module(f"repro.experiments.{module}"), runner)()


#: The kernel profile targets: one cell per kernel at 31 threads.  Each
#: is profiled under the label ``benchmark=<experiment>``.
KERNEL_CELLS = (
    CellSpec("coloring", "pwtk", "OpenMP-dynamic", 31),
    CellSpec("bfs", "pwtk", "OpenMP-Block-relaxed", 31),
    CellSpec("irregular", "auto", "OpenMP", 31,
             params=(("iterations", 5),)),
)

#: Suite name -> its benchmarks, in run order.
SUITES: dict[str, tuple[Benchmark, ...]] = {
    "figs": (
        Benchmark("fig1", partial(_run_fig, "fig1_coloring", "run_fig1"),
                  "colouring sweep, natural order"),
        Benchmark("fig2", partial(_run_fig, "fig2_shuffled", "run_fig2"),
                  "colouring sweep, shuffled vertex ids"),
        Benchmark("fig3", partial(_run_fig, "fig3_irregular", "run_fig3"),
                  "irregular microbenchmark sweep"),
        Benchmark("fig4", partial(_run_fig, "fig4_bfs", "run_fig4"),
                  "layered BFS sweep"),
    ),
    "kernels": tuple(Benchmark(cell.experiment, partial(run_cell, cell),
                               f"{cell.experiment} {cell.label()}")
                     for cell in KERNEL_CELLS),
}


def suite_benchmarks(suite: str,
                     name_filter: str | None = None) -> list[Benchmark]:
    """The suite's benchmarks, optionally filtered by name substring."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} "
                         f"(choose from {sorted(SUITES)})")
    out = [b for b in SUITES[suite]
           if name_filter is None or name_filter in b.name]
    if not out:
        raise ValueError(f"filter {name_filter!r} matches no benchmark in "
                         f"suite {suite!r} "
                         f"(have {[b.name for b in SUITES[suite]]})")
    return out


def env_fingerprint() -> dict:
    """The environment block stamped into every trajectory entry.

    Identifies *where* an entry was measured — comparing entries whose
    fingerprints disagree on machine or python is a warning, not a
    regression.
    """
    import repro
    from repro.campaign.store import code_fingerprint
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "repro_version": repro.__version__,
        "code_fingerprint": code_fingerprint(),
    }


def run_suite(*, repeat: int = DEFAULT_REPEAT, warmup: int = DEFAULT_WARMUP,
              name_filter: str | None = None, clock: Clock = WALL,
              stamp: Clock = time.time, progress=None) -> dict:
    """Time every ``figs`` benchmark; returns one trajectory entry.

    *clock* times the repetitions and *stamp* produces the entry's
    ``generated_at`` — both injectable so tests get byte-stable entries.
    *progress* (``callable(str)``) receives one line per benchmark.
    Benchmark stdout is swallowed: the drivers print ASCII panels, and a
    timing run is not the place for them.
    """
    results: dict[str, dict] = {}
    for bench in suite_benchmarks("figs", name_filter):
        if progress is not None:
            progress(f"bench {bench.name} ({bench.description}) ...")
        with redirect_stdout(io.StringIO()):
            sample = measure(bench.fn, repeat=repeat, warmup=warmup,
                             clock=clock)
        results[bench.name] = sample.to_dict()
        if progress is not None:
            progress(f"bench {bench.name}: median "
                     f"{sample.median:.4f}s over {sample.repeat} run(s) "
                     f"(spread {sample.spread:.1%})")
    entry = {
        "schema": SCHEMA_VERSION,
        "suite": "figs",
        "generated_at": float(stamp()),
        "env": env_fingerprint(),
        "results": results,
    }
    validate_entry(entry)
    return entry


# ----- trajectory files -----------------------------------------------------


def validate_entry(entry: object) -> dict:
    """Schema-check one trajectory entry; returns it or raises ValueError."""
    if not isinstance(entry, dict):
        raise ValueError(f"entry must be an object, got {type(entry).__name__}")
    for key in ("schema", "suite", "generated_at", "env", "results"):
        if key not in entry:
            raise ValueError(f"entry is missing {key!r}")
    if entry["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported entry schema {entry['schema']!r} "
                         f"(expected {SCHEMA_VERSION})")
    if not isinstance(entry["results"], dict) or not entry["results"]:
        raise ValueError("entry has no results")
    for name, stats in entry["results"].items():
        if not isinstance(stats, dict):
            raise ValueError(f"result {name!r} is not a stats block")
        for field in ("median_s", "min_s", "spread", "samples_s"):
            if field not in stats:
                raise ValueError(f"result {name!r} is missing {field!r}")
        if not stats["samples_s"]:
            raise ValueError(f"result {name!r} has no samples")
    env = entry["env"]
    if not isinstance(env, dict) or "code_fingerprint" not in env:
        raise ValueError("entry env block is missing code_fingerprint")
    return entry


def load_trajectory(path: str | os.PathLike) -> dict:
    """Load + schema-check a trajectory file (or a bare entry).

    A bare entry (as written by ``bench run --output`` with
    ``--no-append``) is wrapped into a single-entry trajectory so the
    compare layer handles both shapes.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "entries" not in data:
        entry = validate_entry(data)
        return {"bench_schema": SCHEMA_VERSION, "suite": entry["suite"],
                "entries": [entry]}
    if not isinstance(data, dict) or data.get("bench_schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: not a repro bench trajectory file")
    entries = data.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: trajectory has no entries")
    for entry in entries:
        validate_entry(entry)
        if entry["suite"] != data.get("suite"):
            raise ValueError(f"{path}: entry suite {entry['suite']!r} does "
                             f"not match file suite {data.get('suite')!r}")
    return data


def append_entry(path: str | os.PathLike, entry: dict) -> dict:
    """Append *entry* to the trajectory at *path* (created if missing).

    Returns the updated trajectory.  Writes are atomic with sorted keys
    — the same bytes for the same entries, regardless of insertion
    history.
    """
    validate_entry(entry)
    path = os.fspath(path)
    if os.path.exists(path):
        data = load_trajectory(path)
        if data["suite"] != entry["suite"]:
            raise ValueError(
                f"{path} tracks suite {data['suite']!r}, refusing to append "
                f"a {entry['suite']!r} entry")
    else:
        data = {"bench_schema": SCHEMA_VERSION, "suite": entry["suite"],
                "entries": []}
    data["entries"].append(entry)
    atomic_write_text(path, json.dumps(data, sort_keys=True, indent=1) + "\n")
    return data


def print_entry(entry: dict, stream=None) -> None:
    """Human-readable table of one entry's results."""
    from repro.experiments.report import format_rows
    stream = stream if stream is not None else sys.stdout
    rows = []
    for name in sorted(entry["results"]):
        stats = entry["results"][name]
        rows.append((name, f"{stats['median_s']:.4f}",
                     f"{stats['min_s']:.4f}", f"{stats['spread']:.1%}",
                     str(stats.get("repeat", len(stats["samples_s"])))))
    print(format_rows(["benchmark", "median_s", "min_s", "spread", "runs"],
                      rows), file=stream)
