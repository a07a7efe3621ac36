"""Pinned benchmark suites and ``BENCH_<suite>.json`` trajectory files.

Four suites cover the layers whose wall-clock cost the ROADMAP speed
items must move:

``figs``
    The paper's figure sweeps (fig1–fig4) at smoke scale — end-to-end
    driver cost including the harness, baselines and aggregation.
``kernels``
    One kernel execution each (colouring, BFS, irregular) in isolation —
    the event engine + runtime hot loops with no sweep machinery around
    them.
``campaign``
    Campaign executor throughput: dispatch overhead per cell (serial
    executor over a trivial runner) and the content-addressed store's
    warm hit path.
``serve``
    The campaign service over live HTTP on an ephemeral port: cold
    submit-to-result latency (journal fsyncs and all) and warm-hit
    resubmission throughput against a pre-seeded sharded store.
``graphs``
    The graph registry at million-vertex scale: one cold streaming
    build of ``tube:1m`` into a fresh registry, and the warm path — a
    new registry instance memory-mapping the same ``.rgr`` file — which
    is the cost every campaign worker pays per graph after the first.

Every benchmark pins its environment (graphs, thread counts, fast mode;
the result store *off* so repetitions measure compute, not cache
hits) and restores it afterwards, so results are comparable across
checkouts and unaffected by the caller's shell.

Results append to versioned trajectory files at the repo root —
``BENCH_figs.json``, ``BENCH_kernels.json``, … — one entry per ``repro
bench run``, carrying an environment fingerprint (python, platform, CPU
count, code fingerprint) so a regression can be told apart from a
machine change.  ``repro bench compare``/``trend`` consume these files;
CI appends on every run and fails on regression past the noise floor.
"""

from __future__ import annotations

import io
import json
import os
import platform
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from repro._util import atomic_write_text, env_str
from repro.bench.timer import WALL, Clock, Sample, measure

__all__ = ["Benchmark", "BENCHMARKS", "SUITES", "suite_names",
           "suite_benchmarks", "run_suite", "env_fingerprint",
           "validate_entry", "load_trajectory", "append_entry",
           "trajectory_path", "SCHEMA_VERSION", "bench_filter"]

#: Version stamp of the entry schema (bump on incompatible change).
SCHEMA_VERSION = 1

#: Smoke-scale sweep pins shared by the fig benchmarks: two suite graphs
#: and three thread counts keep one fig sweep in low single-digit
#: seconds while still exercising the 1-thread baseline and a wide loop.
_FIG_GRAPHS = "auto,pwtk"
_FIG_THREADS = "1,11,31"


def bench_filter() -> str | None:
    """Benchmark-name substring filter from ``REPRO_BENCH_FILTER``."""
    return env_str("REPRO_BENCH_FILTER")


@contextmanager
def _pinned_env(pins: dict):
    """Pin environment variables for one benchmark run, then restore.

    A pin of ``None`` removes the variable.  ``REPRO_STORE`` is always
    cleared: a warm store would turn a compute benchmark into a cache-hit
    benchmark.
    """
    pins = {"REPRO_STORE": None, "REPRO_JOBS": None, **pins}
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
    """One registered benchmark: a pinned, repeatable no-arg callable."""

    name: str
    suite: str
    fn: Callable[[], object]
    description: str = ""


BENCHMARKS: dict[str, Benchmark] = {}


def _register(name: str, suite: str, description: str):
    def deco(fn):
        if name in BENCHMARKS:
            raise ValueError(f"duplicate benchmark name {name!r}")
        BENCHMARKS[name] = Benchmark(name=name, suite=suite, fn=fn,
                                     description=description)
        return fn
    return deco


# ----- figs suite: end-to-end figure sweeps at smoke scale ------------------


def _fig_pins() -> dict:
    return {"REPRO_FAST": "1", "REPRO_GRAPHS": _FIG_GRAPHS,
            "REPRO_THREADS": _FIG_THREADS, "REPRO_PROGRESS": None}


@_register("fig1", "figs", "colouring sweep, natural order")
def _bench_fig1() -> None:
    from repro.experiments.fig1_coloring import run_fig1
    with _pinned_env(_fig_pins()):
        run_fig1()


@_register("fig2", "figs", "colouring sweep, shuffled vertex ids")
def _bench_fig2() -> None:
    from repro.experiments.fig2_shuffled import run_fig2
    with _pinned_env(_fig_pins()):
        run_fig2()


@_register("fig3", "figs", "irregular microbenchmark sweep")
def _bench_fig3() -> None:
    from repro.experiments.fig3_irregular import run_fig3
    with _pinned_env(_fig_pins()):
        run_fig3()


@_register("fig4", "figs", "layered BFS sweep")
def _bench_fig4() -> None:
    from repro.experiments.fig4_bfs import run_fig4
    with _pinned_env(_fig_pins()):
        run_fig4()


# ----- kernels suite: one instrumented-scale kernel run each ----------------


@_register("coloring", "kernels", "one parallel colouring, 31 threads")
def _bench_coloring() -> None:
    from repro.experiments.fig1_coloring import coloring_cycles
    with _pinned_env({}):
        coloring_cycles("pwtk", "OpenMP-dynamic", 31)


@_register("bfs", "kernels", "one layered BFS, 31 threads")
def _bench_bfs() -> None:
    from repro.experiments.fig4_bfs import bfs_cycles
    with _pinned_env({}):
        bfs_cycles("pwtk", "OpenMP-Block-relaxed", 31)


@_register("irregular", "kernels", "one irregular microbenchmark, 31 threads")
def _bench_irregular() -> None:
    from repro.experiments.fig3_irregular import irregular_cycles
    with _pinned_env({}):
        irregular_cycles("auto", "5 x", 31)


# ----- campaign suite: executor and store throughput ------------------------

#: Cells per executor-throughput repetition (trivial runner: measures
#: dispatch/record overhead, reported as cells/sec by ``bench run``).
_EXEC_CELLS = 400


@_register("executor-dispatch", "campaign",
           f"serial executor over {_EXEC_CELLS} trivial cells")
def _bench_executor() -> None:
    from repro.campaign.executor import execute
    with _pinned_env({}):
        report = execute(lambda key: float(key % 7), range(_EXEC_CELLS),
                         jobs=1)
        if report.failed:
            raise RuntimeError(f"executor benchmark failed: {report.errors}")


@_register("store-hits", "campaign",
           f"warm content-addressed store, {_EXEC_CELLS} hits")
def _bench_store_hits() -> None:
    from repro.campaign.executor import execute
    from repro.campaign.store import ResultStore
    with _pinned_env({}), tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        spec_for = lambda key: {"bench": "store-hits", "cell": key}  # noqa: E731
        for key in range(_EXEC_CELLS):
            store.put(spec_for(key), float(key))
        report = execute(lambda key: float(key), range(_EXEC_CELLS),
                         jobs=1, store=store, spec_for=spec_for)
        if report.hits != _EXEC_CELLS:
            raise RuntimeError(
                f"expected {_EXEC_CELLS} hits, got {report.hits}")


# ----- serve suite: the campaign service over live HTTP ---------------------

#: Cells per service benchmark: enough to amortise server startup while
#: keeping one repetition (journal fsyncs included) under a second.
_SERVE_CELLS = 64


def _serve_spec(cells: int) -> dict:
    return {"name": "bench-serve", "experiment": "coloring",
            "graphs": ["auto"], "variants": ["OpenMP-dynamic"],
            "threads": list(range(1, cells + 1)), "machine": "KNF",
            "seeds": [0], "params": {}}


def _serve_stub_runner(cell) -> float:
    return float(cell.threads)


@_register("serve-submit", "serve",
           f"HTTP submit -> results, {_SERVE_CELLS} stub cells, cold store")
def _bench_serve_submit() -> None:
    """Submit-to-result latency of the whole service path: HTTP parse,
    admission, journal (fsync per record), queue, dispatch, settle,
    results serialisation — with a stub runner so compute is nil."""
    from repro.serve import client
    from repro.serve.http import BackgroundServer
    from repro.serve.service import CampaignService
    from repro.serve.shards import ShardedResultStore
    with _pinned_env({}), tempfile.TemporaryDirectory() as root:
        store = ShardedResultStore(root, shards=8, cache_size=1024)
        with BackgroundServer(lambda: CampaignService(
                store, jobs=1, retries=0,
                runner=_serve_stub_runner)) as url:
            status, accepted = client.submit_job(
                url, _serve_spec(_SERVE_CELLS), client="bench")
            if status != 202:
                raise RuntimeError(f"submit rejected: {status} {accepted}")
            client.wait_for_job(url, accepted["job"], timeout=120)
            status, _raw = client.job_results(url, accepted["job"])
            if status != 200:
                raise RuntimeError(f"results fetch failed: {status}")


@_register("serve-warm-hits", "serve",
           f"HTTP submit of {_SERVE_CELLS} store-warm cells")
def _bench_serve_warm_hits() -> None:
    """Warm-resubmission throughput: every cell pre-seeded in the
    sharded store, so the whole job settles at submit time from store
    hits — no queue, no dispatch, no compute."""
    from repro.campaign.spec import CampaignSpec
    from repro.serve import client
    from repro.serve.http import BackgroundServer
    from repro.serve.service import CampaignService
    from repro.serve.shards import ShardedResultStore
    with _pinned_env({}), tempfile.TemporaryDirectory() as root:
        store = ShardedResultStore(root, shards=8, cache_size=1024)
        spec = _serve_spec(_SERVE_CELLS)
        for cell in CampaignSpec.from_dict(spec).expand():
            store.put(cell.to_dict(), float(cell.threads))
        with BackgroundServer(lambda: CampaignService(
                store, jobs=1, retries=0,
                runner=_serve_stub_runner)) as url:
            status, accepted = client.submit_job(url, spec, client="bench")
            if status != 202:
                raise RuntimeError(f"submit rejected: {status} {accepted}")
            cells = accepted["cells"]
            if cells["hits"] != cells["total"]:
                raise RuntimeError(
                    f"expected {cells['total']} store hits, "
                    f"got {cells['hits']}")
            status, _raw = client.job_results(url, accepted["job"])
            if status != 200:
                raise RuntimeError(f"results fetch failed: {status}")


# ----- graphs suite: registry cold build vs warm mmap load ------------------

#: The graph the registry benchmarks build/load: the smallest name that
#: exercises true million-vertex scale (~12.5M directed entries, ~55 MiB
#: on disk).
_GRAPHS_BENCH_NAME = "tube:1m"

#: Lazily-built registry root shared by the warm-load repetitions, so
#: the ~4s build is paid once, not per sample.  Cleaned up at exit.
_graphs_warm_root: str | None = None


def _graphs_warm_registry_root() -> str:
    global _graphs_warm_root
    if _graphs_warm_root is None:
        import atexit
        import shutil
        from repro.graphstore.registry import GraphRegistry
        root = tempfile.mkdtemp(prefix="repro-bench-graphs-")
        GraphRegistry(root).build(_GRAPHS_BENCH_NAME)
        atexit.register(shutil.rmtree, root, True)
        _graphs_warm_root = root
    return _graphs_warm_root


@_register("graphs-cold-build", "graphs",
           f"streaming build + save of {_GRAPHS_BENCH_NAME}, fresh registry")
def _bench_graphs_cold_build() -> None:
    """The full cold path: parse the name, stream-generate a million
    vertices through the external CSR builder, write the checksummed
    ``.rgr``, and mmap it back."""
    from repro.graphstore.registry import GraphRegistry
    with _pinned_env({}), tempfile.TemporaryDirectory() as root:
        registry = GraphRegistry(root)
        graph = registry.get(_GRAPHS_BENCH_NAME)
        if registry.stats.builds != 1 or graph.n_vertices < 1_000_000:
            raise RuntimeError(f"expected one 1M-vertex cold build, got "
                               f"{registry.stats.to_dict()}")


#: Warm loads per repetition: one mmap open is sub-millisecond, so a
#: single load is all clock noise; 20 fresh-registry loads amortise it.
_GRAPHS_WARM_LOADS = 20


@_register("graphs-warm-load", "graphs",
           f"{_GRAPHS_WARM_LOADS} zero-copy mmap loads of a built "
           f"{_GRAPHS_BENCH_NAME}")
def _bench_graphs_warm_load() -> None:
    """The per-worker warm path: a fresh registry instance (cold handle
    cache, as in a new fork) resolving the same name must load via mmap
    with zero generation — O(1) header checks, no payload read."""
    from repro.graphstore.registry import GraphRegistry
    with _pinned_env({}):
        root = _graphs_warm_registry_root()
        for _ in range(_GRAPHS_WARM_LOADS):
            registry = GraphRegistry(root)
            graph = registry.get(_GRAPHS_BENCH_NAME)
            if registry.stats.builds != 0 or registry.stats.hits != 1:
                raise RuntimeError(f"warm load regenerated the graph: "
                                   f"{registry.stats.to_dict()}")
            if graph.n_vertices < 1_000_000:
                raise RuntimeError("warm load returned the wrong graph")


# ----- suite execution ------------------------------------------------------

#: Suite name -> ordered benchmark names (derived from the registry).
SUITES: dict[str, list[str]] = {}
for _name, _bench in BENCHMARKS.items():
    SUITES.setdefault(_bench.suite, []).append(_name)


def suite_names() -> list[str]:
    """The registered suite names, sorted."""
    return sorted(SUITES)


def suite_benchmarks(suite: str,
                     name_filter: str | None = None) -> list[Benchmark]:
    """The suite's benchmarks, optionally filtered by name substring."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} "
                         f"(choose from {suite_names()})")
    if name_filter is None:
        name_filter = bench_filter()
    out = [BENCHMARKS[n] for n in SUITES[suite]
           if name_filter is None or name_filter in n]
    if not out:
        raise ValueError(f"filter {name_filter!r} matches no benchmark in "
                         f"suite {suite!r} (have {SUITES[suite]})")
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


def run_suite(suite: str, *, repeat: int | None = None,
              warmup: int | None = None, name_filter: str | None = None,
              clock: Clock = WALL, stamp: Clock = time.time,
              progress=None) -> dict:
    """Run every benchmark of *suite*; returns one trajectory entry.

    *clock* times the repetitions and *stamp* produces the entry's
    ``generated_at`` — both injectable so tests get byte-stable entries.
    *progress* (``callable(str)``) receives one line per benchmark.
    Benchmark stdout is swallowed: the drivers print ASCII panels, and a
    timing run is not the place for them.
    """
    benches = suite_benchmarks(suite, name_filter)
    results: dict[str, dict] = {}
    for bench in benches:
        if progress is not None:
            progress(f"bench {bench.name} ({bench.description}) ...")
        sink = io.StringIO()
        with redirect_stdout(sink):
            sample = measure(bench.fn, repeat=repeat, warmup=warmup,
                             clock=clock)
        results[bench.name] = sample.to_dict()
        if progress is not None:
            progress(f"bench {bench.name}: median "
                     f"{sample.median:.4f}s over {sample.repeat} run(s) "
                     f"(spread {sample.spread:.1%})")
    entry = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
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


def trajectory_path(suite: str, directory: str | os.PathLike = ".") -> str:
    """Default trajectory file for *suite*: ``<dir>/BENCH_<suite>.json``."""
    return os.path.join(os.fspath(directory), f"BENCH_{suite}.json")


def load_trajectory(path: str | os.PathLike) -> dict:
    """Load + schema-check a trajectory file (or a bare entry).

    A bare entry (as written by ``bench run --output`` with
    ``--no-append``) is wrapped into a single-entry trajectory so the
    compare/trend layer handles both shapes.
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
