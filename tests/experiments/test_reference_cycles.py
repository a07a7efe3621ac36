"""Exact simulated cycles of figure cells, pinned in two files.

* ``cellbench/reference_cycles.json`` pins every cell the cell benchmark
  runs.  Only a benchmark run checks all of them; tier-1 re-runs every
  Figure 3 irregular cell on ``auto`` and every colouring and BFS cell
  on ``pwtk``.  ``python3 cellbench/run.py --regenerate`` rewrites it.
* ``benchmarks/golden_cycles.json`` pins every ``REPRO_FAST`` cell of
  Figures 1-4 and fig-faults (fault seed 0); its cells are listed from
  the figure drivers' own grids.  Tier-1 re-runs every experiment and
  variant on ``auto`` (``pwtk`` for the variants Figure 4 sweeps only on
  named graphs) at 1 and 31 threads, intensities 0 and 25 for faults;
  CI checks the whole manifest with
  ``PYTHONPATH=src python tests/experiments/test_reference_cycles.py``,
  which prints every changed cell and exits 1 on a change.  Add
  ``--regenerate`` to rewrite the file after a deliberate model change.

Both files map a campaign cell ID to ``{"cell": CellSpec dict, "cycles":
float}``; cells run through :func:`repro.campaign.runners.run_cell` with
no ``REPRO_*`` knob set and must match bit for bit.
"""

import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.campaign.runners import run_cell
from repro.campaign.spec import CellSpec

ROOT = Path(__file__).resolve().parents[2]
REFERENCE = ROOT / "cellbench" / "reference_cycles.json"
GOLDEN = ROOT / "benchmarks" / "golden_cycles.json"


def load_cells(path) -> dict:
    """``cell_id -> {"cell": ..., "cycles": ...}`` of a pinned-cycles file."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


def _reference_subset() -> dict:
    return {cid: entry for cid, entry in sorted(load_cells(REFERENCE).items())
            if (entry["cell"]["experiment"], entry["cell"]["graph"])
            in {("irregular", "auto"), ("coloring", "pwtk"), ("bfs", "pwtk")}}


def _kind(entry) -> tuple:
    cell = entry["cell"]
    return (cell["experiment"], cell["variant"], cell["machine"],
            json.dumps(cell["params"], sort_keys=True))


def _golden_subset() -> dict:
    """Every experiment and variant on its smallest graph (``auto`` unless
    the figure sweeps it on named graphs only) at two axis points."""
    cells = load_cells(GOLDEN)
    points = {"threads": (1, 31), "intensity": (0, 25)}
    by_size = ("auto", "pwtk", "inline_1")
    smallest = {}
    for entry in sorted(cells.values(),
                        key=lambda e: by_size.index(e["cell"]["graph"])):
        smallest.setdefault(_kind(entry), entry["cell"]["graph"])
    return {cid: entry for cid, entry in sorted(cells.items())
            if entry["cell"]["graph"] == smallest[_kind(entry)]
            and entry["cell"]["threads"] in points[entry["cell"]["axis"]]}


SUBSET = _reference_subset()
GOLDEN_SUBSET = _golden_subset()


def _label(entry) -> str:
    cell = entry["cell"]
    params = "".join(f"-{k}{v}" for k, v in sorted(cell["params"].items()))
    return (f"{cell['experiment']}-{cell['graph']}-{cell['variant']}"
            f"-{cell['machine']}-{cell['threads']}t{params}")


@pytest.fixture
def no_knobs(monkeypatch):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)


def test_subset_covers_every_experiment():
    experiments = [e["cell"]["experiment"] for e in SUBSET.values()]
    assert experiments.count("irregular") == 18
    assert {"coloring", "bfs"} <= set(experiments)


@pytest.mark.parametrize(
    "cid", sorted(SUBSET, key=lambda c: _label(SUBSET[c])),
    ids=lambda c: _label(SUBSET[c]))
def test_cycles_match_reference(cid, no_knobs):
    entry = SUBSET[cid]
    assert run_cell(entry["cell"]) == entry["cycles"]


# ----- the figure grids ------------------------------------------------------


def figure_grid(run_figure, fast: bool = True) -> list:
    """Every cell a figure driver sweeps, in sweep order, with no ``REPRO_*``
    knob set but ``REPRO_FAST`` (when *fast*).

    The driver runs for real with the executor call stubbed to record its
    cells and answer 1.0 cycles each, and with the BFS model series
    stubbed, so nothing is simulated and no graph is built.
    """
    import numpy as np
    from repro.campaign.executor import ExecutionReport
    from repro.experiments import fig4_bfs

    cells = []

    def record(batch, **_):
        cells.extend(batch)
        return ExecutionReport(values=dict.fromkeys(batch, 1.0))

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    if fast:
        env["REPRO_FAST"] = "1"
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch("repro.campaign.executor.execute_cells", record), \
            mock.patch.object(fig4_bfs, "model_series",
                              lambda graphs, threads, block:
                              np.ones(len(threads))):
        run_figure()
    return list(dict.fromkeys(cells))


def figures() -> dict:
    from repro.experiments import (run_fig1, run_fig2, run_fig3, run_fig4,
                                   run_fig_faults)
    return {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3,
            "fig4": run_fig4, "fig-faults": run_fig_faults}


def figure_cells() -> list:
    """Every cell the ``REPRO_FAST`` figures sweep (fault seed 0): the
    manifest's cells."""
    return list(dict.fromkeys(cell for run in figures().values()
                              for cell in figure_grid(run)))


def test_manifest_lists_every_figure_cell():
    assert sorted(c.cell_id for c in figure_cells()) == \
        sorted(load_cells(GOLDEN))


def test_campaign_ci_cells_are_fig1_cells():
    from repro.campaign.spec import CampaignSpec
    campaign = CampaignSpec.from_file(ROOT / "benchmarks"
                                      / "campaign_ci.json").expand()
    fig1 = set(figure_grid(figures()["fig1"]))
    assert len(campaign) == 8 and set(campaign) <= fig1


def test_full_figure_grids_hold_the_cellbench_cells():
    full = {cell.cell_id for name in ("fig1", "fig2", "fig3", "fig4")
            for cell in figure_grid(figures()[name], fast=False)}
    reference = load_cells(REFERENCE)
    outside = sorted(CellSpec.from_dict(reference[cid]["cell"]).label()
                     + " " + reference[cid]["cell"]["params"]["ordering"]
                     for cid in set(reference) - full)
    # Fig 2 sweeps only each model's best variant in random order.
    assert len(reference) - len(outside) == 80
    assert outside == ["auto/OpenMP-static@1t random",
                       "auto/TBB-affinity@31t random"]


def test_golden_subset_covers_every_experiment_and_variant():
    every = {_kind(e) for e in load_cells(GOLDEN).values()}
    subset = [_kind(e) for e in GOLDEN_SUBSET.values()]
    assert set(subset) == every
    assert len(subset) == 2 * len(every) - 4  # host sweeps skip 31 threads


@pytest.mark.parametrize(
    "cid", sorted(GOLDEN_SUBSET, key=lambda c: _label(GOLDEN_SUBSET[c])),
    ids=lambda c: _label(GOLDEN_SUBSET[c]))
def test_cycles_match_golden(cid, no_knobs):
    entry = GOLDEN_SUBSET[cid]
    assert run_cell(entry["cell"]) == entry["cycles"]


def check_manifest(regenerate: bool = False) -> int:
    """Re-run every manifest cell, print the changed ones, optionally
    rewrite the file; returns the number of changed cells."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    old = load_cells(GOLDEN) if GOLDEN.exists() else {}
    new = {}
    for cell in figure_cells():
        new[cell.cell_id] = {"cell": cell.to_dict(),
                             "cycles": run_cell(cell)}
    changed = 0
    for cid in sorted(set(old) | set(new)):
        before = old.get(cid, {}).get("cycles")
        after = new.get(cid, {}).get("cycles")
        if before != after:
            changed += 1
            entry = new.get(cid) or old[cid]
            print(f"{cid} {_label(entry)}: {before!r} -> {after!r}")
    print(f"{changed} of {len(new)} cells changed")
    if regenerate:
        tmp = GOLDEN.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"cells": new}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, GOLDEN)
    return changed


if __name__ == "__main__":
    regenerate = "--regenerate" in sys.argv[1:]
    sys.exit(1 if check_manifest(regenerate) and not regenerate else 0)
