"""Exact simulated cycles of a fast subset of the benchmark's cells.

``cellbench/reference_cycles.json`` pins the cycles of every cell the
cell benchmark runs, but only a benchmark run checks them.  This test
re-runs the cheap ones through the campaign runner with no ``REPRO_*``
knob set and asserts bit-equality: every Figure 3 irregular cell on
``auto`` and every colouring and BFS cell on ``pwtk``.  The file is read
only; ``python3 cellbench/run.py --regenerate`` rewrites it after a
deliberate model change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.campaign.runners import run_cell

REFERENCE = (Path(__file__).resolve().parents[2] / "cellbench"
             / "reference_cycles.json")


def _fast_subset() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    return {cid: entry for cid, entry in sorted(cells.items())
            if (entry["cell"]["experiment"], entry["cell"]["graph"])
            in {("irregular", "auto"), ("coloring", "pwtk"), ("bfs", "pwtk")}}


SUBSET = _fast_subset()


def _label(cid: str) -> str:
    cell = SUBSET[cid]["cell"]
    params = "".join(f"-{k}{v}" for k, v in sorted(cell["params"].items()))
    return (f"{cell['experiment']}-{cell['graph']}-{cell['variant']}"
            f"-{cell['machine']}-{cell['threads']}t{params}")


def test_subset_covers_every_experiment():
    experiments = [e["cell"]["experiment"] for e in SUBSET.values()]
    assert experiments.count("irregular") == 18
    assert {"coloring", "bfs"} <= set(experiments)


@pytest.mark.parametrize("cid", sorted(SUBSET, key=_label), ids=_label)
def test_cycles_match_reference(cid, monkeypatch):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    entry = SUBSET[cid]
    assert run_cell(entry["cell"]) == entry["cycles"]
