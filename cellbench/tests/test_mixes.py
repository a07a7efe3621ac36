"""Seeded cell order, and every mix cell backed by a reference value."""

import json
from pathlib import Path

from cellbench import mixes

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
REFERENCE = Path(__file__).resolve().parents[1] / "reference_cycles.json"


def test_same_seed_gives_same_cell_order():
    assert mixes.pass_orders(15, 7, 3) == mixes.pass_orders(15, 7, 3)


def test_seed_only_permutes_the_mix():
    a, b = mixes.pass_orders(15, 1, 4), mixes.pass_orders(15, 2, 4)
    assert a != b
    for order in a + b:
        assert sorted(order) == list(range(15))


def test_passes_never_drop_below_the_minimum():
    for workload in mixes.WORKLOADS.values():
        assert mixes.passes_for(workload, 0.001) == mixes.MIN_PASSES
        # the tail percentile needs more than ten samples
        assert mixes.MIN_PASSES * len(workload.cells) > 10


def test_cells_round_trip_through_cellspec_and_are_distinct():
    from repro.campaign.spec import CellSpec
    for workload in mixes.WORKLOADS.values():
        ids = [mixes.cell_id(c) for c in workload.cells]
        assert len(ids) == len(set(ids)), workload.name
        for cell in workload.cells:
            assert CellSpec.from_dict(cell).to_dict() == cell
            assert cell["seed"] == 0


def test_every_cell_has_a_reference_cycle_count():
    reference = json.loads(REFERENCE.read_text())["cells"]
    for workload in mixes.WORKLOADS.values():
        for cell in workload.cells:
            entry = reference[mixes.cell_id(cell)]
            assert entry["cell"] == cell and entry["cycles"] > 0


def test_benchmark_json_lists_the_workloads():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(mixes.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == mixes.WORKLOADS[w["name"]].why
