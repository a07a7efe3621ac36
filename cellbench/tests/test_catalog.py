"""Tail-percentile rule, and metric names legal and in step with
BENCHMARK.json."""

import json
from pathlib import Path

import pytest

from cellbench import catalog

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 1001))        # 1..1000, shuffled order irrelevant
    value, pct, n = catalog.tail(reversed(values))
    assert (value, pct, n) == (990, 99.0, 1000)
    assert sum(v > value for v in values) == 10


def test_tail_of_few_samples_falls_below_the_median():
    value, pct, n = catalog.tail([5.0, 1.0, 3.0, 2.0, 4.0] * 3)   # n = 15
    assert n == 15 and value == 2.0 and pct == pytest.approx(100 * 5 / 15)


def test_tail_needs_more_samples_than_beyond():
    assert catalog.tail(range(11))[0] == 0
    with pytest.raises(ValueError):
        catalog.tail(range(10))


def test_median():
    assert catalog.median([3, 1, 2]) == 2
    assert catalog.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        catalog.median([])


def test_metric_names_and_units_are_legal_and_unique():
    metrics = catalog.END_TO_END + catalog.PER_LAYER
    names = [m.name for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert catalog.NAME_RE.match(m.name), m.name
        assert catalog.UNIT_RE.match(m.unit), m.unit
        assert m.better in ("higher", "lower")
    for bad in ("", ".x", "a b", "x" * 65, "ms/op", "-lead"):
        assert not catalog.NAME_RE.match(bad)


def test_benchmark_json_matches_catalogue():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in catalog.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
