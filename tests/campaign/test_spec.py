"""Campaign specs: grid expansion, stable cell IDs, validation."""

import pytest

from repro.campaign.spec import AXES, CampaignSpec, CellSpec


def make_spec(**over):
    data = {"name": "t", "experiment": "coloring",
            "graphs": ["auto", "pwtk"],
            "variants": ["OpenMP-dynamic", "TBB-simple"],
            "threads": [1, 11], "seeds": [0],
            "params": {"ordering": "natural"}}
    data.update(over)
    return CampaignSpec.from_dict(data)


class TestCellSpec:
    def test_dict_roundtrip(self):
        c = CellSpec(experiment="coloring", graph="auto",
                     variant="OpenMP-dynamic", threads=11,
                     params=(("ordering", "natural"),))
        assert CellSpec.from_dict(c.to_dict()) == c

    def test_cell_id_deterministic(self):
        kw = dict(experiment="bfs", graph="auto", variant="bag", threads=31)
        assert CellSpec(**kw).cell_id == CellSpec(**kw).cell_id
        assert len(CellSpec(**kw).cell_id) == 16

    def test_cell_id_sensitive_to_every_coordinate(self):
        base = CellSpec(experiment="bfs", graph="auto", variant="bag",
                        threads=31)
        ids = {base.cell_id,
               CellSpec(experiment="coloring", graph="auto", variant="bag",
                        threads=31).cell_id,
               CellSpec(experiment="bfs", graph="pwtk", variant="bag",
                        threads=31).cell_id,
               CellSpec(experiment="bfs", graph="auto", variant="bag",
                        threads=61).cell_id,
               CellSpec(experiment="bfs", graph="auto", variant="bag",
                        threads=31, seed=1).cell_id,
               CellSpec(experiment="bfs", graph="auto", variant="bag",
                        threads=31, machine="HOST_XEON").cell_id,
               CellSpec(experiment="bfs", graph="auto", variant="bag",
                        threads=31, params=(("block", 64),)).cell_id}
        assert len(ids) == 7

    def test_params_order_does_not_change_id(self):
        a = CellSpec.from_dict({"experiment": "bfs", "graph": "auto",
                                "variant": "bag", "threads": 1,
                                "params": {"a": 1, "b": 2}})
        b = CellSpec.from_dict({"experiment": "bfs", "graph": "auto",
                                "variant": "bag", "threads": 1,
                                "params": {"b": 2, "a": 1}})
        assert a.cell_id == b.cell_id

    def test_label(self):
        c = CellSpec(experiment="bfs", graph="auto", variant="bag",
                     threads=31)
        assert c.label() == "auto/bag@31t"
        f = CellSpec(experiment="bfs-faults", graph="auto", variant="OpenMP",
                     threads=40, axis="intensity")
        assert f.label().endswith("40%")


class TestExpansion:
    def test_count_and_order(self):
        spec = make_spec()
        cells = spec.expand()
        assert len(cells) == 2 * 2 * 2  # graphs x variants x threads
        # graphs outer, then variants, then threads
        assert [(c.graph, c.variant, c.threads) for c in cells[:3]] == [
            ("auto", "OpenMP-dynamic", 1), ("auto", "OpenMP-dynamic", 11),
            ("auto", "TBB-simple", 1)]

    def test_expansion_is_deterministic(self):
        ids = [c.cell_id for c in make_spec().expand()]
        assert ids == [c.cell_id for c in make_spec().expand()]
        assert len(set(ids)) == len(ids)

    def test_seeds_multiply(self):
        spec = make_spec(seeds=[0, 1, 2])
        assert len(spec.expand()) == 8 * 3


class TestRoundTrip:
    def test_dict_roundtrip(self):
        spec = make_spec()
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == \
            spec.to_dict()

    def test_file_roundtrip(self, tmp_path):
        import json
        spec = make_spec()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_file(path).to_dict() == spec.to_dict()

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            CampaignSpec.from_file(path)

    def test_ci_spec_parses(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", "campaign_ci.json")
        spec = CampaignSpec.from_file(path)
        assert spec.name == "ci-tiny"
        assert len(spec.expand()) == 8


class TestValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            make_spec(typo="x")

    def test_missing_name(self):
        with pytest.raises(ValueError, match="name"):
            CampaignSpec.from_dict({"experiment": "coloring"})

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            make_spec(experiment="nope")

    def test_unknown_graph(self):
        with pytest.raises(ValueError, match="unknown graphs"):
            make_spec(graphs=["auto", "nope"])

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variants"):
            make_spec(variants=["OpenMP-dynamic", "nope"])

    def test_bad_threads_matches_env_error(self):
        with pytest.raises(ValueError, match="is not an integer"):
            make_spec(threads=[1, "x"])
        with pytest.raises(ValueError, match="must be >= 1"):
            make_spec(threads=[0])
        with pytest.raises(ValueError, match="no thread counts"):
            make_spec(threads=[])

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            make_spec(axis="widgets")
        assert AXES == ("threads", "intensity")

    def test_intensity_axis_bounds(self):
        spec = make_spec(experiment="coloring-faults",
                         variants=["OpenMP-dynamic"], axis="intensity",
                         threads=[0, 40, 100], params={})
        assert len(spec.expand()) == 2 * 1 * 3
        with pytest.raises(ValueError, match="0..100"):
            make_spec(experiment="coloring-faults",
                      variants=["OpenMP-dynamic"],
                      axis="intensity", threads=[150], params={})

    def test_bad_machine(self):
        with pytest.raises(ValueError, match="machine"):
            make_spec(machine="KNC")

    def test_threads_beyond_the_machine(self):
        with pytest.raises(ValueError,
                           match="121 threads exceed HOST_XEON's 24"):
            make_spec(experiment="bfs", machine="HOST_XEON",
                      variants=["OpenMP-TLS"], threads=[1, 121], params={})
        make_spec(experiment="bfs", machine="HOST_XEON",
                  variants=["OpenMP-TLS"], threads=[1, 24], params={})
        with pytest.raises(ValueError, match="KNF-noSMT's 31"):
            make_spec(machine="KNF-noSMT", threads=[32])
        make_spec(machine="KNF-noSMT", threads=[31])

    def test_campaign_run_rejects_threads_beyond_the_machine(
            self, tmp_path, capsys):
        import json
        from repro.campaign.cli import main
        spec = {"name": "too-wide", "experiment": "bfs", "graphs": ["auto"],
                "variants": ["OpenMP-TLS"], "threads": [121],
                "machine": "HOST_XEON"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        store = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store), "--quiet"]) == 2
        assert "hardware contexts" in capsys.readouterr().err
        assert not list(store.glob("objects/*/*.json"))

    def test_bad_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            make_spec(seeds=[-1])
        with pytest.raises(ValueError, match="seeds"):
            make_spec(seeds=[])
