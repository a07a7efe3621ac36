"""``repro check`` CLI: exit codes, JSON output, seeded bugs."""

import json

import pytest

from repro.check.checker import DROP_EDGE_KINDS
from repro.check.cli import main as check_main
from repro.experiments.cli import main as top_main


def test_clean_cell_exits_zero(capsys):
    rc = check_main(["--kernel", "coloring", "--runtime", "openmp",
                     "--graph", "er120", "-q"])
    assert rc == 0


def test_dispatch_through_top_level_cli():
    rc = top_main(["check", "--kernel", "irregular", "--runtime", "tbb",
                   "--graph", "grid8x6", "-q"])
    assert rc == 0


def test_seeded_bug_exits_nonzero():
    rc = check_main(["--kernel", "coloring", "--runtime", "openmp",
                     "--graph", "er120", "--seed-bug", "drop-region-join",
                     "-q"])
    assert rc == 1


#: ``--seed-bug`` exit status per dropped edge class on er120, all kernels
#: and runtimes: only a missing region join surfaces a race.  The other
#: classes leave the report unchanged or only raise benign-race tallies.
SEEDED_EXIT = {"region-join": 1, "barrier": 0, "atomic": 0, "steal": 0,
               "cond": 0}


@pytest.mark.parametrize("kind", sorted(DROP_EDGE_KINDS))
def test_seed_bug_exit_status(kind):
    assert check_main(["--graph", "er120", "--seed-bug", f"drop-{kind}",
                       "-q"]) == SEEDED_EXIT[kind]


def test_seeded_bug_bfs_exits_nonzero():
    rc = check_main(["--kernel", "bfs", "--runtime", "openmp",
                     "--graph", "complete16", "--seed-bug",
                     "drop-region-join", "-q"])
    assert rc == 1


def test_json_report(tmp_path):
    out = tmp_path / "report.json"
    rc = check_main(["--kernel", "bfs", "--runtime", "cilk",
                     "--graph", "complete16", "--json", str(out), "-q"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert len(doc["loops"]) > 0
    assert "dist" in doc["benign"]


def test_json_to_stdout(capsys):
    rc = check_main(["--kernel", "coloring", "--runtime", "tbb",
                     "--graph", "grid8x6", "--json", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_assert_unperturbed_clean():
    rc = check_main(["--kernel", "coloring", "--runtime", "openmp",
                     "--graph", "grid8x6", "--assert-unperturbed", "-q"])
    assert rc == 0


@pytest.mark.parametrize("runtime", ["openmp", "cilk", "tbb"])
def test_all_runtimes_clean_on_tiny_graph(runtime):
    assert check_main(["--kernel", "coloring", "--runtime", runtime,
                       "--graph", "complete16", "-q"]) == 0


def test_unknown_seed_bug_rejected():
    for kind in ("drop-everything", "drop-lock"):
        with pytest.raises(SystemExit):
            check_main(["--kernel", "coloring", "--seed-bug", kind])


def test_human_readable_report_mentions_benign(capsys):
    rc = check_main(["--kernel", "coloring", "--runtime", "openmp",
                     "--graph", "er120"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "BENIGN" in out
    assert "colors" in out
