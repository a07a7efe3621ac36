"""The scaled suite must keep the paper's Table I shape (DESIGN.md §1)."""

import pytest

from repro.graph.properties import graph_properties
from repro.graph.suite import PAPER_TABLE1, SUITE, suite_graph, suite_scale

# Computing properties for the big graphs is ~1s each; cache per session.
_PROPS = {}


def props(name):
    if name not in _PROPS:
        _PROPS[name] = graph_properties(suite_graph(name))
    return _PROPS[name]


@pytest.mark.parametrize("name", list(SUITE))
class TestSuiteShape:
    def test_connected(self, name):
        assert props(name).n_components == 1

    def test_average_degree_matches_paper(self, name):
        pv, pe, _, _, _ = PAPER_TABLE1[name]
        paper_avg = 2 * pe / pv
        assert props(name).average_degree == pytest.approx(paper_avg, rel=0.15)

    def test_bfs_levels_match_paper(self, name):
        levels = props(name).n_bfs_levels
        paper_levels = PAPER_TABLE1[name][4]
        assert levels == pytest.approx(paper_levels, rel=0.08)

    def test_greedy_colors_match_paper(self, name):
        colors = props(name).n_colors
        paper_colors = PAPER_TABLE1[name][3]
        assert colors == pytest.approx(paper_colors, rel=0.15)

    def test_hub_degree_character(self, name):
        """Max degree well above average, as in all the paper's matrices."""
        p = props(name)
        assert p.max_degree > 2 * p.average_degree

    def test_scale_factor(self, name):
        assert 0.05 < suite_scale(name) < 0.2


class TestSuiteApi:
    def test_memoised(self):
        assert suite_graph("pwtk") is suite_graph("pwtk")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown suite graph"):
            suite_graph("nope")

    def test_suite_matches_table1(self):
        assert set(SUITE) == set(PAPER_TABLE1)

    def test_pwtk_is_the_depth_outlier(self):
        """pwtk has by far the most BFS levels (paper Table I: 267)."""
        levels = {name: props(name).n_bfs_levels for name in SUITE}
        top = max(levels, key=levels.get)
        assert top == "pwtk"
        second = sorted(levels.values())[-2]
        assert levels["pwtk"] > 1.3 * second

    def test_relative_level_widths_preserved(self):
        """inline_1 has wider levels than pwtk (sets Fig 4 peak ordering)."""
        w_inline = SUITE["inline_1"].n / props("inline_1").n_bfs_levels
        w_pwtk = SUITE["pwtk"].n / props("pwtk").n_bfs_levels
        assert w_inline > 2 * w_pwtk
