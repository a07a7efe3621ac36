"""Sequential greedy colouring (Algorithm 1)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import chain, complete, erdos_renyi, grid2d, star
from repro.graph.suite import suite_graph
from repro.kernels.coloring.sequential import (first_fit, greedy_coloring,
                                               greedy_coloring_stamp)
from repro.kernels.coloring.verify import verify_coloring


class TestGreedy:
    def test_chain_two_colors(self):
        n, colors = greedy_coloring(chain(10))
        assert n == 2
        assert verify_coloring(chain(10), colors)

    def test_complete_needs_n(self):
        g = complete(8)
        n, colors = greedy_coloring(g)
        assert n == 8
        assert verify_coloring(g, colors)

    def test_star_two_colors(self):
        n, _ = greedy_coloring(star(20))
        assert n == 2

    def test_bipartite_grid(self):
        g = grid2d(7, 7)
        n, colors = greedy_coloring(g)
        assert n == 2

    def test_at_most_delta_plus_one(self):
        """First Fit never exceeds Δ+1 colours (§III-A)."""
        g = erdos_renyi(150, 900, seed=3)
        n, colors = greedy_coloring(g)
        assert n <= g.max_degree + 1
        assert verify_coloring(g, colors)

    def test_empty_and_isolated(self):
        g = CSRGraph.from_edges(4, [])
        n, colors = greedy_coloring(g)
        assert n == 1
        assert np.all(colors == 1)
        n0, c0 = greedy_coloring(CSRGraph.from_edges(0, []))
        assert n0 == 0 and len(c0) == 0

    def test_order_affects_result(self):
        """For some orderings First Fit is optimal (§III-A property 2):
        a crown graph coloured in natural vs. alternating order."""
        # crown: bipartite K_{3,3} minus perfect matching
        edges = [(i, 3 + j) for i in range(3) for j in range(3) if i != j]
        g = CSRGraph.from_edges(6, edges)
        n_alt, _ = greedy_coloring(g, order=np.array([0, 3, 1, 4, 2, 5]))
        n_nat, _ = greedy_coloring(g, order=np.arange(6))
        assert n_nat == 2  # natural order happens to be optimal here
        assert n_alt >= n_nat

    def test_continuation_with_existing_colors(self):
        g = grid2d(5, 5)
        _, colors = greedy_coloring(g)
        # recolour a few vertices from an existing colouring
        colors[[3, 7, 11]] = 0
        n, colors = greedy_coloring(g, order=np.array([3, 7, 11]),
                                    colors=colors)
        assert verify_coloring(g, colors)

    def test_colors_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            greedy_coloring(chain(5), colors=np.zeros(4, dtype=np.int64))

    def test_many_colors_fallback_path(self):
        """Complete graph larger than the 63-colour bitset limit."""
        g = complete(80)
        n, colors = greedy_coloring(g)
        assert n == 80
        assert verify_coloring(g, colors)


class TestStampVariant:
    @pytest.mark.parametrize("maker,args", [
        (chain, (15,)), (complete, (9,)), (grid2d, (5, 4)),
        (erdos_renyi, (60, 240)), (star, (12,)),
    ])
    def test_matches_bitset_implementation(self, maker, args):
        g = maker(*args)
        n1, c1 = greedy_coloring(g)
        n2, c2 = greedy_coloring_stamp(g)
        assert n1 == n2
        assert np.array_equal(c1, c2)


@given(st.integers(2, 40), st.integers(0, 150), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_greedy_always_valid(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    g = CSRGraph.from_edges(n, edges)
    n_colors, colors = greedy_coloring(g)
    assert verify_coloring(g, colors)
    assert n_colors <= g.max_degree + 1
    assert colors.min() >= 1


#: ``(graph, seed) -> (refit colours, refit digest, stamp digest)`` of
#: the re-fit cases below, recorded with the whole-graph implementation
#: that built a bit for every vertex (the re-fit must not change them).
REFIT_PINS = {
    ("pwtk", 0): (48, "9ee1ef2ea5b7536f", "eb71a9b372bfb2c6"),
    ("pwtk", 1): (48, "3d67bcaefd97173b", "cce1afad5e34677d"),
    ("pwtk", 2): (48, "26a2fad50c3a10fc", "0aec50bc87a0626d"),
    ("auto", 0): (12, "39eb239fc3219472", "11009facfc2771f2"),
    ("auto", 1): (12, "6d3e774d0e1cf507", "488ce0d14188acf4"),
    ("auto", 2): (12, "014be3dbc9888cf4", "e79b73cc075c9fe4"),
    ("hood", 0): (37, "448d4700780c2881", "d93a0c7c313100f3"),
    ("hood", 1): (37, "96357b337d415c7a", "a7cb18c407b45801"),
    ("hood", 2): (37, "ab1a3cf2f6058f9b", "b9e5cb0e03177f32"),
}

#: ``graph -> (colours, digest)`` of one full random-order colouring.
FULL_ORDER_PINS = {
    "pwtk": (47, "2f6f5f9682eeb4ec"),
    "auto": (13, "b31a59e0a020151d"),
    "hood": (37, "a9cdd903c4694506"),
}


def _digest(colors):
    return hashlib.sha256(colors.astype(np.int64).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("name,seed", sorted(REFIT_PINS))
def test_refit_matches_pinned_colours(name, seed):
    """Re-fit 400 random rows of a suite graph's first-fit colouring
    after scrambling their colours, in a random order: once on the
    bitset path, once on the stamp path (a colour above 63 present)."""
    g = suite_graph(name)
    n = g.n_vertices
    base = first_fit(g)
    top = int(base.max())
    n_refit, refit_digest, stamp_digest = REFIT_PINS[name, seed]
    rng = np.random.default_rng(seed)
    colors = base.copy()
    rows = rng.choice(n, 400, replace=False)
    colors[rows] = rng.integers(1, top + 1, 400)
    k, out = greedy_coloring(g, order=rng.permutation(rows), colors=colors)
    assert (k, _digest(out)) == (n_refit, refit_digest)
    assert verify_coloring(g, out)
    colors = base.copy()
    colors[rows] = rng.integers(1, top + 1, 400)
    colors[rows[0]] = 70
    k, out = greedy_coloring(g, order=rng.permutation(rows), colors=colors)
    assert (k, _digest(out)) == (70, stamp_digest)


@pytest.mark.parametrize("name", sorted(FULL_ORDER_PINS))
def test_full_random_order_matches_pinned_colours(name):
    g = suite_graph(name)
    order = np.random.default_rng(9).permutation(g.n_vertices)
    k, out = greedy_coloring(g, order=order)
    assert (k, _digest(out)) == FULL_ORDER_PINS[name]
    assert np.array_equal(out, greedy_coloring_stamp(g, order=order)[1])


def test_refit_of_no_rows_changes_nothing():
    g = grid2d(4, 4)
    colors = greedy_coloring(g)[1]
    before = colors.copy()
    k, out = greedy_coloring(g, order=[], colors=colors)
    assert k == int(before.max())
    assert np.array_equal(out, before)
