"""Pennant bag data structure (Leiserson-Schardl)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.bfs.bag import Bag, Pennant, PennantNode


class TestPennant:
    def test_union_doubles_rank(self):
        a = Pennant(PennantNode([1]), 0)
        b = Pennant(PennantNode([2]), 0)
        c = a.union(b)
        assert c.k == 1
        assert sorted(c) == [1, 2]

    def test_union_rank_mismatch(self):
        a = Pennant(PennantNode([1]), 0)
        b = Pennant(PennantNode([2]), 0)
        a.union(b)
        with pytest.raises(ValueError):
            a.union(Pennant(PennantNode([3]), 0))

    def test_split_inverts_union(self):
        a = Pennant(PennantNode([1]), 0)
        b = Pennant(PennantNode([2]), 0)
        c = a.union(b)
        d = c.split()
        assert c.k == 0 and d.k == 0
        assert sorted(list(c) + list(d)) == [1, 2]

    def test_split_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            Pennant(PennantNode([1]), 0).split()

    def test_structure_at_rank_3(self):
        ps = [Pennant(PennantNode([i]), 0) for i in range(8)]
        p = ps[0]
        for k in (1, 2, 4):  # union pairs up to rank 3
            pass
        a = ps[0].union(ps[1])
        b = ps[2].union(ps[3])
        c = ps[4].union(ps[5])
        d = ps[6].union(ps[7])
        ab = a.union(b)
        cd = c.union(d)
        full = ab.union(cd)
        assert full.k == 3
        assert sorted(full) == list(range(8))


class TestBag:
    def test_insert_and_iterate(self):
        bag = Bag(grain=4)
        for i in range(37):
            bag.insert(i)
        assert len(bag) == 37
        assert sorted(bag) == list(range(37))
        bag.check_invariants()

    def test_grain_one_pure_pennants(self):
        bag = Bag(grain=1)
        for i in range(11):
            bag.insert(i)
        bag.check_invariants()
        # 11 = 0b1011: pennants at ranks 0, 1, 3
        ranks = [k for k, p in enumerate(bag.spine) if p is not None]
        assert ranks == [0, 1, 3]

    def test_union_merges_all_elements(self):
        a, b = Bag(grain=3), Bag(grain=3)
        for i in range(10):
            a.insert(i)
        for i in range(10, 25):
            b.insert(i)
        a.union(b)
        assert sorted(a) == list(range(25))
        assert len(b) == 0
        a.check_invariants()

    def test_union_grain_mismatch(self):
        with pytest.raises(ValueError):
            Bag(grain=2).union(Bag(grain=3))

    def test_split_halves(self):
        bag = Bag(grain=1)
        for i in range(64):
            bag.insert(i)
        other = bag.split()
        assert len(bag) + len(other) == 64
        assert abs(len(bag) - len(other)) <= 1
        assert sorted(list(bag) + list(other)) == list(range(64))
        bag.check_invariants()
        other.check_invariants()

    def test_split_empty(self):
        bag = Bag(grain=2)
        other = bag.split()
        assert len(other) == 0

    def test_split_keeps_hopper(self):
        bag = Bag(grain=10)
        for i in range(5):  # all in hopper
            bag.insert(i)
        other = bag.split()
        assert len(other) == 0
        assert len(bag) == 5

    def test_allocation_counting(self):
        bag = Bag(grain=8)
        for i in range(64):
            bag.insert(i)
        assert bag.allocations == 8  # one node per 8 inserts

    def test_invalid_grain(self):
        with pytest.raises(ValueError):
            Bag(grain=0)

    @given(st.lists(st.integers(0, 10**6), max_size=300),
           st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_property_insert_split_union_conserve(self, items, grain):
        bag = Bag(grain=grain)
        for x in items:
            bag.insert(x)
        bag.check_invariants()
        other = bag.split()
        bag.check_invariants()
        other.check_invariants()
        assert len(bag) + len(other) == len(items)
        bag.union(other)
        bag.check_invariants()
        assert sorted(bag) == sorted(items)

    @given(st.lists(st.integers(), max_size=120),
           st.lists(st.integers(), max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_property_union_is_multiset_sum(self, xs, ys):
        a, b = Bag(grain=4), Bag(grain=4)
        for x in xs:
            a.insert(x)
        for y in ys:
            b.insert(y)
        a.union(b)
        assert sorted(a) == sorted(xs + ys)
        a.check_invariants()
