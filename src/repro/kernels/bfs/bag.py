"""Pennant bags — the Leiserson–Schardl BFS frontier data structure.

A *pennant* of rank ``k`` is a tree of ``2**k`` nodes: a root with one
child that is the root of a complete binary tree of ``2**k - 1`` nodes.
A *bag* is a sparse array ("spine") holding at most one pennant per rank,
so bags of n elements merge like binary addition — O(log n) pennant
unions, each O(1) pointer work — and split symmetrically.  Following the
paper ("the node of the balanced tree can store more than a single
element"), every node carries up to ``grain`` elements, which amortises
pointer and allocation overheads.

This is a complete, usable implementation (insert, union, split,
iteration, len); the simulated ``CilkPlus-Bag`` BFS variant uses it for
semantics and derives its cost model (allocations per insert, pointer
chases per traversed node) from the operation counts recorded here.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["PennantNode", "Pennant", "Bag"]


class PennantNode:
    """One tree node holding up to ``grain`` elements."""

    __slots__ = ("elements", "left", "right")

    def __init__(self, elements=None):
        self.elements = list(elements) if elements else []
        self.left: PennantNode | None = None
        self.right: PennantNode | None = None


class Pennant:
    """A pennant of rank ``k``: exactly ``2**k`` nodes."""

    __slots__ = ("root", "k")

    def __init__(self, root: PennantNode, k: int = 0):
        self.root = root
        self.k = k

    def union(self, other: "Pennant") -> "Pennant":
        """Combine two rank-k pennants into one rank-(k+1) pennant, O(1).

        ``other``'s root becomes the new left child chain of ``self``'s
        root (the classic three-pointer splice).
        """
        if other.k != self.k:
            raise ValueError(f"cannot union pennants of ranks {self.k} and {other.k}")
        other.root.right = self.root.left
        self.root.left = other.root
        self.k += 1
        return self

    def split(self) -> "Pennant":
        """Inverse of :meth:`union`: halve this pennant, returning the
        removed rank-(k-1) pennant. O(1)."""
        if self.k == 0:
            raise ValueError("cannot split a rank-0 pennant")
        other_root = self.root.left
        self.root.left = other_root.right
        other_root.right = None
        self.k -= 1
        return Pennant(other_root, self.k)

    def __iter__(self) -> Iterator:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield from node.elements
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)


class Bag:
    """A bag of elements: a spine of at-most-one pennant per rank.

    ``grain`` elements are buffered in a *hopper* node before being
    committed as a rank-0 pennant (carry-propagating into the spine).
    Operation counters (``allocations``, ``unions``) feed the simulated
    cost model.
    """

    def __init__(self, grain: int = 64):
        if grain < 1:
            raise ValueError(f"grain must be >= 1, got {grain}")
        self.grain = grain
        self.spine: list[Pennant | None] = []
        self._hopper: PennantNode | None = None
        self._count = 0
        self.allocations = 0
        self.unions = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, x) -> None:
        """Add one element (amortised O(1), worst case O(log n))."""
        if self._hopper is None:
            self._hopper = PennantNode()
            self.allocations += 1
        self._hopper.elements.append(x)
        self._count += 1
        if len(self._hopper.elements) >= self.grain:
            self._carry(Pennant(self._hopper, 0))
            self._hopper = None

    def _carry(self, p: Pennant) -> None:
        """Insert pennant *p* with binary carry propagation."""
        k = p.k
        while True:
            while len(self.spine) <= k:
                self.spine.append(None)
            if self.spine[k] is None:
                self.spine[k] = p
                return
            q = self.spine[k]
            self.spine[k] = None
            p = q.union(p)
            self.unions += 1
            k += 1

    def union(self, other: "Bag") -> None:
        """Merge *other* into this bag (other is emptied). O(log n) unions."""
        if other.grain != self.grain:
            raise ValueError("cannot union bags with different grains")
        if other._hopper is not None:
            for x in other._hopper.elements:
                self.insert(x)
            other._hopper = None
        for p in other.spine:
            if p is not None:
                self._carry(p)
        other.spine = []
        other._count = 0
        self._count = self._recount()

    def _recount(self) -> int:
        total = len(self._hopper.elements) if self._hopper is not None else 0
        for p in self.spine:
            if p is not None:
                total += sum(len(n.elements) for n in self._nodes(p))
        return total

    @staticmethod
    def _nodes(p: Pennant):
        stack = [p.root]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)

    def split(self) -> "Bag":
        """Remove and return roughly half of this bag (O(log n)).

        Follows Leiserson–Schardl BAG-SPLIT: the hopper stays here; every
        spine pennant of rank > 0 splits in two, one half to each bag;
        the rank-0 pennant (if any) stays here.
        """
        other = Bag(self.grain)
        if not self.spine:
            return other
        new_self: list[Pennant | None] = [None] * len(self.spine)
        new_other: list[Pennant | None] = [None] * len(self.spine)
        zero = self.spine[0]
        for k in range(1, len(self.spine)):
            p = self.spine[k]
            if p is None:
                continue
            half = p.split()
            new_self[k - 1] = p
            new_other[k - 1] = half
        if zero is not None:
            new_self_zero = new_self[0]
            if new_self_zero is None:
                new_self[0] = zero
            else:
                # carry: two rank-0 slots -> merge into rank 1 later
                self.spine = new_self
                other.spine = new_other
                self._carry(zero)
                self._count = self._recount()
                other._count = other._recount()
                return other
        self.spine = new_self
        other.spine = new_other
        self._count = self._recount()
        other._count = other._recount()
        return other

    def __iter__(self) -> Iterator:
        if self._hopper is not None:
            yield from self._hopper.elements
        for p in self.spine:
            if p is not None:
                yield from p

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property tests)."""
        for k, p in enumerate(self.spine):
            if p is None:
                continue
            if p.k != k:
                raise AssertionError(f"pennant at slot {k} has rank {p.k}")
            n_nodes = sum(1 for _ in self._nodes(p))
            if n_nodes != (1 << k):
                raise AssertionError(
                    f"pennant of rank {k} has {n_nodes} nodes, expected {1 << k}")
        if self._recount() != self._count:
            raise AssertionError("element count out of sync")
