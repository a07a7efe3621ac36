"""Vector clocks for the happens-before analysis (``repro.check``).

A :class:`VectorClock` maps a *component id* — a simulated software
thread id, by convention — to a monotonically increasing epoch counter.
The checker maintains one clock per simulated thread plus one per
synchronisation object; happens-before edges are minted by joining
clocks at synchronisation events (DESIGN.md "Correctness checking").

The representation is a plain dict so clocks stay sparse: a run with 121
threads where only 4 ever synchronise keeps 4-entry clocks.  Missing
components read as epoch 0.
"""

from __future__ import annotations

__all__ = ["VectorClock", "ordered_before"]


class VectorClock:
    """A sparse vector clock over integer component ids."""

    __slots__ = ("c",)

    def __init__(self, c: dict | None = None):
        self.c = dict(c) if c else {}

    def copy(self) -> "VectorClock":
        """An independent snapshot of this clock."""
        return VectorClock(self.c)

    def get(self, comp: int) -> int:
        """Epoch of *comp* (0 when the component was never ticked)."""
        return self.c.get(comp, 0)

    def tick(self, comp: int) -> None:
        """Advance *comp*'s epoch: subsequent events on that component
        happen-after everything recorded so far."""
        self.c[comp] = self.c.get(comp, 0) + 1

    def join(self, other: "VectorClock") -> None:
        """In-place component-wise maximum (the happens-before merge)."""
        mine = self.c
        for comp, epoch in other.c.items():
            if epoch > mine.get(comp, 0):
                mine[comp] = epoch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ",".join(f"{k}:{v}" for k, v in sorted(self.c.items()))
        return f"VC({inner})"


def ordered_before(snap_a: VectorClock, comp_a: int,
                   snap_b: VectorClock) -> bool:
    """True iff the event snapshotted as ``(snap_a, comp_a)`` happens-before
    the event snapshotted as *snap_b*.

    Events snapshot the owning component's clock *before* ticking it, so
    anything causally after event A carries ``comp_a`` at an epoch
    strictly greater than A's snapshot value.
    """
    return snap_b.get(comp_a) > snap_a.get(comp_a)
