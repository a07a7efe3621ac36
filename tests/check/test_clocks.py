"""Vector-clock primitives (repro.check.clocks)."""

from repro.check.clocks import VectorClock, ordered_before


def test_fresh_clock_reads_zero_everywhere():
    vc = VectorClock()
    assert vc.get(0) == 0
    assert vc.get(("loop", 7)) == 0


def test_tick_advances_one_component():
    vc = VectorClock()
    vc.tick(3)
    vc.tick(3)
    assert vc.get(3) == 2
    assert vc.get(4) == 0


def test_copy_is_independent():
    vc = VectorClock()
    vc.tick(1)
    snap = vc.copy()
    vc.tick(1)
    assert snap.get(1) == 1
    assert vc.get(1) == 2


def test_join_takes_componentwise_max():
    a, b = VectorClock(), VectorClock()
    a.tick(1)
    a.tick(1)
    b.tick(1)
    b.tick(2)
    a.join(b)
    assert a.get(1) == 2
    assert a.get(2) == 1


def test_tuple_components_do_not_collide():
    # Separate loops use (loop, tid) components: epoch 1 of (0, 2) must
    # never order against epoch 1 of (1, 2).
    vc = VectorClock()
    vc.tick((0, 2))
    assert vc.get((1, 2)) == 0


def test_ordered_before_snapshot_semantics():
    # Event A snapshots before ticking; anything causally after A sees a
    # strictly greater epoch on A's component.
    owner = VectorClock()
    owner.tick(1)
    snap_a = owner.copy()   # A's snapshot: comp 1 at epoch 1
    owner.tick(1)           # A committed
    other = VectorClock()
    other.join(owner)       # synchronised-after A
    assert ordered_before(snap_a, 1, other)
    concurrent = VectorClock()
    concurrent.tick(2)
    assert not ordered_before(snap_a, 1, concurrent)
