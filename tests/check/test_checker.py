"""Checker core: activation protocol, HB edges, race classification."""

import numpy as np
import pytest

from repro import check
from repro.check.checker import Checker
from repro.kernels.base import AccessSet, BenignRace
from repro.machine.config import KNF
from repro.machine.costs import WorkCosts
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule)

CFG = KNF.with_(name="check-test", n_cores=4, smt_per_core=2)


def _work(n=64, cycles=50.0):
    return WorkCosts(compute=np.full(n, cycles), stall=np.zeros(n),
                     volume=np.ones(n))


def _omp(chunk=8):
    return RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC,
                       chunk=chunk)


# --- activation protocol (mirrors repro.obs) -----------------------------

def test_no_checker_by_default():
    assert check.active() is None


def test_install_uninstall_roundtrip():
    c = Checker()
    check.install(c)
    try:
        assert check.active() is c
    finally:
        check.uninstall()
    assert check.active() is None


def test_double_install_rejected():
    with check.checking():
        with pytest.raises(RuntimeError):
            check.install(Checker())


def test_install_requires_checker_type():
    with pytest.raises(TypeError):
        check.install(object())


def test_unknown_drop_edge_rejected():
    with pytest.raises(ValueError, match="unknown drop_edges"):
        Checker(drop_edges={"no-such-edge"})


# --- access-set API ------------------------------------------------------

def test_benign_race_requires_reason():
    with pytest.raises(ValueError, match="reason"):
        BenignRace("arr", "")


def test_benign_race_rejects_negative_bound():
    with pytest.raises(ValueError, match="bound"):
        BenignRace("arr", "why", bound=-1.0)


def test_footprint_dedupes_and_drops_empty():
    acc = (AccessSet("t")
           .writes("a", lambda lo, hi: np.array([3, 3, 1]))
           .reads("b", lambda lo, hi: np.array([], dtype=np.int64)))
    fp = acc.footprint(0, 4)
    assert list(fp) == ["a"]
    kind, cells, guard = fp["a"][0]
    assert kind == "write" and guard is None
    assert cells.tolist() == [1, 3]


# --- race detection ------------------------------------------------------

def test_overlapping_writes_race():
    acc = AccessSet("bad").writes("shared", lambda lo, hi: np.array([0]))
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work(), access=acc)
    report = c.finalize()
    assert not report.ok
    assert report.errors[0].kind == "race"
    assert report.errors[0].array == "shared"


def test_disjoint_writes_clean():
    acc = AccessSet("ok").writes("arr", lambda lo, hi: np.arange(lo, hi))
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work(), access=acc)
    report = c.finalize()
    assert report.ok and not report.findings


def test_read_read_overlap_is_not_a_race():
    acc = AccessSet("ro").reads("arr", lambda lo, hi: np.array([0]))
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work(), access=acc)
    assert c.finalize().ok


def test_same_guard_is_synchronized():
    acc = AccessSet("locked").writes("arr", lambda lo, hi: np.array([0]),
                                    guard="per-cell-lock")
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work(), access=acc)
    assert c.finalize().ok


def test_annotated_race_is_tallied_not_reported():
    acc = (AccessSet("spec").writes("arr", lambda lo, hi: np.array([0]))
           .benign_race("arr", "intentional", expect=True))
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work(), access=acc)
    report = c.finalize()
    assert report.ok
    tally = report.benign["arr"]
    assert tally.pairs > 0 and tally.writes > 0
    assert tally.reason == "intentional"


def test_expected_benign_race_absent_warns():
    # Disjoint cells: the annotation promises races that never occur.
    acc = (AccessSet("spec").writes("arr", lambda lo, hi: np.arange(lo, hi))
           .benign_race("arr", "promised", expect=True))
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work(), access=acc)
    report = c.finalize()
    assert report.ok  # warning, not error
    assert any(f.kind == "benign-missing" for f in report.findings)


def test_benign_bound_violation_is_error():
    acc = (AccessSet("spec").writes("arr", lambda lo, hi: np.array([0]))
           .benign_race("arr", "capped", bound=0.001))
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work(), access=acc)
    report = c.finalize()
    assert not report.ok
    assert report.errors[0].kind == "benign-bound"


def test_loops_without_access_sets_are_skipped():
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work())
    report = c.finalize()
    assert report.ok
    assert report.counters["chunks"] > 0


# --- happens-before edges ------------------------------------------------

def test_region_join_orders_consecutive_loops():
    wr = AccessSet("w").writes("arr", lambda lo, hi: np.arange(lo, hi))
    rd = AccessSet("r").reads("arr", lambda lo, hi: np.arange(lo, hi))
    with check.checking() as c:
        _omp().parallel_for(CFG, 4, _work(), access=wr)
        _omp().parallel_for(CFG, 4, _work(), access=rd)
    assert c.finalize().ok


def test_drop_region_join_surfaces_cross_loop_race():
    wr = AccessSet("w").writes("arr", lambda lo, hi: np.arange(lo, hi))
    rd = AccessSet("r").reads("arr", lambda lo, hi: np.arange(lo, hi))
    with check.checking(Checker(drop_edges={"region-join"})) as c:
        _omp().parallel_for(CFG, 4, _work(), access=wr)
        _omp().parallel_for(CFG, 4, _work(), access=rd)
    report = c.finalize()
    assert not report.ok
    assert all(f.kind == "race" for f in report.errors)


def test_annotation_does_not_excuse_cross_loop_races():
    # benign_race covers races within its own region; a missing join
    # between two annotated regions must still be an error.
    def mk():
        return (AccessSet("w").writes("arr", lambda lo, hi: np.arange(lo, hi))
                .benign_race("arr", "intra-region only"))
    with check.checking(Checker(drop_edges={"region-join"})) as c:
        _omp().parallel_for(CFG, 4, _work(), access=mk())
        _omp().parallel_for(CFG, 4, _work(), access=mk())
    assert not c.finalize().ok


def test_steal_edges_cover_work_stealing_runtimes():
    # Disjoint per-item writes under TBB: pops/steals must keep the
    # shadow deques aligned and produce no false positives.
    acc = AccessSet("ok").writes("arr", lambda lo, hi: np.arange(lo, hi))
    spec = RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE,
                       chunk=4)
    with check.checking() as c:
        spec.parallel_for(CFG, 8, _work(128), access=acc, seed=5)
    report = c.finalize()
    assert report.ok
    assert report.counters.get("steal_edges", 0) > 0


def test_deterministic_across_runs():
    acc = AccessSet("bad").writes("shared", lambda lo, hi: np.array([0]))
    reports = []
    for _ in range(2):
        with check.checking() as c:
            _omp().parallel_for(CFG, 4, _work(), access=acc)
        reports.append(c.finalize().to_dict())
    assert reports[0] == reports[1]


# --- synthetic barrier anomalies ------------------------------------------

def test_double_barrier_warns():
    from repro.sim.engine import Barrier, Engine

    with check.checking() as c:
        chk = check.active()
        engine = Engine()
        chk.begin_loop("bar-test", 2, None)
        bar = Barrier(engine, 2)

        def thread(tid):
            yield bar
            yield bar  # no work between the two trips

        engine.spawn(thread(0), tid=0)
        engine.spawn(thread(1), tid=1)
        engine.run()
        chk.end_loop()
    report = c.finalize()
    assert any(f.kind == "double-barrier" for f in report.findings)
    assert report.ok  # warning severity
