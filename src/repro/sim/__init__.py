"""Deterministic discrete-event simulation core."""

from repro.sim.engine import (Engine, Barrier, Condition, Process,
                              SimulationError, SimulationTimeout,
                              DeadlockError, ThreadKilled)
from repro.sim.faults import FaultKind, FaultSpec, FaultPlan, FaultInjector
from repro.sim.resources import AtomicVar, MemoryChannel
from repro.sim.stats import ChunkExec, LoopStats

__all__ = [
    "Engine",
    "Barrier",
    "Condition",
    "Process",
    "SimulationError",
    "SimulationTimeout",
    "DeadlockError",
    "ThreadKilled",
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "AtomicVar",
    "MemoryChannel",
    "ChunkExec",
    "LoopStats",
]
