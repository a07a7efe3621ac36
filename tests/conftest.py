"""Shared fixtures: small graphs, a small machine, and a log of the
durability calls (fsync, replace) a write makes."""

import os
import stat

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import chain, complete, erdos_renyi, grid2d, tube_mesh
from repro.machine.config import KNF, MachineConfig


@pytest.fixture
def path10() -> CSRGraph:
    return chain(10)


@pytest.fixture
def k5() -> CSRGraph:
    return complete(5)


@pytest.fixture
def grid() -> CSRGraph:
    return grid2d(8, 6)


@pytest.fixture
def mesh() -> CSRGraph:
    """A small tube mesh with the suite graphs' structure."""
    return tube_mesh(600, section=30, clique=8, cliques_per_vertex=1.0,
                     coupling=3, hubs=2, hub_degree=12, seed=3)


@pytest.fixture
def random_graph() -> CSRGraph:
    return erdos_renyi(200, 800, seed=11)


@pytest.fixture
def tiny_machine() -> MachineConfig:
    """A 4-core, 2-way-SMT machine for cheap runtime simulations."""
    return KNF.with_(name="tiny", n_cores=4, smt_per_core=2)


@pytest.fixture
def durability_calls(monkeypatch):
    """Record every fsync (file or directory) and replace, in order."""
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        log.append(f"fsync {kind}")
        real_fsync(fd)

    def replace(src, dst):
        log.append(f"replace {src} -> {dst}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return log


def make_graph_from_edges(n, edges):
    return CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
