"""The example scripts must run end to end (they are documentation)."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, timeout=600):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name,expect", [
    ("quickstart.py", "parallel layered BFS produced the exact same"),
    ("programming_models.py", "colouring speedups on simulated KNF"),
    ("bfs_frontier_structures.py",
     "all five variants produced the exact sequential labelling"),
    ("mic_scaling_study.py",
     "SMT roofline model puts issue saturation"),
])
def test_example_runs(name, expect):
    result = run_example(name)
    assert result.returncode == 0, result.stderr[-2000:]
    assert expect in result.stdout


def test_all_examples_exist_and_compile():
    import py_compile
    names = [f for f in os.listdir(EXAMPLES) if f.endswith(".py")]
    assert len(names) >= 4
    for name in names:
        py_compile.compile(os.path.join(EXAMPLES, name), doraise=True)
