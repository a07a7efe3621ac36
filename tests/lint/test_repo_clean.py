"""The repository itself must lint clean, fast, with ENV.md in sync."""

import time
from pathlib import Path

import pytest

from repro.lint.engine import lint_paths
from repro.lint.envdoc import render_env_md

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_result():
    start = time.monotonic()
    result = lint_paths(
        [str(ROOT / "src" / "repro")], root=str(ROOT),
        env_doc_path=str(ROOT / "ENV.md"))
    result.elapsed = time.monotonic() - start
    return result


def test_repo_lints_clean(repo_result):
    assert repo_result.ok, "\n".join(
        f.format() for f in repo_result.findings)
    # Warnings must not linger either: the tree starts (and stays) at zero.
    assert not repo_result.findings, "\n".join(
        f.format() for f in repo_result.findings)


def test_lint_is_fast(repo_result):
    assert repo_result.elapsed < 10.0, (
        f"lint took {repo_result.elapsed:.1f}s; the pre-commit hook "
        "budget is 10s")


def test_every_suppression_carries_a_reason(repo_result):
    for finding in repo_result.suppressed:
        assert finding.suppress_reason.strip(), finding.format()


def test_env_md_is_in_sync(repo_result):
    committed = (ROOT / "ENV.md").read_text(encoding="utf-8")
    regenerated = render_env_md(repo_result.env_registry)
    assert committed == regenerated, (
        "ENV.md is stale; regenerate with `PYTHONPATH=src python -m "
        "repro.experiments.cli lint --write-env-md ENV.md`")


def test_simulation_layers_read_only_watchdog_budgets(repo_result):
    # The result-store key is the cell plus the code fingerprint.  A
    # variable that the simulator, machine, runtime or kernels read could
    # change a cycle count outside that key, so a store would serve the
    # result of one setting to a run under another.  The two watchdog
    # budgets only abort a run.
    layers = tuple(f"src/repro/{pkg}/" for pkg in
                   ("sim", "machine", "runtime", "kernels"))
    read_by_layers = {
        name for name, entry in repo_result.env_registry.items()
        if any(path.startswith(layers) for path in entry["consumers"])}
    assert read_by_layers <= {"REPRO_MAX_EVENTS", "REPRO_MAX_SIM_CYCLES"}


def test_env_registry_covers_known_surface(repo_result):
    names = set(repo_result.env_registry)
    # Spot-check long-standing variables so the registry cannot silently
    # collapse to empty (which would also make ENV.md trivially "in sync").
    assert {"REPRO_FAST", "REPRO_JOBS", "REPRO_FAULT_SEED"} <= names
