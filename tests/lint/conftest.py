"""Shared helper: lint a synthetic tree rooted at tmp_path."""

import textwrap

import pytest

from repro.lint.engine import lint_paths


@pytest.fixture
def run_lint(tmp_path):
    """``run_lint({relpath: source, ...}, **kw)`` → LintResult.

    Relpaths control rule scope (e.g. ``repro/sim/x.py`` lands in the
    simulated-core scope); sources are dedented before writing.
    """

    def _run(files, **kw):
        for rel, src in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(src), encoding="utf-8")
        kw.setdefault("env_doc_path", None)
        return lint_paths([str(tmp_path)], root=str(tmp_path), **kw)

    return _run


def rules_fired(result):
    """Set of rule ids among the actionable findings."""
    return {f.rule for f in result.findings}
