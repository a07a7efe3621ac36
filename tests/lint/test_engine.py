"""Engine mechanics: suppressions and the CLI."""

import json
import subprocess
import sys
from pathlib import Path

from tests.lint.conftest import rules_fired


# ------------------------------------------------------------- suppressions


def test_inline_suppression_with_reason_mutes_finding(run_lint):
    result = run_lint({"repro/sim/clock.py": """\
        import time

        def stamp():
            return time.time()  # repro: ignore[det-wallclock] test fixture
        """})
    assert "det-wallclock" not in rules_fired(result)
    assert len(result.suppressed) == 1
    assert result.suppressed[0].suppress_reason == "test fixture"


def test_comment_line_suppression_covers_next_code_line(run_lint):
    result = run_lint({"repro/sim/clock.py": """\
        import time

        def stamp():
            # repro: ignore[det-wallclock] the rationale can span a
            # comment block above the offending statement
            return time.time()
        """})
    assert "det-wallclock" not in rules_fired(result)
    assert len(result.suppressed) == 1


def test_suppression_without_reason_is_error(run_lint):
    result = run_lint({"repro/sim/clock.py": """\
        import time

        def stamp():
            return time.time()  # repro: ignore[det-wallclock]
        """})
    fired = rules_fired(result)
    assert "lint-bad-suppression" in fired
    assert "det-wallclock" in fired          # the suppression did not apply


def test_suppression_of_unknown_rule_is_error(run_lint):
    result = run_lint({"repro/x.py": """\
        VALUE = 1  # repro: ignore[no-such-rule] whatever
        """})
    assert "lint-bad-suppression" in rules_fired(result)


def test_unused_suppression_is_warning_not_error(run_lint):
    result = run_lint({"repro/x.py": """\
        VALUE = 1  # repro: ignore[det-wallclock] nothing to suppress here
        """})
    assert rules_fired(result) == {"lint-unused-suppression"}
    assert result.ok                          # warnings never fail the run


def test_suppression_syntax_in_docstring_is_ignored(run_lint):
    result = run_lint({"repro/x.py": '''\
        """Docs may show the syntax: # repro: ignore[det-wallclock] why."""
        VALUE = 1
        '''})
    assert not result.findings


# ------------------------------------------------------------------- the CLI


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[2]


def _run_cli(args, cwd):
    env_src = str(_repo_root() / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "lint", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})


def test_cli_exits_1_on_new_error(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\n")
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "clock.py").write_text(
        "import time\n\ndef stamp():\n    return time.time()\n")
    proc = _run_cli(["--env-doc", "none"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "det-wallclock" in proc.stdout


def test_cli_json_report(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    # An unused suppression is a warning: reported, exit status still 0.
    (pkg / "ok.py").write_text(
        "VALUE = 1  # repro: ignore[det-wallclock] nothing to mute\n")
    proc = _run_cli(["--env-doc", "none", "--json", "-", "-q"],
                    cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout[:proc.stdout.rindex("}") + 1])
    # The report schema is pinned: a key added or dropped fails here.
    assert sorted(payload) == ["env_registry", "files_checked", "findings",
                               "ok", "suppressed"]
    assert payload["ok"] is True
    assert payload["files_checked"] == 1
    [finding] = payload["findings"]
    assert sorted(finding) == ["chain", "line", "message", "path", "rule",
                               "severity", "snippet", "suppressed"]
    assert finding["rule"] == "lint-unused-suppression"
