"""The lint engine: two-phase whole-program analysis, in one process.

**Phase 1** turns every Python file under the given paths into a
:class:`~repro.lint.index.FilePayload`: the file is parsed once, its
nodes are listed once, every per-module rule in scope runs over that
list, inline suppressions are extracted, and an effect summary
(symbols, call sites, subscript writes, ``open`` sites, ungated
observer calls) is built.  Payloads are merged in sorted path order.

**Phase 2** merges payloads into a
:class:`~repro.lint.index.ProjectIndex`, runs the cross-module index
rules (static footprints, crash-safety protocol, observer gating)
over the resolved call graph, then the project finalizers (env-var
documentation).

Findings are filtered through inline suppressions, which require a
written rationale: ``# repro: ignore[rule-id] <reason>`` on the
offending line, or in a comment line directly above it.  A
cross-module finding is additionally suppressible at *any hop* of its
evidence chain (callers own "I accept this write here", helpers own
"this write is bookkeeping").

A suppression without a reason, or naming an unknown rule, is itself a
finding (``lint-bad-suppression``); a suppression that matches nothing
is reported as ``lint-unused-suppression`` so dead annotations cannot
accumulate.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field

from repro.lint.astutil import add_parents, import_bound_names
from repro.lint.findings import SEV_ERROR, SEV_WARNING, Finding
from repro.lint.index import FilePayload, build_index, summarize_module
from repro.lint.registry import (FINALIZERS, INDEX_RULES, ModuleContext,
                                 Project, all_rules, declare_rule,
                                 rule_ids)

__all__ = ["LintResult", "lint_paths", "iter_python_files"]

#: Syntax: "repro: ignore" + [<rule-id>,...] + reason, in a comment.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s-]+)\]\s*(.*)$")

declare_rule("lint-bad-suppression", SEV_ERROR,
             "an inline suppression must name a known rule id and carry "
             "a written rationale")
declare_rule("lint-unused-suppression", SEV_WARNING,
             "an inline suppression that matches no finding is dead "
             "annotation; delete it or fix the rule id")


@dataclass
class Suppression:
    """One parsed inline suppression annotation."""

    rules: tuple[str, ...]
    reason: str
    comment_line: int   # where the annotation itself lives
    target_line: int    # the code line it applies to
    used: bool = False


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)   # actionable
    suppressed: list[Finding] = field(default_factory=list)
    env_registry: dict[str, dict[str, list[str]]] = \
        field(default_factory=dict)
    files_checked: int = 0

    @property
    def errors(self) -> list[Finding]:
        """Findings that fail the run."""
        return [f for f in self.findings if f.severity == SEV_ERROR]

    @property
    def ok(self) -> bool:
        """Exit-0 condition: no unsuppressed error-severity findings."""
        return not self.errors

    def to_dict(self) -> dict[str, object]:
        """JSON-ready summary (the ``--json`` payload)."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "env_registry": self.env_registry,
        }


def iter_python_files(paths: list[str]) -> list[str]:
    """Sorted ``.py`` files under *paths* (files accepted verbatim)."""
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    out.append(os.path.join(dirpath, fn))
    return sorted(out)


def _comment_lines(source: str) -> dict[int, str]:
    """1-based line → comment text, via the tokenizer.

    Tokenizing (rather than regex over raw lines) keeps doc examples of
    the suppression syntax inside strings from parsing as suppressions.
    """
    out: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out[tok.start[0]] = tok.string
    except tokenize.TokenError:
        pass
    return out


def _parse_suppressions(source: str, lines: list[str],
                        known: set[str]) -> tuple[list[Suppression],
                                                  list[Finding]]:
    """Extract suppressions; malformed ones become findings directly.

    A suppression on a code line covers that line.  One on a
    comment-only line covers the next non-comment line, so multi-line
    rationales above the offending statement work naturally.
    """
    sups: list[Suppression] = []
    bad: list[Finding] = []
    # Only a file that mentions "repro:" can hold an annotation.
    comments = _comment_lines(source) if "repro:" in source else {}
    for i in sorted(comments):
        raw = lines[i - 1]
        m = _SUPPRESS_RE.search(comments[i])
        if m is None:
            continue
        ids = tuple(tok.strip() for tok in m.group(1).split(",")
                    if tok.strip())
        reason = m.group(2).strip()
        unknown = [r for r in ids if r not in known]
        if unknown or not ids:
            bad.append(Finding(
                rule="lint-bad-suppression", path="", line=i,
                message=f"suppression names unknown rule(s) "
                        f"{unknown or '[]'}; valid ids: repro lint "
                        "--list-rules", snippet=raw.strip()))
            continue
        target = i
        if raw.lstrip().startswith("#"):
            # Comment-only annotation: applies to the next code line
            # (skipping the rest of the comment block).
            j = i
            while j < len(lines) and lines[j].lstrip().startswith("#"):
                j += 1
            target = j + 1 if j < len(lines) else i
        if not reason:
            bad.append(Finding(
                rule="lint-bad-suppression", path="", line=i,
                message=f"suppression of {', '.join(ids)} has no written "
                        "rationale; annotations document intent, they "
                        "are not mute buttons", snippet=raw.strip()))
            continue
        sups.append(Suppression(rules=ids, reason=reason, comment_line=i,
                                target_line=target))
    return sups, bad


def _relpath(path: str, root: str) -> str:
    """Repo-root-relative posix path (stable across platforms)."""
    try:
        rel = os.path.relpath(path, root)
    except ValueError:           # different drive (Windows)
        rel = path
    return rel.replace(os.sep, "/")


# ----- phase 1: per-file analysis ------------------------------------------

def analyze_one(path: str, relpath: str) -> FilePayload:
    """Parse one file, run per-module rules, build its effect summary."""
    rules = all_rules()
    known = rule_ids()
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ValueError(f"{relpath}: cannot lint: {exc}") from exc
    nodes = add_parents(tree)
    lines = source.splitlines()
    # Per-module rules record env uses onto a per-file project; the
    # driver merges them from the payload.
    ctx = ModuleContext(path=path, relpath=relpath, tree=tree, nodes=nodes,
                        lines=lines, import_bound=import_bound_names(nodes),
                        project=Project())
    findings: list[Finding] = []
    sups, bad = _parse_suppressions(source, lines, known)
    for finding in bad:
        finding.path = relpath
    findings.extend(bad)
    for spec in rules:
        if spec.check is None or not spec.applies_to(relpath):
            continue
        findings.extend(spec.check(ctx))
    return FilePayload(
        relpath=relpath, lines=lines, findings=findings,
        suppressions=sups, env_uses=ctx.project.env_uses,
        summary=summarize_module(ctx))


# ----- the driver ----------------------------------------------------------

def lint_paths(paths: list[str], root: str,
               env_doc_path: str | None = None) -> LintResult:
    """Lint every Python file under *paths*; returns a :class:`LintResult`.

    *root* anchors relative paths (finding locations); *env_doc_path*
    (optional) is the ENV.md checked by the ``env-undocumented`` rule —
    pass None to skip that check.
    """
    files = iter_python_files(paths)
    by_rel: dict[str, FilePayload] = {}
    for path in files:
        relpath = _relpath(path, root)
        by_rel[relpath] = analyze_one(path, relpath)
    payloads = [by_rel[rel] for rel in sorted(by_rel)]

    project = Project(env_doc_path=env_doc_path)
    raw_findings: list[Finding] = []
    suppressions: dict[str, list[Suppression]] = {}
    for payload in payloads:
        project.modules.append(payload)
        raw_findings.extend(payload.findings)
        suppressions[payload.relpath] = payload.suppressions
        project.env_uses.extend(payload.env_uses)

    # Phase 2: whole-program rules over the merged index, then the
    # classic finalizers.
    index = build_index(payloads)
    project.index = index
    for check in INDEX_RULES:
        raw_findings.extend(check(index, project))
    for finalize in FINALIZERS:
        raw_findings.extend(finalize(project))

    # Fill snippets for findings built outside a module context.
    for finding in raw_findings:
        if not finding.snippet and finding.path in by_rel:
            finding.snippet = by_rel[finding.path].line_at(finding.line)

    result = LintResult(env_registry=project.env_registry(),
                        files_checked=len(files))
    for finding in sorted(raw_findings,
                          key=lambda f: (f.path, f.line, f.rule)):
        sup = _matching_suppression(suppressions, finding)
        if sup is not None:
            sup.used = True
            finding.suppressed = True
            finding.suppress_reason = sup.reason
            result.suppressed.append(finding)
            continue
        result.findings.append(finding)

    for relpath, sups in sorted(suppressions.items()):
        for sup in sups:
            if not sup.used:
                result.findings.append(Finding(
                    rule="lint-unused-suppression", path=relpath,
                    line=sup.comment_line, severity=SEV_WARNING,
                    message=f"suppression of {', '.join(sup.rules)} "
                            "matches no finding; delete it or fix the "
                            "rule id",
                    snippet=by_rel[relpath].line_at(sup.comment_line)))
    return result


def _matching_suppression(
        suppressions: dict[str, list[Suppression]],
        finding: Finding) -> Suppression | None:
    """The first suppression covering *finding* — at its anchor line or
    at any hop of its evidence chain (either end, or any hop between,
    of a cross-module call chain is a legitimate place to document the
    exception)."""
    sites = [(finding.path, finding.line)]
    sites.extend((hop.path, hop.line) for hop in finding.chain)
    for path, line in sites:
        for sup in suppressions.get(path, []):
            if finding.rule in sup.rules \
                    and line in (sup.target_line, sup.comment_line):
                return sup
    return None


def rule_table() -> str:
    """Human-readable rule listing for ``--list-rules``."""
    rows = []
    for spec in all_rules():
        scope = ", ".join(spec.scope) if spec.scope else "all files"
        rows.append(f"{spec.id:24s} [{spec.severity:7s}] ({scope})\n"
                    f"    {spec.description}")
    return "\n".join(rows)
