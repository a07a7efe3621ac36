"""The lint engine: two-phase whole-program analysis.

**Phase 1** (parallel, cached) turns every Python file under the given
paths into a :class:`~repro.lint.index.FilePayload`: the file is parsed
once, every per-module rule in scope runs over it, inline suppressions
are extracted, and a picklable effect summary (symbols, call sites,
subscript writes, ``open`` sites, ungated observer calls) is built.
Payloads fan out over a process pool (``REPRO_LINT_JOBS``) and are
cached under ``<root>/.repro-lint-cache/`` keyed by source digest plus
a fingerprint of the lint package itself, so warm runs skip parsing
entirely.  Results are merged in sorted path order — output is
byte-identical for any job count.

**Phase 2** (serial) merges payloads into a
:class:`~repro.lint.index.ProjectIndex`, runs the cross-module index
rules (static footprints, crash-safety protocol, observer gating)
over the resolved call graph, then the project finalizers (env-var
documentation).

Findings are filtered through two escape hatches, both requiring a
written rationale:

* inline suppressions — ``# repro: ignore[rule-id] <reason>`` on the
  offending line, or in a comment line directly above it; a
  cross-module finding is additionally suppressible at *any hop* of
  its evidence chain (callers own "I accept this write here",
  helpers own "this write is bookkeeping");
* the committed baseline file (see :mod:`repro.lint.baseline`) for
  grandfathered findings, matched by content fingerprint.

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

from repro._util import env_int, env_str
from repro.lint import index as index_mod
from repro.lint.astutil import add_parents, import_bound_names
from repro.lint.baseline import BaselineEntry, load_baseline
from repro.lint.findings import SEV_ERROR, SEV_WARNING, Finding
from repro.lint.index import FilePayload, build_index, cache_key, \
    cache_load, cache_store, summarize_module
from repro.lint.registry import (FINALIZERS, INDEX_RULES, ModuleContext,
                                 Project, all_rules, declare_rule,
                                 rule_ids)

__all__ = ["LintResult", "lint_paths", "iter_python_files"]

#: Syntax: "repro: ignore" + [<rule-id>,...] + reason, in a comment.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s-]+)\]\s*(.*)$")

#: Below this many files a process pool costs more than it saves.
_PARALLEL_THRESHOLD = 16

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
    baselined: list[Finding] = field(default_factory=list)
    env_registry: dict[str, dict[str, list[str]]] = \
        field(default_factory=dict)
    files_checked: int = 0
    stale_baseline: list[BaselineEntry] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        """New findings that fail the run."""
        return [f for f in self.findings if f.severity == SEV_ERROR]

    @property
    def ok(self) -> bool:
        """Exit-0 condition: no new error-severity findings."""
        return not self.errors

    def to_dict(self) -> dict[str, object]:
        """JSON-ready summary (the ``--json`` payload)."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": [e.to_dict() for e in self.stale_baseline],
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
    comments = _comment_lines(source)
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

def analyze_one(path: str, relpath: str, root: str) -> FilePayload:
    """Parse one file, run per-module rules, build its effect summary.

    Self-contained and picklable in/out — this is the process-pool
    worker (and the unit the payload cache stores).
    """
    rules = all_rules()
    known = rule_ids()
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ValueError(f"{relpath}: cannot lint: {exc}") from exc
    add_parents(tree)
    lines = source.splitlines()
    import_bound = import_bound_names(tree)
    # Throwaway project: per-module rules record env uses onto it; the
    # parent process merges them from the payload.
    scratch = Project(root=root)
    ctx = ModuleContext(path=path, relpath=relpath, tree=tree,
                        lines=lines, import_bound=import_bound,
                        project=scratch)
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
        suppressions=sups, env_uses=scratch.env_uses,
        summary=summarize_module(tree, relpath, import_bound))


def _analyze_job(job: tuple[str, str, str]) -> FilePayload:
    """Tuple adapter for :func:`analyze_one` (pool.map target)."""
    return analyze_one(*job)


def _resolve_jobs(jobs: int | None, n_files: int) -> int:
    """Worker count: explicit arg beats REPRO_LINT_JOBS beats auto."""
    if jobs is None:
        jobs = env_int("REPRO_LINT_JOBS", 0, lo=0)
    if jobs in (None, 0):
        jobs = min(8, os.cpu_count() or 1)
    if n_files < _PARALLEL_THRESHOLD:
        return 1
    return max(1, int(jobs))


def _resolve_cache_dir(cache_dir: str | None, root: str) -> str | None:
    """Cache dir: explicit arg beats REPRO_LINT_CACHE beats default;
    the value ``"off"`` disables caching."""
    if cache_dir is None:
        cache_dir = env_str("REPRO_LINT_CACHE")
    if cache_dir is None:
        cache_dir = os.path.join(root, index_mod.CACHE_DIR_NAME)
    if cache_dir.lower() in ("off", "0", "none"):
        return None
    return cache_dir


def _analyze_files(files: list[str], root: str, jobs: int | None,
                   cache_dir: str | None) -> list[FilePayload]:
    """Phase 1 over *files*: cache lookups, then (parallel) analysis."""
    cache_dir = _resolve_cache_dir(cache_dir, root)
    payloads: dict[str, FilePayload] = {}
    pending: list[tuple[str, str, str]] = []
    keys: dict[str, str] = {}
    for path in files:
        relpath = _relpath(path, root)
        with open(path, "rb") as fh:
            key = cache_key(fh.read())
        keys[relpath] = key
        cached = cache_load(cache_dir, relpath, key)
        if cached is not None:
            payloads[relpath] = cached
        else:
            pending.append((path, relpath, root))

    n_jobs = _resolve_jobs(jobs, len(pending))
    if n_jobs <= 1 or len(pending) < 2:
        fresh = [_analyze_job(job) for job in pending]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            fresh = list(pool.map(_analyze_job, pending, chunksize=4))
    for payload in fresh:
        payloads[payload.relpath] = payload
        cache_store(cache_dir, payload.relpath, keys[payload.relpath],
                    payload)
    return [payloads[rel] for rel in sorted(payloads)]


# ----- the driver ----------------------------------------------------------

def lint_paths(paths: list[str], root: str,
               baseline_path: str | None = None,
               env_doc_path: str | None = None,
               jobs: int | None = None,
               cache_dir: str | None = None) -> LintResult:
    """Lint every Python file under *paths*; returns a :class:`LintResult`.

    *root* anchors relative paths (finding locations, baseline
    fingerprints) and the payload cache.  *baseline_path* (optional)
    grandfathers known findings; *env_doc_path* (optional) is the
    ENV.md checked by the ``env-undocumented`` rule — pass None to skip
    that check.  *jobs*/*cache_dir* override ``REPRO_LINT_JOBS`` /
    ``REPRO_LINT_CACHE``; results are byte-identical for any job count.
    """
    # Rule registration is an import side effect of all_rules(); force
    # it here — on a fully-warm cache no analyze_one() runs in this
    # process, and phase 2 would otherwise see empty INDEX_RULES.
    all_rules()
    files = iter_python_files(paths)
    payloads = _analyze_files(files, root, jobs, cache_dir)

    project = Project(root=root, env_doc_path=env_doc_path)
    raw_findings: list[Finding] = []
    suppressions: dict[str, list[Suppression]] = {}
    by_rel: dict[str, FilePayload] = {}
    for payload in payloads:
        by_rel[payload.relpath] = payload
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

    _assign_fingerprints(raw_findings)
    result = LintResult(env_registry=project.env_registry(),
                        files_checked=len(files))

    baseline: dict[str, BaselineEntry] = {}
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
    matched: set[str] = set()

    for finding in sorted(raw_findings,
                          key=lambda f: (f.path, f.line, f.rule)):
        sup = _matching_suppression(suppressions, finding)
        if sup is not None:
            sup.used = True
            finding.suppressed = True
            finding.suppress_reason = sup.reason
            result.suppressed.append(finding)
            continue
        entry = baseline.get(finding.fingerprint)
        if entry is not None:
            matched.add(finding.fingerprint)
            finding.baselined = True
            result.baselined.append(finding)
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

    result.stale_baseline = [e for fp, e in sorted(baseline.items())
                             if fp not in matched]
    _assign_fingerprints(result.findings)
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


def _assign_fingerprints(findings: list[Finding]) -> None:
    """Compute stable fingerprints (occurrence-indexed per content key)."""
    seen: dict[tuple[str, str, str], int] = {}
    for finding in sorted(findings, key=lambda f: (f.path, f.line,
                                                   f.rule)):
        key = (finding.rule, finding.path, finding.snippet)
        finding.occurrence = seen.get(key, 0)
        seen[key] = finding.occurrence + 1
        finding.compute_fingerprint()


def rule_table() -> str:
    """Human-readable rule listing for ``--list-rules``."""
    rows = []
    for spec in all_rules():
        scope = ", ".join(spec.scope) if spec.scope else "all files"
        rows.append(f"{spec.id:24s} [{spec.severity:7s}] ({scope})\n"
                    f"    {spec.description}")
    return "\n".join(rows)
