"""Rule registry and per-module context for :mod:`repro.lint`.

A rule is a function from a :class:`ModuleContext` to an iterator of
:class:`~repro.lint.findings.Finding`; registering it is declarative::

    @rule("det-wallclock", SEV_ERROR, scope=SIM_SCOPE,
          description="wall-clock reads make simulated results "
                      "machine-dependent")
    def check_wallclock(ctx: ModuleContext) -> Iterator[Finding]:
        ...

Project-wide rules (cross-module state, e.g. the env-var registry vs
``ENV.md``) additionally register a finalizer with :func:`finalizer`,
which runs once after every module has been visited.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.lint.findings import SEVERITIES, Finding

if TYPE_CHECKING:                    # circular-import-free annotations
    from repro.lint.index import FilePayload, ProjectIndex

__all__ = ["ModuleContext", "Project", "EnvUse", "Rule", "rule",
           "finalizer", "index_rule", "all_rules", "rule_ids",
           "SIM_SCOPE", "KERNEL_SCOPE", "ALL_SCOPE"]

#: The deterministic core: everything that executes inside a simulated
#: run, where wall-clock reads or unseeded RNG would break byte-stable
#: replay (DESIGN.md).
SIM_SCOPE = ("repro/sim/", "repro/machine/", "repro/runtime/",
             "repro/kernels/")
#: Kernel code only (footprint rules reason about AccessSet usage).
KERNEL_SCOPE = ("repro/kernels/",)
#: No path restriction.
ALL_SCOPE: tuple[str, ...] = ()


@dataclass
class EnvUse:
    """One environment-variable read site, as seen by the env rules."""

    name: str        # e.g. "REPRO_FAST"
    parser: str      # _util helper used, or "raw" for a direct read
    default: str     # unparsed default expression, "" if none
    path: str        # repo-relative module path
    line: int


@dataclass
class Project:
    """Cross-module state shared by one lint run."""

    env_doc_path: str | None = None
    env_uses: list[EnvUse] = field(default_factory=list)
    modules: list["FilePayload"] = field(default_factory=list)
    #: The whole-program view (:class:`repro.lint.index.ProjectIndex`),
    #: populated by the engine before index rules and finalizers run.
    index: "ProjectIndex | None" = None

    def env_registry(self) -> dict[str, dict[str, list[str]]]:
        """The machine-readable env-var registry: one entry per variable,
        merged across read sites, deterministically ordered."""
        out: dict[str, dict[str, list[str]]] = {}
        for use in sorted(self.env_uses,
                          key=lambda u: (u.name, u.path, u.line)):
            entry = out.setdefault(use.name, {
                "parsers": [], "defaults": [], "consumers": [],
                "setters": []})
            if use.parser == "write":
                # `os.environ[X] = ...` pins the variable for child
                # code; it is a setter, not a consumer.
                if use.path not in entry["setters"]:
                    entry["setters"].append(use.path)
                continue
            if use.parser not in entry["parsers"]:
                entry["parsers"].append(use.parser)
            if use.default and use.default not in entry["defaults"]:
                entry["defaults"].append(use.default)
            if use.path not in entry["consumers"]:
                entry["consumers"].append(use.path)
        return out


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one source file."""

    path: str              # absolute
    relpath: str           # repo-root-relative, posix separators
    tree: ast.Module
    nodes: list[ast.AST]   # every node of *tree*, in ast.walk order
    lines: list[str]       # raw source lines (1-based via line_at)
    import_bound: set[str]
    project: Project

    def line_at(self, lineno: int) -> str:
        """Stripped source text of 1-based line *lineno*."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST | int, message: str,
                severity: str | None = None) -> Finding:
        """Build a Finding for *node* (an AST node or a line number)."""
        line = node if isinstance(node, int) \
            else int(getattr(node, "lineno", 0))
        spec = RULES[rule_id]
        return Finding(rule=rule_id, path=self.relpath, line=line,
                       message=message,
                       severity=severity or spec.severity,
                       snippet=self.line_at(line))


CheckFn = Callable[[ModuleContext], Iterator[Finding]]
FinalizeFn = Callable[[Project], Iterator[Finding]]
#: Cross-module rule: runs once over (ProjectIndex, Project).
IndexRuleFn = Callable[["ProjectIndex", Project], Iterator[Finding]]


@dataclass
class Rule:
    """One registered rule: id, default severity, scope, and checker."""

    id: str
    severity: str
    description: str
    scope: tuple[str, ...]
    check: CheckFn | None = None

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on the module at *relpath*."""
        if not self.scope:
            return True
        return any(fragment in relpath for fragment in self.scope)


RULES: dict[str, Rule] = {}
FINALIZERS: list[FinalizeFn] = []
INDEX_RULES: list[IndexRuleFn] = []


def rule(rule_id: str, severity: str, description: str,
         scope: Iterable[str] = ALL_SCOPE) -> Callable[[CheckFn], CheckFn]:
    """Register a per-module rule function under *rule_id*."""
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r} for {rule_id}")

    def register(fn: CheckFn) -> CheckFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        RULES[rule_id] = Rule(id=rule_id, severity=severity,
                              description=description,
                              scope=tuple(scope), check=fn)
        return fn
    return register


def declare_rule(rule_id: str, severity: str, description: str) -> None:
    """Register a rule id that only fires from a finalizer."""
    if rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    RULES[rule_id] = Rule(id=rule_id, severity=severity,
                          description=description, scope=ALL_SCOPE)


def finalizer(fn: FinalizeFn) -> FinalizeFn:
    """Register a project-wide pass that runs after all modules."""
    FINALIZERS.append(fn)
    return fn


def index_rule(fn: IndexRuleFn) -> IndexRuleFn:
    """Register a whole-program rule over the merged project index.

    Index rules run in the parent process after every per-file payload
    has been merged (phase 2); the finding ids they emit must have been
    declared with :func:`declare_rule`.
    """
    INDEX_RULES.append(fn)
    return fn


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id (imports rule modules)."""
    _load()
    return sorted(RULES.values(), key=lambda r: r.id)


def rule_ids() -> set[str]:
    """The set of valid rule ids (imports rule modules)."""
    _load()
    return set(RULES)


def _load() -> None:
    """Import the rule modules (registration is an import side effect)."""
    from repro.lint import rules  # noqa: F401  (registers on import)
