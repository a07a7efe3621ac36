"""The project-wide index behind :mod:`repro.lint` phase 2.

Phase 1 turns every source file into a :class:`FilePayload`
(per-module findings + suppressions + env uses + a
:class:`ModuleSummary` of symbols and per-function effects).

Phase 2 merges the payloads into a :class:`ProjectIndex` — module
table, class table, declared AccessSet footprints — over which
:mod:`repro.lint.callgraph` resolves an approximate call graph and the
cross-module rule families run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.astutil import calls_in, const_str
from repro.lint.effects import FunctionSummary, extract_functions
from repro.lint.registry import ModuleContext

__all__ = ["ClassSummary", "ModuleSummary", "FilePayload", "ProjectIndex",
           "summarize_module", "build_index", "module_name_for"]


@dataclass(frozen=True)
class ClassSummary:
    """One class definition: its base-class texts and method names."""

    name: str
    bases: tuple[str, ...]           # unparsed base expressions
    methods: tuple[str, ...]         # method qnames ("Cls.meth")


@dataclass
class ModuleSummary:
    """Symbol table + effect summaries of one module."""

    relpath: str
    module: str                      # dotted name ("repro.campaign.store")
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: ``.writes(...)`` names only: a ``.benign_race(...)`` annotation
    #: adds no footprint entry, so it declares nothing to the checker.
    declared_writes: frozenset[str] = frozenset()
    benign_races: frozenset[str] = frozenset()
    uses_access_sets: bool = False


@dataclass
class FilePayload:
    """Everything phase 1 produces for one file."""

    relpath: str
    lines: list[str]
    findings: list = field(default_factory=list)       # Finding
    suppressions: list = field(default_factory=list)   # Suppression
    env_uses: list = field(default_factory=list)       # EnvUse
    summary: ModuleSummary | None = None

    def line_at(self, lineno: int) -> str:
        """Stripped source text of 1-based line *lineno*."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/campaign/store.py`` → ``repro.campaign.store``;
    ``repro/kernels/x.py`` (test fixtures) → ``repro.kernels.x``;
    ``__init__`` collapses onto the package.
    """
    path = relpath
    if path.startswith("src/"):
        path = path[len("src/"):]
    if path.endswith(".py"):
        path = path[:-3]
    parts = [p for p in path.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _import_map(nodes: list[ast.AST], module: str) -> dict[str, str]:
    """Local alias → fully dotted target for module-level imports.

    ``import os`` → ``{"os": "os"}``; ``from repro.campaign.spec import
    CampaignSpec`` → ``{"CampaignSpec": "repro.campaign.spec.CampaignSpec"}``;
    relative imports resolve against *module*'s package.
    """
    out: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                out.setdefault(local, target)
                if alias.asname:
                    out[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")
                # level 1 = current package, 2 = parent, ...
                anchor = parts[:len(parts) - node.level]
                base = ".".join(anchor + ([base] if base else []))
            elif not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
    return out


def _declared_arrays(nodes: list[ast.AST]) -> tuple[frozenset[str],
                                                    frozenset[str], bool]:
    """String-literal array names of ``.writes(...)`` and of
    ``.benign_race(...)`` in AccessSet builder chains, and whether the
    module builds an AccessSet at all."""
    declared: dict[str, set[str]] = {"writes": set(), "benign_race": set()}
    uses = False
    for call in calls_in(nodes):
        func = call.func
        if isinstance(func, ast.Name) and func.id == "AccessSet":
            uses = True
        if not isinstance(func, ast.Attribute) or not call.args:
            continue
        name = const_str(call.args[0])
        if name is not None and func.attr in declared:
            declared[func.attr].add(name)
    return (frozenset(declared["writes"]),
            frozenset(declared["benign_race"]), uses)


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module."""
    tree, relpath = ctx.tree, ctx.relpath
    module = module_name_for(relpath)
    functions = extract_functions(tree, ctx.import_bound)
    classes: dict[str, ClassSummary] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = tuple(sorted(
            q for q, fn in functions.items()
            if fn.class_name == node.name
            and q.startswith(f"{node.name}.")))
        bases = []
        for base in node.bases:
            try:
                bases.append(ast.unparse(base))
            except Exception:        # pragma: no cover - defensive
                pass
        classes[node.name] = ClassSummary(
            name=node.name, bases=tuple(bases), methods=methods)
    writes, benign, uses = _declared_arrays(ctx.nodes)
    return ModuleSummary(
        relpath=relpath, module=module,
        imports=_import_map(ctx.nodes, module),
        classes=classes, functions=functions, declared_writes=writes,
        benign_races=benign, uses_access_sets=uses)


@dataclass
class ProjectIndex:
    """The merged whole-program view phase-2 rules run over."""

    modules: dict[str, ModuleSummary] = field(default_factory=dict)
    by_module_name: dict[str, str] = field(default_factory=dict)
    #: Method name -> sorted ``(relpath, qname)`` candidates, built on
    #: the first :meth:`methods_named` call.
    _methods: dict[str, list[tuple[str, str]]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def function_at(self, key: tuple[str, str]) -> FunctionSummary | None:
        """The summary for ``(relpath, qname)``, or None."""
        mod = self.modules.get(key[0])
        return mod.functions.get(key[1]) if mod else None

    def methods_named(self, name: str) -> list[tuple[str, str]]:
        """Every ``(relpath, qname)`` whose method name is *name*,
        sorted — the unique-name fallback tier of call resolution."""
        if self._methods is None:
            self._methods = {}
            for relpath in sorted(self.modules):
                mod = self.modules[relpath]
                for qname in sorted(mod.functions):
                    fn = mod.functions[qname]
                    if fn.class_name:
                        self._methods.setdefault(fn.name, []).append(
                            (relpath, qname))
        return list(self._methods.get(name, ()))


def build_index(payloads: list[FilePayload]) -> ProjectIndex:
    """Merge per-file payload summaries into one :class:`ProjectIndex`."""
    index = ProjectIndex()
    for payload in sorted(payloads, key=lambda p: p.relpath):
        if payload.summary is None:
            continue
        index.modules[payload.relpath] = payload.summary
        index.by_module_name.setdefault(payload.summary.module,
                                        payload.relpath)
    return index
