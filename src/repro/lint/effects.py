"""Per-function effect summaries: the phase-1 data of whole-program lint.

One :class:`FunctionSummary` per ``def``/``async def`` captures, as
plain data (no AST nodes survive), everything the phase-2
cross-module rules reason about:

* every call site, with enough of the callee expression to resolve it
  against the project call graph (:mod:`repro.lint.callgraph`) and the
  plain-``Name`` arguments so array footprints map through helpers;
* subscripted writes (``x[i] = ...``, ``x[i] += ...``,
  ``np.add.at(x, ...)``) — the raw material of static
  :class:`~repro.kernels.base.AccessSet` inference.  A closure's write
  to a name it does not bind itself is also credited to the nearest
  enclosing function that has the name as a parameter (chunk bodies
  are closures over the kernel's shared arrays);
* ``open(...)`` sites with their mode and a tmp-file heuristic — the
  raw material of the crash-safety write-protocol rule;
* calls through observer/checker handles that are *not* behind the
  ``is not None`` gate — the raw material of the observer-gating
  rule.

Every ``def`` gets a summary, whatever statement holds it (``try`` /
``except``, ``with`` / ``async with``, loops, ``match``, ...).

Extraction is purely syntactic and intentionally approximate; the
DESIGN.md analyzer section documents the imprecision sources.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.astutil import (const_str, guards_with_not_none,
                                handle_base)

__all__ = ["CallArg", "CallSite", "OpenOp", "FunctionSummary",
           "extract_functions"]


@dataclass(frozen=True)
class CallArg:
    """One call argument: keyword (or None) and the plain-Name text of
    the value when the argument is a bare name, else None."""

    keyword: str | None
    name: str | None


@dataclass(frozen=True)
class CallSite:
    """One call inside a function body, pre-digested for resolution.

    ``base`` is ``""`` for bare calls (``foo(...)``), ``"self"`` /
    ``"cls"`` for method self-calls, and otherwise the unparsed text of
    the attribute base (``"os"``, ``"CampaignSpec"``, ``"self.stats"``).
    """

    name: str
    base: str
    line: int
    args: tuple[CallArg, ...] = ()


@dataclass(frozen=True)
class OpenOp:
    """One builtin ``open(...)`` call with a write-capable mode."""

    line: int
    mode: str
    target: str          # unparsed path expression (locals resolved)
    tmpish: bool         # target smells like a tmp/scratch file


@dataclass(frozen=True)
class FunctionSummary:
    """Picklable effect summary of one function definition."""

    qname: str                       # "f", "Class.meth", "outer.inner"
    name: str                        # last qname segment
    line: int
    class_name: str                  # "" for module-level functions
    params: tuple[str, ...]          # positional + kwonly, no self/cls
    calls: tuple[CallSite, ...] = ()
    sub_writes: tuple[tuple[str, int], ...] = ()   # (name, line)
    opens: tuple[OpenOp, ...] = ()
    ungated_obs: tuple[tuple[int, str], ...] = ()  # (line, handle text)

    def param_writes(self) -> tuple[tuple[str, int], ...]:
        """Subscript writes whose target is one of this fn's params."""
        return tuple((n, ln) for n, ln in self.sub_writes
                     if n in self.params)


#: Substrings marking a path expression as a scratch/tmp target that
#: is published later via ``os.replace`` (or never published at all).
_TMPISH = ("tmp", "partial", "compact", "scratch")


def _is_tmpish(text: str) -> bool:
    low = text.lower()
    return any(tok in low for tok in _TMPISH)


def _call_args(call: ast.Call) -> tuple[CallArg, ...]:
    out: list[CallArg] = []
    for arg in call.args:
        out.append(CallArg(
            keyword=None,
            name=arg.id if isinstance(arg, ast.Name) else None))
    for kw in call.keywords:
        if kw.arg is None:        # **kwargs — opaque
            continue
        out.append(CallArg(
            keyword=kw.arg,
            name=kw.value.id if isinstance(kw.value, ast.Name) else None))
    return tuple(out)


def _split_call(call: ast.Call) -> tuple[str, str] | None:
    """(base, name) of the called expression, or None when unnameable."""
    func = call.func
    if isinstance(func, ast.Name):
        return "", func.id
    if isinstance(func, ast.Attribute):
        try:
            return ast.unparse(func.value), func.attr
        except Exception:           # pragma: no cover - defensive
            return None
    return None


def _open_mode(call: ast.Call) -> str | None:
    """The literal mode of a builtin ``open`` call ("r" when omitted)."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return const_str(kw.value)
    if len(call.args) >= 2:
        return const_str(call.args[1])
    return "r" if call.args else None


class _FnVisitor:
    """Collects one function's effects, skipping nested defs (each
    nested def gets its own summary; calls are attributed to the
    innermost enclosing function)."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 import_bound: set[str]):
        self.fn = fn
        self.import_bound = import_bound
        self.params = tuple(
            a.arg for a in (fn.args.posonlyargs + fn.args.args
                            + fn.args.kwonlyargs)
            if a.arg not in ("self", "cls"))
        # Names the body binds (assignment targets, nested def/class
        # names): a closure write to one of these is to its own local.
        self.bound: set[str] = set()
        self.calls: list[CallSite] = []
        self.sub_writes: list[tuple[str, int]] = []
        self.opens: list[OpenOp] = []
        self.ungated: list[tuple[int, str]] = []
        # Simple local string assignments, for resolving
        # ``tmp = f"{path}.tmp"; open(tmp, "w")`` at the open site.
        self.locals_text: dict[str, str] = {}

    def run(self) -> None:
        for stmt in self.fn.body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self.bound.add(node.name)
            return                   # separate summary
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            self.bound.add(node.id)
        elif isinstance(node, ast.Assign):
            self._record_assign(node)
        elif isinstance(node, ast.AugAssign):
            self._record_sub_target(node.target)
        elif isinstance(node, ast.Call):
            self._record_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _record_assign(self, node: ast.Assign) -> None:
        targets = list(node.targets)
        for target in targets:
            if isinstance(target, ast.Tuple):
                targets.extend(target.elts)
                continue
            self._record_sub_target(target)
            if isinstance(target, ast.Name):
                try:
                    self.locals_text[target.id] = ast.unparse(node.value)
                except Exception:    # pragma: no cover - defensive
                    pass

    def _record_sub_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name):
            self.sub_writes.append((target.value.id, target.lineno))

    def _record_call(self, call: ast.Call) -> None:
        split = _split_call(call)
        if split is not None:
            base, name = split
            self.calls.append(CallSite(
                name=name, base=base, line=call.lineno,
                args=_call_args(call)))
            # numpy in-place scatter: np.add.at(arr, idx, v) writes arr.
            if name == "at" and call.args \
                    and isinstance(call.args[0], ast.Name):
                self.sub_writes.append(
                    (call.args[0].id, call.lineno))
            if base == "" and name == "open":
                self._record_open(call)
        handle = handle_base(call)
        if handle is not None:
            if isinstance(handle, ast.Name) \
                    and handle.id in self.import_bound:
                return
            if not guards_with_not_none(call, handle):
                self.ungated.append(
                    (call.lineno, ast.unparse(handle)))

    def _record_open(self, call: ast.Call) -> None:
        mode = _open_mode(call)
        if mode is None or not call.args:
            return
        arg = call.args[0]
        try:
            target = ast.unparse(arg)
        except Exception:            # pragma: no cover - defensive
            return
        resolved = target
        if isinstance(arg, ast.Name) and arg.id in self.locals_text:
            resolved = self.locals_text[arg.id]
        self.opens.append(OpenOp(
            line=call.lineno, mode=mode, target=target,
            tmpish=_is_tmpish(target) or _is_tmpish(resolved)))

    def credit_enclosing(self, enclosing: tuple[_FnVisitor, ...]) -> None:
        """Credit each write to a name this function does not bind to
        the nearest enclosing function that has it as a parameter."""
        for name, line in self.sub_writes:
            if name in self.params or name in self.bound:
                continue
            for outer in reversed(enclosing):
                if name in outer.params:
                    outer.sub_writes.append((name, line))
                    break
                if name in outer.bound:
                    break


def extract_functions(tree: ast.Module,
                      import_bound: set[str]) -> dict[str, FunctionSummary]:
    """All function summaries of a module, keyed by qualified name."""
    found: list[tuple[str, str, _FnVisitor]] = []

    def walk(body: list[ast.stmt], prefix: str, class_name: str,
             enclosing: tuple[_FnVisitor, ...]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}{node.name}"
                visitor = _FnVisitor(node, import_bound)
                visitor.run()
                visitor.credit_enclosing(enclosing)
                found.append((qname, class_name, visitor))
                walk(node.body, f"{qname}.", class_name,
                     (*enclosing, visitor))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.", node.name,
                     enclosing)
            else:
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, (ast.ExceptHandler, ast.match_case)):
                        walk(sub.body, prefix, class_name, enclosing)
                    elif isinstance(sub, ast.stmt):
                        walk([sub], prefix, class_name, enclosing)
    walk(tree.body, "", "", ())

    out: dict[str, FunctionSummary] = {}
    for qname, class_name, visitor in found:
        if qname in out:             # first def wins (overloads)
            continue
        fn = visitor.fn
        out[qname] = FunctionSummary(
            qname=qname, name=fn.name, line=fn.lineno,
            class_name=class_name, params=visitor.params,
            calls=tuple(visitor.calls),
            sub_writes=tuple(visitor.sub_writes),
            opens=tuple(visitor.opens),
            ungated_obs=tuple(visitor.ungated))
    return out
