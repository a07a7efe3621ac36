"""Approximate call-graph resolution over the lint project index.

Resolution is tiered, most-precise first, and deliberately gives up
rather than guess (DESIGN.md documents the imprecision budget):

1. **bare calls** — ``helper(...)`` resolves to a function of the same
   module, else through the module's import table
   (``from repro.x import helper``);
2. **self/cls methods** — ``self.meth(...)`` resolves within the
   enclosing class, then through its base classes (by name, up to a
   small depth);
3. **qualified calls** — ``alias.fn(...)`` where ``alias`` imports a
   ``repro.*`` module, and ``Cls.meth(...)`` where ``Cls`` imports a
   known class (``CampaignSpec.from_file``);
4. **unique-name fallback** — ``obj.meth(...)`` on an unknown receiver
   links to project methods named ``meth`` only when at most
   :data:`MAX_FALLBACK_CANDIDATES` exist and the name is not in the
   common-name stoplist; otherwise no edge (an explicit unknown).

Edges carry their :class:`~repro.lint.effects.CallSite`, whose
plain-``Name`` arguments drive the transitive parameter-write fixpoint
(:func:`infer_transitive_writes`) behind static AccessSet checking.
"""

from __future__ import annotations

from typing import Any

from repro.lint.effects import CallSite, FunctionSummary
from repro.lint.index import ModuleSummary, ProjectIndex

__all__ = ["FnKey", "Chain", "CallGraph", "infer_transitive_writes",
           "MAX_FALLBACK_CANDIDATES"]

#: One function: (repo-relative module path, qualified name).
FnKey = tuple[str, str]

#: Evidence chain: hops of (relpath, line, human label).
Chain = tuple[tuple[str, int, str], ...]

#: Unknown-receiver calls link only when the method name has at most
#: this many definitions project-wide.
MAX_FALLBACK_CANDIDATES = 2

#: Method names too common to trust for unknown-receiver resolution —
#: linking ``anything.get(...)`` to a random ``get`` would drown the
#: rules in false chains.
_FALLBACK_STOPLIST = frozenset({
    "get", "put", "set", "add", "pop", "run", "close", "open", "read",
    "write", "append", "update", "items", "keys", "values", "copy",
    "clear", "sort", "remove", "insert", "send", "recv", "start",
    "stop", "join", "flush", "next", "name", "format", "count",
    "index", "main", "build", "load", "save", "parse", "check",
    "report", "result", "cancel", "wait", "acquire", "release",
    "submit", "encode", "decode", "exists", "strip", "split",
})

#: Depth cap for base-class walks during self-call resolution.
_BASE_DEPTH = 3


class CallGraph:
    """Lazy, memoised edge resolution over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self._edges: dict[FnKey, tuple[tuple[CallSite, FnKey], ...]] = {}

    # ----- public API ------------------------------------------------------

    def edges(self, key: FnKey) -> tuple[tuple[CallSite, FnKey], ...]:
        """Resolved outgoing edges of *key*, deterministic order."""
        cached = self._edges.get(key)
        if cached is not None:
            return cached
        mod = self.index.modules.get(key[0])
        fn = mod.functions.get(key[1]) if mod else None
        out: list[tuple[CallSite, FnKey]] = []
        if mod is not None and fn is not None:
            for call in fn.calls:
                for target in self.resolve(mod, fn, call):
                    out.append((call, target))
        edges = tuple(sorted(
            out, key=lambda e: (e[0].line, e[1][0], e[1][1])))
        self._edges[key] = edges
        return edges

    def resolve(self, mod: ModuleSummary, fn: FunctionSummary,
                call: CallSite) -> list[FnKey]:
        """Every function *call* may invoke (possibly empty)."""
        if call.base == "":
            return self._resolve_bare(mod, call.name)
        if call.base in ("self", "cls") and fn.class_name:
            found = self._resolve_method(mod, fn.class_name, call.name,
                                         _BASE_DEPTH)
            if found:
                return found
            return self._resolve_fallback(call.name)
        qualified = self._resolve_qualified(mod, call)
        if qualified:
            return qualified
        return self._resolve_fallback(call.name)

    # ----- tiers -----------------------------------------------------------

    def _resolve_bare(self, mod: ModuleSummary, name: str) -> list[FnKey]:
        if name in mod.functions:
            return [(mod.relpath, name)]
        local = sorted(
            q for q, f in mod.functions.items()
            if f.name == name and not f.class_name)
        if local:
            return [(mod.relpath, q)
                    for q in local[:MAX_FALLBACK_CANDIDATES]]
        target = mod.imports.get(name)
        if target is None:
            return []
        resolved = self._resolve_symbol(target)
        if resolved is None:
            return []
        kind, payload = resolved
        if kind == "function":
            return [payload]
        if kind == "class":
            relpath, cls = payload
            init = f"{cls}.__init__"
            if init in self.index.modules[relpath].functions:
                return [(relpath, init)]
        return []

    def _resolve_method(self, mod: ModuleSummary, cls: str, name: str,
                        depth: int) -> list[FnKey]:
        summary = mod.classes.get(cls)
        qname = f"{cls}.{name}"
        if qname in mod.functions:
            return [(mod.relpath, qname)]
        if summary is None or depth <= 0:
            return []
        for base in summary.bases:
            located = self._locate_class(mod, base)
            if located is None:
                continue
            base_rel, base_cls = located
            base_mod = self.index.modules[base_rel]
            found = self._resolve_method(base_mod, base_cls, name,
                                         depth - 1)
            if found:
                return found
        return []

    def _resolve_qualified(self, mod: ModuleSummary,
                           call: CallSite) -> list[FnKey]:
        target = mod.imports.get(call.base, call.base)
        resolved = self._resolve_symbol(target)
        if resolved is None:
            return []
        kind, payload = resolved
        if kind == "module":
            tmod = self.index.modules[payload]
            if call.name in tmod.functions:
                return [(payload, call.name)]
            if call.name in tmod.classes:
                init = f"{call.name}.__init__"
                if init in tmod.functions:
                    return [(payload, init)]
            return []
        if kind == "class":
            relpath, cls = payload
            return self._resolve_method(self.index.modules[relpath],
                                        cls, call.name, _BASE_DEPTH)
        if kind == "function":
            # alias names a function; attribute call on it (rare) — no
            # edge (calling an attribute of a function object).
            return []
        return []

    def _resolve_fallback(self, name: str) -> list[FnKey]:
        if name in _FALLBACK_STOPLIST:
            return []
        candidates = self.index.methods_named(name)
        if 1 <= len(candidates) <= MAX_FALLBACK_CANDIDATES:
            return candidates
        return []

    # ----- symbol helpers --------------------------------------------------

    def _resolve_symbol(self, dotted: str) -> tuple[str, Any] | None:
        """Classify a dotted import target against the index.

        Returns ``("module", relpath)``, ``("function", FnKey)``,
        ``("class", (relpath, class_name))`` or None for anything
        outside the indexed project (stdlib, third-party).
        """
        by_name = self.index.by_module_name
        if dotted in by_name:
            return ("module", by_name[dotted])
        if "." not in dotted:
            return None
        prefix, leaf = dotted.rsplit(".", 1)
        if prefix in by_name:
            relpath = by_name[prefix]
            mod = self.index.modules[relpath]
            if leaf in mod.classes:
                return ("class", (relpath, leaf))
            if leaf in mod.functions:
                return ("function", (relpath, leaf))
            return None
        if prefix.count(".") >= 1:
            head, mid = prefix.rsplit(".", 1)
            if head in by_name:
                relpath = by_name[head]
                mod = self.index.modules[relpath]
                if mid in mod.classes \
                        and f"{mid}.{leaf}" in mod.functions:
                    return ("function", (relpath, f"{mid}.{leaf}"))
        return None

    def _locate_class(self, mod: ModuleSummary,
                      base_text: str) -> tuple[str, str] | None:
        """Resolve a base-class expression to ``(relpath, class)``."""
        name = base_text.split("[", 1)[0].strip()
        if name in mod.classes:
            return (mod.relpath, name)
        leaf = name.split(".")[-1]
        target = mod.imports.get(name) or mod.imports.get(
            name.split(".", 1)[0])
        if target is None:
            return None
        if name != leaf and not target.endswith(leaf):
            target = f"{target}.{name.split('.', 1)[1]}"
        resolved = self._resolve_symbol(target)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None


def _arg_for_param(call: CallSite, params: tuple[str, ...],
                   position: int) -> str | None:
    """The caller-side plain-Name argument feeding ``params[position]``."""
    param = params[position]
    positional = [a for a in call.args if a.keyword is None]
    if position < len(positional):
        return positional[position].name
    for arg in call.args:
        if arg.keyword == param:
            return arg.name
    return None


def infer_transitive_writes(
        index: ProjectIndex, graph: CallGraph,
        max_rounds: int = 8) -> dict[FnKey, dict[str, Chain]]:
    """Fixpoint: which caller-scope names each function writes through
    subscripts, directly or via callees, with evidence chains.

    The result maps every function to ``{name: chain}`` where *name* is
    a name in that function's own scope (parameter or local) and
    *chain* walks from the first call hop down to the concrete
    ``x[i] = ...`` site.  Propagation across an edge happens only when
    the written name is a *parameter* of the callee and the caller
    passes a plain name for it — anything fancier (attribute loads,
    slices of slices) drops the edge rather than guessing.
    """
    inferred: dict[FnKey, dict[str, Chain]] = {}
    keys: list[FnKey] = []
    for relpath in sorted(index.modules):
        mod = index.modules[relpath]
        for qname in sorted(mod.functions):
            key = (relpath, qname)
            keys.append(key)
            fn = mod.functions[qname]
            direct: dict[str, Chain] = {}
            for name, line in fn.sub_writes:
                if name not in direct:
                    direct[name] = ((relpath, line,
                                     f"writes {name}[...]"),)
            inferred[key] = direct

    for _ in range(max_rounds):
        changed = False
        for key in keys:
            mod = index.modules[key[0]]
            fn = mod.functions[key[1]]
            mine = inferred[key]
            for call, target in graph.edges(key):
                tfn = index.function_at(target)
                if tfn is None or target == key:
                    continue
                theirs = inferred.get(target, {})
                for pos, param in enumerate(tfn.params):
                    chain = theirs.get(param)
                    if chain is None:
                        continue
                    caller_name = _arg_for_param(call, tfn.params, pos)
                    if caller_name is None:
                        continue
                    hop = (key[0], call.line, tfn.qname)
                    candidate = (hop,) + chain
                    old = mine.get(caller_name)
                    if old is None or len(candidate) < len(old):
                        mine[caller_name] = candidate
                        changed = True
        if not changed:
            break
    return inferred
