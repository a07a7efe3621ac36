"""Shared AST helpers for the lint rules.

Everything here is pure analysis over a parsed module: parent links,
structural expression equality, import tracking, and the null-check
guard detection the observer-gating rule is built on.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["add_parents", "parent", "ancestors", "same_expr",
           "import_bound_names", "calls_in", "is_none_check",
           "guards_with_not_none", "call_name", "const_str",
           "HANDLE_NAMES", "handle_base"]

#: Attribute/variable names that hold an observer or checker handle
#: (None when no instrument is installed) — the observer-gating idiom.
HANDLE_NAMES = ("trace", "_trace", "check", "_check", "tracer")

_PARENT = "_repro_lint_parent"


def add_parents(tree: ast.AST) -> list[ast.AST]:
    """Attach a parent pointer to every node (idempotent); return every
    node in ``ast.walk`` order, the list the rules iterate."""
    nodes = list(ast.walk(tree))
    for node in nodes:
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT, node)
    return nodes


def parent(node: ast.AST) -> ast.AST | None:
    """The parent node, or None for the module root."""
    return getattr(node, _PARENT, None)


def ancestors(node: ast.AST) -> Iterator[tuple[ast.AST, ast.AST]]:
    """Yield ``(ancestor, child_on_path)`` pairs from *node* to the root.

    ``child_on_path`` is the node through which the chain reached the
    ancestor — what an If-guard check needs to know which branch the
    original node sits in.
    """
    child: ast.AST = node
    up = parent(node)
    while up is not None:
        yield up, child
        child = up
        up = parent(up)


def same_expr(a: ast.AST, b: ast.AST) -> bool:
    """Structural equality of two expressions (ignores positions)."""
    return ast.dump(a) == ast.dump(b)


def import_bound_names(nodes: list[ast.AST]) -> set[str]:
    """Names bound at module level by ``import`` / ``from ... import``.

    Rules use this to tell a module alias (``from repro.check import
    checker as _check``) apart from a same-named instance handle.
    """
    bound: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
    return bound


def calls_in(nodes: list[ast.AST]) -> Iterator[ast.Call]:
    """The Call nodes among *nodes*."""
    for node in nodes:
        if isinstance(node, ast.Call):
            yield node


def call_name(call: ast.Call) -> str | None:
    """The called name: ``foo(...)`` → "foo", ``a.b.foo(...)`` → "foo"."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def handle_base(call: ast.Call) -> ast.expr | None:
    """The observer/checker handle a hook call goes through, if any.

    ``ctx.trace.span(...)`` → ``ctx.trace``; ``self._check.on_rmw(...)``
    → ``self._check``; ``engine.check.on_barrier(...)`` →
    ``engine.check``.  Plain names (``trace.end(...)``) match too.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    if isinstance(base, ast.Name) and base.id in HANDLE_NAMES:
        return base
    if isinstance(base, ast.Attribute) and base.attr in HANDLE_NAMES:
        return base
    return None


def const_str(node: ast.expr | None) -> str | None:
    """The literal value of a string constant node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def is_none_check(test: ast.expr, expr: ast.AST,
                  negated: bool) -> bool:
    """Whether *test* contains ``expr is not None`` (or ``is None`` when
    *negated*), possibly as one clause of an ``and`` chain."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(is_none_check(v, expr, negated) for v in test.values)
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return False
    op = test.ops[0]
    wanted: type[ast.cmpop] = ast.Is if negated else ast.IsNot
    if not isinstance(op, wanted):
        return False
    comparator = test.comparators[0]
    if not (isinstance(comparator, ast.Constant)
            and comparator.value is None):
        return False
    return same_expr(test.left, expr)


def _early_exit(body: list[ast.stmt]) -> bool:
    """Whether a guard body unconditionally leaves the enclosing scope."""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


def guards_with_not_none(node: ast.AST, expr: ast.AST) -> bool:
    """Whether *node* executes only when ``expr is not None``.

    Two accepted shapes (the codebase's single-null-check idiom):

    * the node sits in the body of ``if expr is not None: ...`` (also as
      a clause of an ``and``), at any ancestor depth;
    * an earlier statement of the enclosing function is
      ``if expr is None: return/raise/continue/break``.
    """
    for up, child in ancestors(node):
        if isinstance(up, ast.If) and child in up.body \
                and is_none_check(up.test, expr, negated=False):
            return True
        if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node_line = getattr(node, "lineno", 0)
            for stmt in up.body:
                if stmt.lineno >= node_line:
                    break
                if isinstance(stmt, ast.If) \
                        and is_none_check(stmt.test, expr, negated=True) \
                        and _early_exit(stmt.body):
                    return True
            return False
    return False
