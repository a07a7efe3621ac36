"""Determinism rules: the simulated core must be byte-stable.

DESIGN.md promises that identical seeds produce identical simulated
cycle counts and identical artifacts across processes and machines.
Anything inside :data:`~repro.lint.registry.SIM_SCOPE` that reads the
wall clock, draws from an unseeded RNG, or lets set iteration order
reach a result breaks that promise in ways the dynamic test suite can
only sample.  These rules ban the constructs outright; intentional
exceptions carry an inline ``# repro: ignore[...]`` with a rationale.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import call_name, calls_in, parent
from repro.lint.findings import SEV_ERROR, SEV_WARNING, Finding
from repro.lint.registry import SIM_SCOPE, ModuleContext, rule

__all__: list[str] = []

#: Stdlib modules whose direct use inside the simulated core is
#: nondeterministic (or machine-dependent) by construction.
_WALLCLOCK_MODULES = {"time", "datetime"}
#: numpy.random attributes that are fine: explicitly-seeded construction.
_SEEDED_NP_ATTRS = {"Generator", "SeedSequence", "BitGenerator", "PCG64",
                    "Philox", "default_rng"}


def _bound_aliases(nodes: list[ast.AST], modules: set[str]) -> set[str]:
    """Local names that refer to any of *modules* via import."""
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in modules:
                    names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in modules:
                for alias in node.names:
                    names.add(alias.asname or alias.name)
    return names


@rule("det-wallclock", SEV_ERROR,
      "wall-clock reads inside the simulated core make results "
      "machine- and load-dependent; simulated time is the only clock",
      scope=SIM_SCOPE)
def check_wallclock(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag any call through a name bound from ``time``/``datetime``."""
    aliases = _bound_aliases(ctx.nodes, _WALLCLOCK_MODULES)
    if not aliases:
        return
    for call in calls_in(ctx.nodes):
        func = call.func
        base: ast.expr | None = None
        if isinstance(func, ast.Attribute):
            base = func.value
            while isinstance(base, ast.Attribute):
                base = base.value
        elif isinstance(func, ast.Name):
            base = func
        if isinstance(base, ast.Name) and base.id in aliases:
            yield ctx.finding(
                "det-wallclock", call,
                f"call into wall-clock module ({ast.unparse(func)}); "
                "simulated components must take time from the engine")


@rule("det-unseeded-rng", SEV_ERROR,
      "unseeded RNG construction or legacy global-state numpy.random "
      "draws make replay non-reproducible; thread a seed through "
      "rng_from_seed or default_rng(seed)",
      scope=SIM_SCOPE)
def check_unseeded_rng(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``default_rng()`` with no seed, stdlib ``random`` use, and
    legacy ``np.random.<draw>()`` calls on the hidden global state."""
    random_aliases = _bound_aliases(ctx.nodes, {"random"})
    for call in calls_in(ctx.nodes):
        func = call.func
        name = call_name(call)
        if name == "default_rng" and not call.args and not call.keywords:
            yield ctx.finding(
                "det-unseeded-rng", call,
                "default_rng() without a seed is entropy-seeded; pass "
                "the run's seed (or use _util.rng_from_seed)")
            continue
        if isinstance(func, ast.Name) and func.id in random_aliases:
            yield ctx.finding(
                "det-unseeded-rng", call,
                f"stdlib random.{func.id}() draws from hidden global "
                "state; use a seeded numpy Generator")
            continue
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            if func.value.id in random_aliases:
                yield ctx.finding(
                    "det-unseeded-rng", call,
                    f"stdlib random.{func.attr}() draws from hidden "
                    "global state; use a seeded numpy Generator")
                continue
        # np.random.<draw>(...) — the legacy global-state API.
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Attribute) \
                and func.value.attr == "random" \
                and isinstance(func.value.value, ast.Name) \
                and func.value.value.id in ("np", "numpy") \
                and func.attr not in _SEEDED_NP_ATTRS:
            yield ctx.finding(
                "det-unseeded-rng", call,
                f"np.random.{func.attr}() uses the legacy global RNG "
                "state; construct a Generator with an explicit seed")


@rule("det-urandom", SEV_ERROR,
      "OS entropy (os.urandom / secrets) is nondeterministic by design "
      "and must never reach simulated state",
      scope=SIM_SCOPE)
def check_urandom(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``os.urandom`` and any call through the ``secrets`` module."""
    secrets_aliases = _bound_aliases(ctx.nodes, {"secrets"})
    for call in calls_in(ctx.nodes):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "urandom" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "os":
            yield ctx.finding("det-urandom", call,
                              "os.urandom() reads OS entropy")
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in secrets_aliases:
            yield ctx.finding("det-urandom", call,
                              f"secrets.{func.attr}() reads OS entropy")
        elif isinstance(func, ast.Name) and func.id in secrets_aliases:
            yield ctx.finding("det-urandom", call,
                              f"{func.id}() reads OS entropy")


def _is_set_expr(node: ast.expr) -> bool:
    """A literal set, a set comprehension, or a ``set()``/``frozenset()``
    constructor call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("set", "frozenset")


@rule("det-set-order", SEV_WARNING,
      "iterating a set in result-feeding code leaks hash order into "
      "outputs; sort first (sorted(...)) or keep a list",
      scope=SIM_SCOPE)
def check_set_order(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag for-loops/comprehensions over set expressions and
    ``list(set(...))`` / ``tuple(set(...))`` conversions."""
    for node in ctx.nodes:
        iters: list[ast.expr] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            iters.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple") and node.args \
                and _is_set_expr(node.args[0]):
            up = parent(node)
            if not (isinstance(up, ast.Call)
                    and isinstance(up.func, ast.Name)
                    and up.func.id == "sorted"):
                yield ctx.finding(
                    "det-set-order", node,
                    f"{node.func.id}(set(...)) materialises hash order; "
                    "use sorted(...)")
            continue
        for it in iters:
            if _is_set_expr(it):
                yield ctx.finding(
                    "det-set-order", node,
                    "iteration over a set expression is hash-ordered; "
                    "wrap in sorted(...) before it can feed a result")
