"""Lock/barrier pairing rules for the time-reservation sync model.

In this simulator an :class:`~repro.sim.resources.AtomicVar` RMW
*returns its completion time* — the whole serialised operation is
priced in one reservation.  Discarding that return value silently
erases the operation from simulated time: its completion never reaches
the caller's clock, the time-reservation equivalent of an unpaired
acquire/release.  The same holds for ``MemoryChannel.service``.

Barrier arity is the second pairing hazard: a
:class:`~repro.sim.engine.Barrier` built with a hard-coded party count
deadlocks (or releases early) the moment the region's thread count
changes — arity must be derived from the same expression that sizes the
worker spawn loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import calls_in
from repro.lint.findings import SEV_ERROR, SEV_WARNING, Finding
from repro.lint.registry import SIM_SCOPE, ModuleContext, rule

__all__: list[str] = []

#: Reservation methods whose return value carries the completion time.
_RESERVATION_METHODS = {"rmw": "the completion time",
                        "service": "the finish time"}


@rule("lock-discarded-release", SEV_ERROR,
      "discarding the return of rmw()/service() drops the "
      "reservation's completion time — an unpaired acquire in the "
      "time-reservation model",
      scope=SIM_SCOPE)
def check_discarded_release(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag expression statements that call a reservation method and
    throw the returned completion time away."""
    for node in ctx.nodes:
        if not isinstance(node, ast.Expr):
            continue
        call = node.value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)):
            continue
        what = _RESERVATION_METHODS.get(call.func.attr)
        if what is None:
            continue
        yield ctx.finding(
            "lock-discarded-release", node,
            f"result of {ast.unparse(call.func)}(...) is discarded; "
            f"{what} never reaches the caller's simulated clock")


@rule("lock-barrier-arity", SEV_WARNING,
      "a Barrier built with a literal party count deadlocks or "
      "releases early when the region's thread count changes; derive "
      "arity from the n_threads expression that sizes the spawn loop",
      scope=SIM_SCOPE)
def check_barrier_arity(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``Barrier(engine, <int literal>, ...)`` constructions."""
    for call in calls_in(ctx.nodes):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name != "Barrier" or len(call.args) < 2:
            continue
        parties = call.args[1]
        if isinstance(parties, ast.Constant) \
                and isinstance(parties.value, int):
            yield ctx.finding(
                "lock-barrier-arity", call,
                f"Barrier arity is the literal {parties.value}; tie it "
                "to the region's thread count so spawn and join always "
                "agree")
