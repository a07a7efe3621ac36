"""Footprint presence: the per-file half of the footprint rules.

The happens-before checker in :mod:`repro.check` audits only regions
that hand ``parallel_for`` an :class:`~repro.kernels.base.AccessSet`.
``fp-missing-access`` flags a kernel ``parallel_for`` without an
``access=`` footprint: shared work the checker cannot see at all.
Whether a declared footprint *covers* every written array is a
whole-program question, answered by ``fp-undeclared-write`` in
:mod:`repro.lint.rules.static_footprints`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import calls_in
from repro.lint.findings import SEV_ERROR, Finding
from repro.lint.registry import KERNEL_SCOPE, ModuleContext, rule

__all__: list[str] = []


@rule("fp-missing-access", SEV_ERROR,
      "a kernel parallel_for without access= simulates shared work the "
      "repro.check happens-before checker cannot audit; declare the "
      "chunk footprint (or annotate why the loop shares nothing)",
      scope=KERNEL_SCOPE)
def check_missing_access(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``*.parallel_for(...)`` calls that pass no ``access=``."""
    for call in calls_in(ctx.nodes):
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "parallel_for"):
            continue
        if any(kw.arg == "access" for kw in call.keywords):
            continue
        yield ctx.finding(
            "fp-missing-access", call,
            "parallel_for(...) without access=: the concurrency checker "
            "sees no footprint for this region")
