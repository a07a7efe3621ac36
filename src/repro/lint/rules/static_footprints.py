"""Static AccessSet inference: the footprint-completeness rules.

The happens-before checker can only see races on arrays a kernel
*declares* in its :class:`~repro.kernels.base.AccessSet`; an
undeclared shared array is silently unchecked — the blind spot
Çatalyürek et al. (arXiv:1205.3809) warn about for speculative
kernels, and the under-declared speculative access Rokos et al.
(arXiv:1505.04086) identify as where coloring implementations go
wrong.  Two rules close it over the project call graph:

* ``fp-undeclared-write`` (error) — a function in an
  AccessSet-declaring kernel module writes a parameter array that no
  ``.writes(...)`` in the module covers: itself (``colors[v] = c``,
  ``np.add.at(colors, ...)``), in a closure chunk body over the
  parameter, or by passing it to a callee (any module, any depth) that
  writes it.  A direct write anchors at the write; a delegated one
  anchors at the call site and carries the full chain down to the
  concrete write.  ``.benign_race(...)`` declares nothing here: it adds
  no footprint entry, so the checker still cannot see the array.
* ``fp-overbroad-footprint`` (warning) — a ``.writes("name", ...)`` or
  ``.benign_race("name", ...)`` whose array is never written anywhere
  in the module, directly or through any resolved callee: dead weight
  that makes the race checker look stronger than it is.

Both match arrays by *name* (the AccessSet convention: the declared
label is the chunk-function parameter name) — a renamed pass-through
parameter defeats the diff and is the documented imprecision here.
Annotate genuine bookkeeping arrays (e.g. replay timestamps) with an
inline ``# repro: ignore[fp-undeclared-write] <why>`` at either end of
the chain.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import CallGraph, Chain, infer_transitive_writes
from repro.lint.findings import (SEV_ERROR, SEV_WARNING, ChainHop,
                                 Finding, render_chain)
from repro.lint.index import FilePayload, ProjectIndex
from repro.lint.registry import Project, declare_rule, index_rule

__all__: list[str] = []

_KERNEL_FRAGMENT = "repro/kernels/"

declare_rule("fp-undeclared-write", SEV_ERROR,
             "a kernel function writes a parameter array (itself, in a "
             "closure, or through helpers) that no AccessSet "
             ".writes(...) in the kernel module declares — the race "
             "checker is blind to it")
declare_rule("fp-overbroad-footprint", SEV_WARNING,
             "an AccessSet declares .writes(...) on an array nothing "
             "in the module writes (directly or through helpers); "
             "over-broad footprints hide real gaps in checker "
             "coverage")


def _chain_hops(chain: Chain) -> tuple[ChainHop, ...]:
    return tuple(ChainHop(path=p, line=ln, note=note)
                 for p, ln, note in chain)


@index_rule
def check_transitive_footprints(index: ProjectIndex,
                                project: Project) -> Iterator[Finding]:
    """Diff direct and transitively inferred parameter writes against
    each kernel module's declared AccessSet write footprints."""
    kernel_mods = [rel for rel in sorted(index.modules)
                   if _KERNEL_FRAGMENT in rel
                   and index.modules[rel].uses_access_sets]
    if not kernel_mods:
        return
    graph = CallGraph(index)
    inferred = infer_transitive_writes(index, graph)

    for relpath in kernel_mods:
        mod = index.modules[relpath]
        declared = mod.declared_writes
        written_names: set[str] = set()
        for qname in sorted(mod.functions):
            fn = mod.functions[qname]
            for name, line in sorted(set(fn.param_writes())):
                if name in declared:
                    continue
                yield Finding(
                    rule="fp-undeclared-write", path=relpath, line=line,
                    message=(
                        f"parameter array '{name}' of '{qname}' is "
                        "written here, but no AccessSet in this module "
                        f"declares .writes({name!r}, ...)"))
            writes = inferred.get((relpath, qname), {})
            written_names.update(writes)
            for name in sorted(writes):
                chain = writes[name]
                if len(chain) < 2:
                    continue         # direct write: reported above
                if name not in fn.params or name in declared:
                    continue
                yield Finding(
                    rule="fp-undeclared-write",
                    path=relpath, line=chain[0][1],
                    message=(
                        f"'{qname}' passes parameter array '{name}' "
                        f"down a call chain that writes it, but no "
                        f"AccessSet in this module declares "
                        f".writes({name!r}, ...); chain: "
                        f"{render_chain(_chain_hops(chain))}"),
                    chain=_chain_hops(chain))
        for name in sorted((declared | mod.benign_races) - written_names):
            line = _declaration_line(project, relpath, name)
            yield Finding(
                rule="fp-overbroad-footprint", path=relpath, line=line,
                severity=SEV_WARNING,
                message=(
                    f"AccessSet declares .writes({name!r}, ...) but "
                    f"nothing in this module writes '{name}', directly "
                    "or through any resolved helper; narrow the "
                    "declaration or name the array after the parameter "
                    "that carries it"))


def _declaration_line(project: Project, relpath: str, name: str) -> int:
    """Best-effort line of the ``.writes("name"`` declaration."""
    payload = _payload_for(project, relpath)
    if payload is None:
        return 1
    needles = (f'.writes("{name}"', f".writes('{name}'",
               f'.benign_race("{name}"', f".benign_race('{name}'")
    for i, text in enumerate(payload.lines, start=1):
        if any(needle in text for needle in needles):
            return i
    return 1


def _payload_for(project: Project, relpath: str) -> FilePayload | None:
    for payload in project.modules:
        if getattr(payload, "relpath", None) == relpath:
            return payload
    return None
