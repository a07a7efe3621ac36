"""Observer gating: telemetry/checker hooks stay one comparison when off.

The telemetry (:mod:`repro.obs`) and concurrency-checking
(:mod:`repro.check`) layers promise zero perturbation when inactive:
handles are captured once (``self.trace = _obs_tracer.active()``) and
every use sits behind a single ``is not None`` test.  A hook call that
skips the null check crashes every uninstrumented run — or worse, gets
"fixed" with a try/except that hides the cost asymmetry.

``obs-ungated`` enforces the idiom over the call graph.  Every function
in a ``SIM_SCOPE`` module reports its own ungated handle calls at the
call site; it also walks call edges into helpers *outside* the scope
and reports paths that reach an ungated handle call there, anchored at
the in-scope call with the full chain as evidence.  In-scope callees
are not traversed: their ungated calls are their own findings, so each
site is reported once.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import CallGraph, FnKey
from repro.lint.findings import (SEV_ERROR, ChainHop, Finding,
                                 render_chain)
from repro.lint.index import ProjectIndex
from repro.lint.registry import SIM_SCOPE, Project, declare_rule, \
    index_rule

__all__: list[str] = []

_MAX_DEPTH = 6

declare_rule("obs-ungated", SEV_ERROR,
             "calls into repro.obs / repro.check handles from the "
             "simulated core, directly or through out-of-scope helpers, "
             "must sit behind the single `is not None` null check so "
             "the off path stays one comparison and uninstrumented runs "
             "cannot crash")


def _in_sim_scope(relpath: str) -> bool:
    return any(frag in relpath for frag in SIM_SCOPE)


@index_rule
def check_transitive_gating(index: ProjectIndex,
                            project: Project) -> Iterator[Finding]:
    """Report each SIM_SCOPE function's own ungated obs calls, then walk
    its out-of-scope call edges to ungated obs calls in helpers."""
    sim_mods = [rel for rel in sorted(index.modules)
                if _in_sim_scope(rel)]
    if not sim_mods:
        return
    graph = CallGraph(index)

    for relpath in sim_mods:
        mod = index.modules[relpath]
        for qname in sorted(mod.functions):
            root: FnKey = (relpath, qname)
            root_fn = mod.functions[qname]
            for line, handle in root_fn.ungated_obs:
                yield Finding(
                    rule="obs-ungated", path=relpath, line=line,
                    message=(f"hook call through {handle} is not "
                             f"guarded by `if {handle} is not None:`"))
            reported: set[tuple[str, int]] = set()
            queue: list[tuple[FnKey, tuple[ChainHop, ...]]] = []
            seen: set[FnKey] = {root}
            for call, target in graph.edges(root):
                if _in_sim_scope(target[0]) or target in seen:
                    continue
                tfn = index.function_at(target)
                if tfn is None:
                    continue
                seen.add(target)
                queue.append((target, (ChainHop(
                    relpath, call.line,
                    f"{root_fn.qname} → {tfn.qname}"),)))
            depth = 0
            while queue and depth <= _MAX_DEPTH:
                next_queue: list[tuple[FnKey,
                                       tuple[ChainHop, ...]]] = []
                for key, hops in queue:
                    fn = index.function_at(key)
                    if fn is None:
                        continue
                    for line, handle in fn.ungated_obs:
                        terminal = (key[0], line)
                        if terminal in reported:
                            continue
                        reported.add(terminal)
                        chain = (*hops, ChainHop(
                            key[0], line, f"{handle}.<hook>(...)"))
                        yield Finding(
                            rule="obs-ungated",
                            path=relpath, line=hops[0].line,
                            message=(
                                f"'{root_fn.qname}' reaches an "
                                f"ungated observer-handle call "
                                f"({handle}) in an out-of-scope "
                                "helper; gate the helper or hoist the "
                                "null check to the hot path; chain: "
                                f"{render_chain(chain)}"),
                            chain=chain)
                    for call, target in graph.edges(key):
                        if _in_sim_scope(target[0]) or target in seen:
                            continue
                        tfn = index.function_at(target)
                        if tfn is None:
                            continue
                        seen.add(target)
                        next_queue.append((target, (*hops, ChainHop(
                            key[0], call.line, tfn.qname))))
                queue = next_queue
                depth += 1
