"""Crash-safety write protocol for durable roots (whole-program rule).

Everything persisted under a store or registry root follows one
protocol, established by :func:`repro._util.atomic_write_text` and
``graphstore.format.save_graph``: write a scratch file, ``flush()`` +
``os.fsync()`` it, then publish with ``os.replace``.  A bare
``open(path, "w")`` straight onto a durable path can be torn by a crash
into a half-written object that every later read trusts; an unfenced
tmp→replace can publish a file whose *data* never reached disk (the
rename can be durable before the content is).

Two error rules over the effect summaries of durable-scope modules:

* ``crash-bare-write`` — a write-capable ``open`` (``w``/``x``/``a``/
  ``+`` modes) whose target is not a recognizable scratch file;
* ``crash-unfenced-replace`` — a scratch-file write in a function that
  publishes via ``os.replace`` without an ``os.fsync`` in between.

Append mode is write-capable too: an append can be torn mid-record just
like an overwrite, so nothing durable is appended in place.  Deliberate
protocol breaks (fault injection tearing files on purpose, user-chosen CLI
output paths) carry inline suppressions at the open site.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import SEV_ERROR, ChainHop, Finding
from repro.lint.index import ProjectIndex
from repro.lint.registry import Project, declare_rule, index_rule

__all__: list[str] = []

#: Modules whose files live under durable on-disk roots.
DURABLE_SCOPE = ("repro/graphstore/", "repro/campaign/", "repro/_util.py")

declare_rule("crash-bare-write", SEV_ERROR,
             "files under store/registry roots must be "
             "published via tmp-file + flush/fsync + os.replace; a "
             "bare write-mode open can be torn by a crash into a "
             "half-written object later reads will trust")
declare_rule("crash-unfenced-replace", SEV_ERROR,
             "a tmp-file publish via os.replace without an os.fsync "
             "between write and rename can survive a crash as a "
             "durable name pointing at never-synced data")


def _write_capable(mode: str) -> bool:
    """True for modes the protocol governs (everything but read)."""
    return any(ch in mode for ch in ("w", "x", "a", "+"))


@index_rule
def check_crash_safety(index: ProjectIndex,
                       project: Project) -> Iterator[Finding]:
    """Run the write-protocol check over every durable-scope module."""
    for relpath in sorted(index.modules):
        if not any(frag in relpath for frag in DURABLE_SCOPE):
            continue
        mod = index.modules[relpath]
        for qname in sorted(mod.functions):
            fn = mod.functions[qname]
            if not fn.opens:
                continue
            fsync_lines = sorted(
                c.line for c in fn.calls
                if c.base == "os" and c.name in ("fsync", "fdatasync"))
            replace_lines = sorted(
                c.line for c in fn.calls
                if c.base == "os" and c.name == "replace")
            for op in fn.opens:
                if not _write_capable(op.mode):
                    continue
                if op.tmpish:
                    published = [ln for ln in replace_lines
                                 if ln >= op.line]
                    if not published:
                        continue     # scratch file never published
                    fenced = any(op.line <= ln <= published[0]
                                 for ln in fsync_lines)
                    if fenced:
                        continue
                    yield Finding(
                        rule="crash-unfenced-replace", path=relpath,
                        line=op.line,
                        message=(
                            f"'{qname}' writes scratch file "
                            f"{op.target} and publishes it with "
                            f"os.replace (line {published[0]}) without "
                            "an os.fsync in between; the rename can "
                            "become durable before the data does"),
                        chain=(
                            ChainHop(relpath, op.line,
                                     f"open({op.target}, "
                                     f"{op.mode!r})"),
                            ChainHop(relpath, published[0],
                                     "os.replace")))
                else:
                    yield Finding(
                        rule="crash-bare-write", path=relpath,
                        line=op.line,
                        message=(
                            f"'{qname}' opens {op.target} with mode "
                            f"{op.mode!r} under a durable root; write "
                            "a tmp file, flush+fsync it, then publish "
                            "with os.replace (see "
                            "repro._util.atomic_write_text)"))
