"""Environment hygiene: every ``REPRO_*`` read goes through ``_util``.

The validated parsers (:func:`repro._util.env_float` and friends) are
the single choke point for configuration from the environment: they
reject malformed values loudly, and — because every read names its
variable there — give this rule a complete registry of the project's
environment surface.  The registry powers ``ENV.md`` (see
:mod:`repro.lint.envdoc`) and the ``env-undocumented`` finalizer, which
fails the lint when a variable is read but not documented.

Writes (``os.environ[...] = ...``, ``pop``) stay legal everywhere: the
CLI pins variables for child code, and save/restore wrappers need raw
access (annotated inline where they also read).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import calls_in, const_str
from repro.lint.findings import SEV_ERROR, Finding
from repro.lint.registry import (EnvUse, ModuleContext, Project,
                                 declare_rule, finalizer, rule)

__all__: list[str] = []

#: The sanctioned parser helpers in :mod:`repro._util`.
ENV_PARSERS = ("env_float", "env_int", "env_bool", "env_str", "env_csv")

#: The one module allowed to touch ``os.environ`` for ``REPRO_*`` reads.
_UTIL_MODULE = "repro/_util.py"


def _env_read_name(call_or_sub: ast.AST) -> str | None:
    """The variable name of a raw environ read, if this node is one.

    Matches ``os.environ.get(X, ...)``, ``os.getenv(X, ...)`` and the
    Load-context subscript ``os.environ[X]`` with a string-literal X.
    """
    if isinstance(call_or_sub, ast.Call):
        func = call_or_sub.func
        if isinstance(func, ast.Attribute) and func.attr == "get" \
                and isinstance(func.value, ast.Attribute) \
                and func.value.attr == "environ" \
                and isinstance(func.value.value, ast.Name) \
                and func.value.value.id == "os" and call_or_sub.args:
            return const_str(call_or_sub.args[0])
        if isinstance(func, ast.Attribute) and func.attr == "getenv" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "os" and call_or_sub.args:
            return const_str(call_or_sub.args[0])
        return None
    if isinstance(call_or_sub, ast.Subscript) \
            and isinstance(call_or_sub.ctx, ast.Load) \
            and isinstance(call_or_sub.value, ast.Attribute) \
            and call_or_sub.value.attr == "environ" \
            and isinstance(call_or_sub.value.value, ast.Name) \
            and call_or_sub.value.value.id == "os":
        return const_str(call_or_sub.slice)
    return None


@rule("env-raw-read", SEV_ERROR,
      "REPRO_* environment reads must go through the validated _util "
      "parsers (env_float/env_int/env_bool/env_str/env_csv) so typos "
      "fail loudly and the variable enters the ENV.md registry")
def check_raw_reads(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag raw ``os.environ`` reads of ``REPRO_*`` names outside
    ``_util``, and record every parser read site into the registry."""
    in_util = ctx.relpath.endswith(_UTIL_MODULE)
    for node in ctx.nodes:
        name = _env_read_name(node)
        if name is not None and name.startswith("REPRO_"):
            if in_util:
                continue
            yield ctx.finding(
                "env-raw-read", node,
                f"raw environment read of {name}; use the _util "
                "env_* parsers")
            # Raw reads still enter the registry so ENV.md stays
            # complete while a violation is being migrated.
            ctx.project.env_uses.append(EnvUse(
                name=name, parser="raw", default="",
                path=ctx.relpath, line=int(getattr(node, "lineno", 0))))
    for call in calls_in(ctx.nodes):
        func = call.func
        fn_name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if fn_name not in ENV_PARSERS or not call.args:
            continue
        var = const_str(call.args[0])
        if var is None:
            continue
        default = ""
        if len(call.args) > 1:
            default = ast.unparse(call.args[1])
        for kw in call.keywords:
            if kw.arg == "default":
                default = ast.unparse(kw.value)
        ctx.project.env_uses.append(EnvUse(
            name=var, parser=fn_name, default=default,
            path=ctx.relpath, line=call.lineno))


def _env_write_name(node: ast.AST) -> str | None:
    """The variable name of an ``os.environ[X] = ...`` write site."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
            and isinstance(node.value, ast.Attribute) \
            and node.value.attr == "environ" \
            and isinstance(node.value.value, ast.Name) \
            and node.value.value.id == "os":
        return const_str(node.slice)
    return None


@rule("env-unread-write", SEV_ERROR,
      "setting a REPRO_* variable nothing ever parses is dead "
      "configuration; register a reader or drop the write")
def collect_writes(ctx: ModuleContext) -> Iterator[Finding]:
    """Record ``os.environ[...] = ...`` sites (verified in finalize)."""
    for node in ctx.nodes:
        name = _env_write_name(node)
        if name is not None and name.startswith("REPRO_"):
            ctx.project.env_uses.append(EnvUse(
                name=name, parser="write", default="",
                path=ctx.relpath, line=int(getattr(node, "lineno", 0))))
    return
    yield  # pragma: no cover  (makes this a generator like its peers)


declare_rule("env-undocumented", SEV_ERROR,
             "every environment variable the code reads must be "
             "documented in ENV.md (regenerate with "
             "`repro lint --write-env-md ENV.md`)")


@finalizer
def check_documented(project: Project) -> Iterator[Finding]:
    """Fail when a read variable is missing from the project's ENV.md,
    or when a variable is written but never read through a parser."""
    doc_text = ""
    if project.env_doc_path is not None:
        try:
            with open(project.env_doc_path, "r", encoding="utf-8") as fh:
                doc_text = fh.read()
        except OSError:
            doc_text = ""
    reads: dict[str, EnvUse] = {}
    writes: dict[str, EnvUse] = {}
    for use in project.env_uses:
        table = writes if use.parser == "write" else reads
        if use.name not in table:
            table[use.name] = use
    if project.env_doc_path is not None:
        for name in sorted(reads):
            if name not in doc_text:
                use = reads[name]
                yield Finding(
                    rule="env-undocumented", path=use.path, line=use.line,
                    message=f"{name} is read here but not documented in "
                            "ENV.md; regenerate it with `repro lint "
                            "--write-env-md ENV.md`")
    for name in sorted(set(writes) - set(reads)):
        use = writes[name]
        yield Finding(
            rule="env-unread-write", path=use.path, line=use.line,
            message=f"{name} is written here but nothing reads it "
                    "through a _util parser")
