"""``repro lint`` — drive the AST invariant checker from the shell.

Exit status is 1 only when error-severity findings exist that no
inline suppression covers; warnings print but never fail the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro._util import atomic_write_text
from repro.lint import formats as formats_mod
from repro.lint.engine import LintResult, lint_paths, rule_table
from repro.lint.envdoc import render_env_md

__all__ = ["main", "find_root", "default_paths"]

#: Directories linted when no paths are given, relative to the root.
#: benchmarks/ and examples/ drive the public API and are held to the
#: same invariants as the package itself (missing ones are skipped).
DEFAULT_DIRS = (os.path.join("src", "repro"), "benchmarks", "examples")


def default_paths(root: str) -> list[str]:
    """The default lint targets that exist under *root*."""
    out = [os.path.join(root, d) for d in DEFAULT_DIRS]
    return [p for p in out if os.path.isdir(p)]


def find_root(start: str | None = None) -> str:
    """Nearest ancestor of *start* (default cwd) holding pyproject.toml."""
    cur = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.exists(os.path.join(cur, "pyproject.toml")):
            return cur
        parent = os.path.dirname(cur)
        if parent == cur:
            return os.path.abspath(start or os.getcwd())
        cur = parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-level invariant checker: determinism, env "
                    "hygiene, observer gating, kernel footprints, "
                    "lock/barrier pairing.")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: "
                             "<root>/src/repro, benchmarks, examples)")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=formats_mod.FORMATS,
                        help="report style: text (human) or github "
                             "(Actions annotations)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: walk up to "
                             "pyproject.toml)")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="write the full machine-readable report "
                             "('-' for stdout)")
    parser.add_argument("--write-env-md", default=None, metavar="PATH",
                        help="regenerate the ENV.md table and exit")
    parser.add_argument("--env-doc", default=None, metavar="PATH",
                        help="ENV.md checked by env-undocumented "
                             "(default: <root>/ENV.md; 'none' disables)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every registered rule and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print the summary line")
    return parser


def _print_report(result: LintResult, elapsed: float,
                  quiet: bool) -> None:
    if not quiet:
        for finding in result.findings:
            print(finding.format())
    n_err = len(result.errors)
    n_warn = len(result.findings) - n_err
    print(f"repro lint: {result.files_checked} files, "
          f"{n_err} error(s), {n_warn} warning(s), "
          f"{len(result.suppressed)} suppressed [{elapsed:.2f}s]")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(
        list(argv) if argv is not None else None)
    if args.list_rules:
        print(rule_table())
        return 0

    root = os.path.abspath(args.root) if args.root else find_root()
    paths = [os.path.abspath(p) for p in args.paths] \
        or default_paths(root)

    env_doc: str | None
    if args.env_doc == "none":
        env_doc = None
    elif args.env_doc is not None:
        env_doc = os.path.abspath(args.env_doc)
    else:
        env_doc = os.path.join(root, "ENV.md")
    if args.write_env_md is not None:
        # Regeneration must not fail on the staleness it is fixing.
        env_doc = None

    start = time.perf_counter()
    result = lint_paths(paths, root=root, env_doc_path=env_doc)
    elapsed = time.perf_counter() - start

    if args.write_env_md is not None:
        atomic_write_text(args.write_env_md,
                          render_env_md(result.env_registry))
        print(f"wrote {args.write_env_md} "
              f"({len(result.env_registry)} variables)")
        return 0

    if args.json_path is not None:
        payload = json.dumps(result.to_dict(), indent=2,
                             sort_keys=True) + "\n"
        if args.json_path == "-":
            sys.stdout.write(payload)
        else:
            atomic_write_text(args.json_path, payload)

    if args.fmt == "github":
        sys.stdout.write(formats_mod.format_github(result))
        _print_report(result, elapsed, quiet=True)
    else:
        _print_report(result, elapsed, args.quiet)
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
