"""CLI glue for ``repro lint`` (and ``python -m repro.lint``).

Exit codes follow the usual analyzer convention:

* ``0`` — clean (no findings),
* ``1`` — findings reported,
* ``2`` — usage error (missing path, unknown rule code).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence, TextIO

from repro.lint.engine import LintEngine, UsageError
from repro.lint.report import render_findings
from repro.lint.rules import iter_rules

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` arguments to a parser (shared with repro.cli)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is the CI artifact form)",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="CODES",
        help="check only these comma-separated codes (e.g. RPL001,RPL003)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="CODES",
        help="drop these comma-separated codes",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory findings' paths are shown relative to "
             "(default: the current directory)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _split_codes(values: Sequence[str] | None) -> list[str] | None:
    if values is None:
        return None
    return [
        code.strip().upper()
        for value in values
        for code in value.split(",")
        if code.strip()
    ]


def _list_rules(stream: TextIO) -> int:
    for rule in iter_rules():
        scope = ", ".join(rule.scope) if rule.scope else "all"
        stream.write(
            f"{rule.code} [{rule.severity}] {rule.name}: {rule.summary} "
            f"(scope: {scope})\n"
        )
    stream.write(
        "RPL000 [error] suppression-audit: unused/unknown/rationale-less "
        "inline suppression (scope: all)\n"
        "RPL999 [error] parse-error: file does not parse (scope: all)\n"
    )
    return 0


def run_lint(
    args: argparse.Namespace,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Execute the lint command from parsed arguments."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if args.list_rules:
        return _list_rules(out)
    try:
        engine = LintEngine(
            root=Path(args.root) if args.root is not None else None,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore) or (),
        )
        result = engine.lint_paths([Path(p) for p in args.paths])
    except UsageError as exc:
        err.write(f"repro lint: {exc}\n")
        return 2
    out.write(render_findings(result.findings, result.files_checked,
                              args.format))
    if args.format == "json":
        out.write("")  # render_json is newline-terminated already
    else:
        out.write("\n")
    return 1 if result.findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism & concurrency-safety analyzer "
                    "for this repository (rule catalog: docs/lint.md).",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(main())
