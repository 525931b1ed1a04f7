"""The analysis driver: discover files, run scoped rules, audit output.

The run is two passes over one parse.  Per file: parse (a syntax error
becomes an ``RPL999`` finding, never a crash) and run every per-file
rule whose scope covers the file's module.  Then the **project pass**:
all parsed files are indexed together (:class:`~repro.lint.index.
ProjectIndex`) and the project rules (RPL011–RPL013) run once over the
cross-module view — their findings are scoped per *finding* location,
so a cycle between an in-scope and an out-of-scope module still reports
at the in-scope site.  Finally each file's findings — from both passes
— are filtered through its inline suppressions and the suppressions
themselves are audited (``RPL000``).  Inline suppressions are the only
exemption mechanism.  Findings come back sorted by ``(path, line, col,
code)`` so text and JSON output are byte-stable for identical input —
CI diffs the artifact across runs.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.index import ProjectIndex
from repro.lint.model import Finding, SourceFile
from repro.lint.rules import META_CODES, RULES, iter_rules

__all__ = ["LintEngine", "LintResult", "UsageError"]


class UsageError(ValueError):
    """Bad input to a run: an unknown rule code or a missing path (exit 2)."""


@dataclasses.dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings


class LintEngine:
    """Runs the registered rules, each over the modules in its scope.

    Parameters
    ----------
    root:
        Directory finding paths are displayed relative to (files outside
        it show their absolute path).  Display only: rule scopes match
        each file's module name, which comes from where the file lives.
    select / ignore:
        ``select`` restricts checking to the listed codes, ``ignore``
        drops codes.  Unknown codes raise :class:`UsageError`.
    """

    def __init__(
        self,
        root: Path | None = None,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] = (),
    ) -> None:
        self.root = (root if root is not None else Path.cwd()).resolve()
        self.select = (
            frozenset(c.upper() for c in select) if select is not None
            else None
        )
        self.ignore = frozenset(c.upper() for c in ignore)
        known = frozenset(RULES) | set(META_CODES)
        for code in sorted((self.select or frozenset()) | self.ignore):
            if code not in known:
                raise UsageError(
                    f"unknown rule code {code}; known: {sorted(known)}"
                )

    # -- discovery ------------------------------------------------------

    def discover(self, paths: Sequence[Path]) -> list[Path]:
        """Python files under ``paths``, sorted for stable output."""
        files: set[Path] = set()
        for path in paths:
            if path.is_dir():
                files.update(path.rglob("*.py"))
            elif path.is_file():
                files.add(path)
            else:
                raise UsageError(f"no such file or directory: {path}")
        return sorted(files)

    # -- execution ------------------------------------------------------

    def lint_paths(self, paths: Sequence[Path]) -> LintResult:
        """Lint every ``*.py`` file under ``paths``."""
        files = self.discover(paths)
        sources: list[SourceFile] = []
        findings: list[Finding] = []
        for file_path in files:
            location = file_path.resolve()
            shown = self._display(location)
            text = file_path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(text)
            except SyntaxError as exc:
                findings.append(_parse_failure(shown, exc))
            else:
                sources.append(SourceFile(text, shown, tree, location))
        findings.extend(self._lint_sources(sources))
        return LintResult(findings=sorted(findings), files_checked=len(files))

    def lint_source(self, text: str, path: str) -> list[Finding]:
        """Lint one module given as text (the test fixtures' entry point).

        ``path`` is both the reported path and the location the module
        name comes from (``src/repro/core/x.py`` is ``repro.core.x``).
        Project rules still run — over an index of just this module —
        so single-file fixtures exercise RPL011–RPL013 the same way
        whole-tree runs do.
        """
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            return [_parse_failure(path, exc)]
        return sorted(self._lint_sources([SourceFile(text, path, tree)]))

    def _lint_sources(self, sources: list[SourceFile]) -> list[Finding]:
        """Both passes plus suppression filtering, all files at once."""
        by_path = {src.path: src for src in sources}
        raw: dict[str, list[Finding]] = {src.path: [] for src in sources}
        rules = [rule for rule in iter_rules() if self._enabled(rule.code)]
        for src in sources:
            for rule in rules:
                if not rule.project and rule.applies_to(src.module):
                    raw[src.path].extend(rule.check(src))
        project_rules = [rule for rule in rules if rule.project]
        if project_rules and sources:
            index = ProjectIndex.build(sources)
            for rule in project_rules:
                for finding in rule.check_project(index):
                    src = by_path.get(finding.path)
                    if src is not None and rule.applies_to(src.module):
                        raw[finding.path].append(finding)
        findings: list[Finding] = []
        for src in sources:
            findings.extend(
                f for f in _apply_suppressions(raw[src.path], src)
                if self._enabled(f.code)
            )
        return findings

    # -- helpers ---------------------------------------------------------

    def _enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        if self.select is not None and code not in self.select:
            return False
        return True

    def _display(self, location: Path) -> str:
        try:
            return location.relative_to(self.root).as_posix()
        except ValueError:
            return location.as_posix()


def _apply_suppressions(
    findings: list[Finding], src: SourceFile
) -> list[Finding]:
    """Filter suppressed findings, then audit the suppressions themselves.

    A ``# repro-lint: disable=CODES -- why`` comment silences findings of
    the listed codes *on its own physical line*.  Returns the surviving
    findings plus one ``RPL000`` finding per suppression defect: a code
    that silenced nothing (stale after a refactor), a code no rule
    defines, a meta code, a missing or empty ``-- rationale``, or a
    ``# repro-lint:`` comment that parses as no directive at all — so
    suppressions can never rot or be mistyped silently.  ``RPL000``
    itself is not suppressible.
    """
    disable = src.directives.disable
    used: set[tuple[int, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        supp = disable.get(finding.line)
        if (
            supp is not None
            and finding.code in supp.codes
            and finding.code not in META_CODES
        ):
            used.add((supp.line, finding.code))
        else:
            kept.append(finding)
    problems_at: list[tuple[int, int, str]] = [
        (line, col, "malformed directive (expected `disable=CODES -- why` "
         "or `guarded-by=LOCK`)")
        for line, col in src.directives.malformed.items()
    ]
    for supp in disable.values():
        problems: list[str] = []
        for code in supp.codes:
            if code in META_CODES:
                problems.append(f"{code} is a meta code and cannot be "
                                "suppressed")
            elif code not in RULES:
                problems.append(f"unknown code {code}")
            elif (supp.line, code) not in used:
                problems.append(f"{code} matched no finding on this line")
        if supp.reason is None:
            problems.append("missing rationale (append `-- <why>`)")
        problems_at.extend((supp.line, supp.col, p) for p in problems)
    kept.extend(
        Finding(
            path=src.path,
            line=line,
            col=col,
            code="RPL000",
            message=f"suppression defect: {problem}",
            severity="error",
            rule="suppression-audit",
        )
        for line, col, problem in problems_at
    )
    return kept


def _parse_failure(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        code="RPL999",
        message=f"file does not parse: {exc.msg}",
        severity="error",
        rule="parse-error",
    )
