"""Shared data model of the analyzer: findings and parsed source files.

A :class:`SourceFile` bundles everything a rule may need — the source
text, the parsed AST, the file's dotted module name, its ``# repro-lint:``
directives, and an *import map* resolving local binding names back to
fully qualified module paths (``np`` → ``numpy``, ``default_rng`` →
``numpy.random.default_rng``), so rules match semantics rather than
spelling: ``np.random.seed``, ``numpy.random.seed`` and
``from numpy.random import seed`` all resolve to the same dotted name.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from pathlib import Path, PurePath, PurePosixPath
from typing import Any

__all__ = [
    "Directives", "Disable", "Finding", "SourceFile", "dotted_name",
    "module_name", "scan_directives",
]

#: Ordering of severities, most severe first (used only for display).
SEVERITIES = ("error", "warning")

#: Mutating method names on builtin containers.  RPL006 flags them on
#: module globals; the project index counts ``self.F.append(...)`` as a
#: write to ``F``.  ``queue.Queue.put`` is deliberately absent: the queue
#: carries its own lock, so putting into it needs no outside guard.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "popleft", "remove",
    "setdefault", "update",
})

_DIRECTIVE = re.compile(r"#\s*repro-lint:")
_DISABLE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Za-z0-9,\s]+?)"
    r"(?:\s+--(?P<reason>.*))?$"
)
_GUARDED_BY = re.compile(
    r"#\s*repro-lint:\s*guarded-by=(?P<lock>[A-Za-z_][A-Za-z0-9_]*)"
)


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str = dataclasses.field(compare=False)
    severity: str = dataclasses.field(default="error", compare=False)
    rule: str = dataclasses.field(default="", compare=False)

    def to_json(self) -> dict[str, Any]:
        """Stable JSON shape (documented in docs/lint.md)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        """The familiar one-line ``path:line:col: CODE message`` form."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} {self.message}"
        )


@dataclasses.dataclass(frozen=True)
class Disable:
    """One ``# repro-lint: disable=CODES -- why`` comment."""

    line: int
    col: int
    codes: tuple[str, ...]
    reason: str | None


@dataclasses.dataclass(frozen=True)
class Directives:
    """A file's ``# repro-lint:`` comments, keyed by physical line."""

    disable: dict[int, Disable]
    #: ``guarded-by=<lock>`` annotations: line -> lock attribute.
    guarded_by: dict[int, str]
    #: Comments that begin ``# repro-lint:`` but parse as neither
    #: directive: line -> column.
    malformed: dict[int, int]


def scan_directives(text: str) -> Directives:
    """Every ``# repro-lint:`` directive in ``text``, in one token pass.

    Tokenized rather than regexed over raw lines so ``repro-lint:``
    inside string literals (e.g. this analyzer's own tests) never parses
    as a directive.  An unreadable token stream yields no directives —
    the engine reports the parse failure separately.
    """
    directives = Directives(disable={}, guarded_by={}, malformed={})
    try:
        comments = [
            tok for tok in tokenize.generate_tokens(
                io.StringIO(text).readline
            )
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return directives
    for tok in comments:
        line, col = tok.start[0], tok.start[1] + 1
        disable = _DISABLE.search(tok.string)
        if disable is not None:
            reason = (disable.group("reason") or "").strip()
            directives.disable[line] = Disable(
                line=line,
                col=col,
                codes=tuple(
                    code.strip().upper()
                    for code in disable.group("codes").split(",")
                    if code.strip()
                ),
                reason=reason or None,
            )
        guard = _GUARDED_BY.search(tok.string)
        if guard is not None:
            directives.guarded_by[line] = guard.group("lock")
        if disable is None and guard is None and _DIRECTIVE.match(tok.string):
            directives.malformed[line] = col
    return directives


def module_name(location: PurePath) -> str:
    """Dotted module name of the file at ``location``.

    The tree uses the ``src`` layout, so a module is named by its path
    below the innermost ``src`` directory: ``…/src/repro/pool/net.py`` is
    ``repro.pool.net`` wherever the checkout sits and whatever the
    working directory is.  Outside any ``src`` directory the name runs
    from the outermost enclosing package (directories holding an
    ``__init__.py``).  A package's ``__init__.py`` names the package.
    """
    parts = list(PurePath(location).parts)
    dirs = parts[:-1]
    if "src" in dirs:
        start = len(dirs) - dirs[::-1].index("src")
    else:
        start = len(dirs)
        while start > 0 and (
            Path(*parts[:start]) / "__init__.py"
        ).is_file():
            start -= 1
    names = parts[start:-1] + [PurePosixPath(parts[-1]).stem]
    if names[-1] == "__init__" and len(names) > 1:
        names.pop()
    return ".".join(names)


class SourceFile:
    """One parsed module under analysis.

    Parameters
    ----------
    text:
        Full source text.
    path:
        Path the findings report (POSIX form); display only.
    tree:
        The parsed module (``ast.parse(text)``); the caller owns parse
        errors so the engine can turn them into findings rather than
        crashes.
    location:
        Where the file lives (default: ``path``); its :func:`module_name`
        is the identity rule scopes and project qualnames use.
    """

    def __init__(
        self, text: str, path: str, tree: ast.Module,
        location: PurePath | None = None,
    ) -> None:
        self.text = text
        self.path = str(PurePosixPath(path))
        self.tree = tree
        self.module = module_name(
            location if location is not None else PurePath(path)
        )
        self.directives = scan_directives(text)
        self._imports: dict[str, str] | None = None

    # -- import resolution ---------------------------------------------

    @property
    def imports(self) -> dict[str, str]:
        """Binding name → fully qualified module/attribute path."""
        if self._imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname is not None:
                            table[alias.asname] = alias.name
                        else:
                            # ``import a.b`` binds ``a`` (to package a).
                            root = alias.name.split(".", 1)[0]
                            table[root] = root
                elif isinstance(node, ast.ImportFrom):
                    if node.level or node.module is None:
                        continue  # relative imports never name stdlib/numpy
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        table[bound] = f"{node.module}.{alias.name}"
            self._imports = table
        return self._imports

    def resolve_call(self, func: ast.expr) -> str | None:
        """Fully qualified dotted name of a call target, if derivable.

        Only attribute chains rooted at an *imported* binding resolve
        (``np.random.seed`` → ``numpy.random.seed``); chains rooted at
        local objects (``self._rng.random``) return ``None`` so rules
        never guess about instance state.  A bare imported name resolves
        through ``from``-imports (``default_rng`` →
        ``numpy.random.default_rng``).
        """
        parts = dotted_name(func)
        if parts is None:
            return None
        root, rest = parts[0], parts[1:]
        resolved_root = self.imports.get(root)
        if resolved_root is None:
            return None
        return ".".join((resolved_root, *rest))


def dotted_name(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` attribute chain as ``("a", "b", "c")``, else ``None``."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    chain.append(node.id)
    return tuple(reversed(chain))
