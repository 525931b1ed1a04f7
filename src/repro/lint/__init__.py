"""``repro.lint`` — the repo's determinism & concurrency-safety analyzer.

The reproduction's core guarantee — bit-identical results for any backend
and any worker count — rests on coding rules no runtime test can enforce
exhaustively: seeded :class:`numpy.random.Generator` streams only, no
wall-clock reads in deterministic paths, spawn-picklable pool payloads,
and failures routed through the :mod:`repro.gpusim.errors` transient/fatal
taxonomy.  This package enforces those rules *statically*: a stdlib-only
:mod:`ast` analyzer with per-rule codes (``RPL0xx``), each scoped to
the modules it guards, and inline suppressions carrying a rationale as
the one exemption mechanism.

Since the service/pool layers went multi-threaded the analyzer also
checks *concurrency* discipline: a cross-module :class:`~repro.lint.
index.ProjectIndex` feeds the lock rules (``RPL011`` guarded fields,
``RPL012`` lock ordering, ``RPL013`` blocking under a lock), and
:mod:`repro.lint.sanitizer` re-checks the same properties at runtime
when tests run with ``REPRO_TSAN=1``.

Entry points
------------
- ``repro lint [paths]`` (see :mod:`repro.lint.cli`),
- :class:`LintEngine` for programmatic use and the test fixtures,
- ``tests/test_lint_self.py`` runs the analyzer over ``src/`` so a new
  violation fails tier-1 forever.

The rule catalog lives in :mod:`repro.lint.rules` and is documented with
bad/good examples in ``docs/lint.md``.
"""

from __future__ import annotations

from repro.lint.engine import Finding, LintEngine, LintResult, UsageError
from repro.lint.index import ProjectIndex
from repro.lint.report import render_findings
from repro.lint.rules import RULES, Rule

__all__ = [
    "Finding",
    "LintEngine",
    "LintResult",
    "ProjectIndex",
    "RULES",
    "Rule",
    "UsageError",
    "render_findings",
]
