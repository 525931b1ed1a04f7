"""The self-lint guard: ``repro lint src/`` must stay clean forever.

This is the teeth of the analyzer — it runs over the real tree as part
of tier-1, so any new global-state RNG call, wall-clock read in a
deterministic path, spawn-unpicklable pool payload or unclassified error
path fails the suite.  Fix the violation, or suppress it on its line
with a reasoned ``# repro-lint: disable=RPLxxx -- why``; rationale-less
or stale suppressions are themselves findings.  Inline suppressions are
the only exemption mechanism.
"""

from pathlib import Path

from repro.lint.engine import LintEngine

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_source_tree_is_lint_clean():
    engine = LintEngine(root=REPO_ROOT)
    result = engine.lint_paths([REPO_ROOT / "src"])
    assert result.files_checked > 80  # the whole tree, not a subset
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.clean, (
        f"repro lint found violations in src/ — fix them or add a "
        f"reasoned suppression (docs/lint.md):\n{rendered}"
    )
