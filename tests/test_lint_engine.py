"""Engine behavior: suppressions (with audit), rule scoping by module,
selection, parse-error handling, and output stability."""

import textwrap

import pytest

from repro.lint.engine import LintEngine, UsageError
from repro.lint.model import scan_directives
from repro.lint.rules import RULES

CORE_PATH = "src/repro/core/fixture.py"

VIOLATION = """
import random
def perturb(seq):
    random.shuffle(seq)
"""


def lint(code, path=CORE_PATH, **engine_kwargs):
    engine = LintEngine(**engine_kwargs)
    return engine.lint_source(textwrap.dedent(code), path)


class TestSuppressions:
    def test_suppression_with_rationale_silences_finding(self):
        findings = lint(
            """
            import random
            def perturb(seq):
                random.shuffle(seq)  # repro-lint: disable=RPL001 -- test fixture exercising the legacy path
            """
        )
        assert findings == []

    def test_suppression_without_rationale_is_audited(self):
        findings = lint(
            """
            import random
            def perturb(seq):
                random.shuffle(seq)  # repro-lint: disable=RPL001
            """
        )
        assert [f.code for f in findings] == ["RPL000"]
        assert "missing rationale" in findings[0].message

    @pytest.mark.parametrize("tail", [" --", " --   ", " -- \t"])
    def test_empty_rationale_is_missing_rationale(self, tail):
        findings = lint(
            "import random\n"
            "def perturb(seq):\n"
            f"    random.shuffle(seq)  # repro-lint: disable=RPL001{tail}\n"
        )
        assert [f.code for f in findings] == ["RPL000"]
        assert "missing rationale" in findings[0].message

    @pytest.mark.parametrize(
        "comment",
        [
            "# repro-lint: disable=RPL001 - one dash is not a separator",
            "# repro-lint: disable=RPL001-- no space before the dashes",
            "# repro-lint: disable RPL001 -- no equals sign",
            "# repro-lint: guarded-by=",
            "#repro-lint:",
        ],
    )
    def test_unparsed_directive_is_audited(self, comment):
        findings = lint(
            "import random\n"
            "def perturb(seq):\n"
            f"    random.shuffle(seq)  {comment}\n"
        )
        assert sorted(f.code for f in findings) == ["RPL000", "RPL001"]
        (audit,) = [f for f in findings if f.code == "RPL000"]
        assert "malformed directive" in audit.message
        assert (audit.line, audit.col) == (3, 26)

    def test_unused_suppression_is_audited(self):
        findings = lint(
            """
            def clean():
                return 1  # repro-lint: disable=RPL001 -- stale after refactor
            """
        )
        assert [f.code for f in findings] == ["RPL000"]
        assert "matched no finding" in findings[0].message

    def test_unknown_code_is_audited(self):
        findings = lint(
            """
            def clean():
                return 1  # repro-lint: disable=RPL042 -- no such rule
            """
        )
        assert [f.code for f in findings] == ["RPL000"]
        assert "unknown code RPL042" in findings[0].message

    def test_suppression_only_covers_its_own_line(self):
        findings = lint(
            """
            import random
            def perturb(seq):  # repro-lint: disable=RPL001 -- wrong line
                random.shuffle(seq)
            """
        )
        codes = sorted(f.code for f in findings)
        assert codes == ["RPL000", "RPL001"]  # unused + unsuppressed

    def test_multiple_codes_one_comment(self):
        findings = lint(
            """
            import random, time
            def perturb(seq):
                random.shuffle(seq); time.time()  # repro-lint: disable=RPL001,RPL002 -- fixture
            """
        )
        assert findings == []

    def test_directive_inside_string_is_not_a_suppression(self):
        directives = scan_directives(
            'text = "# repro-lint: disable=RPL001 -- not a comment"\n'
        )
        assert directives.disable == {}

    def test_meta_code_cannot_be_suppressed(self):
        findings = lint(
            """
            def clean():
                return 1  # repro-lint: disable=RPL000 -- nice try
            """
        )
        assert [f.code for f in findings] == ["RPL000"]
        assert "meta code" in findings[0].message


class TestRuleScoping:
    def test_scope_matches_module_prefix_and_exact(self):
        pool_rule, net_rule = RULES["RPL007"], RULES["RPL009"]
        assert pool_rule.applies_to("repro.pool.executor")
        assert pool_rule.applies_to("repro.pool")
        assert not pool_rule.applies_to("repro.pooling")
        assert net_rule.applies_to("repro.pool.net")
        assert not net_rule.applies_to("repro.pool.executor")
        assert RULES["RPL003"].applies_to("anything.at.all")

    def test_out_of_src_package_named_by_init_chain(self, tmp_path):
        pkg = tmp_path / "tools" / "repro" / "core"
        pkg.mkdir(parents=True)
        for d in (pkg.parent, pkg):
            (d / "__init__.py").write_text("")
        (pkg / "fixture.py").write_text(textwrap.dedent(VIOLATION))
        result = LintEngine(root=tmp_path).lint_paths([tmp_path / "tools"])
        assert [f.code for f in result.findings] == ["RPL001"]
        assert result.findings[0].path == "tools/repro/core/fixture.py"


class TestEngineSelection:
    def test_cli_select_restricts(self):
        findings = lint(VIOLATION, select=["RPL002"])
        assert findings == []
        findings = lint(VIOLATION, select=["RPL001"])
        assert [f.code for f in findings] == ["RPL001"]

    def test_cli_ignore_drops(self):
        assert lint(VIOLATION, ignore=["RPL001"]) == []

    def test_unknown_cli_code_rejected(self):
        with pytest.raises(UsageError, match="unknown rule code"):
            LintEngine(select=["RPL314"])

    def test_parse_error_becomes_rpl999(self):
        findings = lint("def broken(:\n")
        assert [f.code for f in findings] == ["RPL999"]
        assert findings[0].severity == "error"

    def test_findings_sorted_and_stable(self):
        code = """
        import random, time
        def a(seq):
            time.time()
            random.shuffle(seq)
        """
        first = lint(code)
        second = lint(code)
        assert first == second
        assert first == sorted(first)
        assert [f.code for f in first] == ["RPL002", "RPL001"]  # line order
