"""``repro lint`` CLI contract: exit codes 0/1/2 and the stable JSON
artifact schema CI uploads."""

import json
import textwrap

import pytest

from repro.cli import main

CLEAN = "def tidy(seed):\n    return seed\n"

DIRTY = textwrap.dedent(
    """
    import numpy as np
    def fresh():
        return np.random.default_rng()
    """
)


@pytest.fixture
def tree(tmp_path):
    """A minimal ``src`` layout with an (empty) ``repro.core`` package."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    return tmp_path


def write(tree, name, code):
    path = tree / "src" / "repro" / "core" / name
    path.write_text(code)
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        write(tree, "tidy.py", CLEAN)
        rc = main(["lint", "--root", str(tree), str(tree / "src")])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        write(tree, "dirty.py", DIRTY)
        rc = main(["lint", "--root", str(tree), str(tree / "src")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPL003" in out and "dirty.py:4" in out

    def test_missing_path_exits_two(self, tree, capsys):
        rc = main(["lint", "--root", str(tree), str(tree / "nowhere")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_select_code_exits_two(self, tree, capsys):
        write(tree, "tidy.py", CLEAN)
        rc = main(["lint", "--root", str(tree), "--select", "RPL314",
                   str(tree / "src")])
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_unknown_ignore_code_exits_two(self, tree, capsys):
        # A typo'd --ignore must fail loudly, not silently ignore
        # nothing while the caller believes a rule is off.
        write(tree, "tidy.py", CLEAN)
        rc = main(["lint", "--root", str(tree), "--ignore", "RPL099",
                   str(tree / "src")])
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_bad_flag_usage_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--format", "yaml"])
        assert excinfo.value.code == 2

    def test_select_ignore_roundtrip(self, tree, capsys):
        write(tree, "dirty.py", DIRTY)
        assert main(["lint", "--root", str(tree), "--ignore", "RPL003",
                     str(tree / "src")]) == 0
        assert main(["lint", "--root", str(tree), "--select", "RPL003",
                     str(tree / "src")]) == 1
        capsys.readouterr()


class TestWorkingDirectory:
    def test_scoped_rules_run_from_any_directory(
        self, tree, tmp_path_factory, monkeypatch, capsys
    ):
        # RPL002 is scoped to deterministic packages; the file's module
        # name (repro.core.clock) comes from where it lives, so running
        # from an unrelated directory without --root still checks it.
        write(tree, "clock.py", "import time\n\ndef stamp():\n"
                                "    return time.time()\n")
        monkeypatch.chdir(tmp_path_factory.mktemp("elsewhere"))
        rc = main(["lint", str(tree / "src")])
        assert rc == 1
        out = capsys.readouterr().out
        expected = (tree / "src/repro/core/clock.py").resolve().as_posix()
        assert f"{expected}:4:12: RPL002" in out


class TestJsonSchema:
    def read_payload(self, capsys):
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["tool"] == "repro-lint"
        return payload

    def test_clean_payload_shape(self, tree, capsys):
        write(tree, "tidy.py", CLEAN)
        rc = main(["lint", "--root", str(tree), "--format", "json",
                   str(tree / "src")])
        assert rc == 0
        payload = self.read_payload(capsys)
        assert payload["files_checked"] == 1
        assert payload["counts"] == {}
        assert payload["findings"] == []

    def test_finding_payload_shape(self, tree, capsys):
        write(tree, "dirty.py", DIRTY)
        rc = main(["lint", "--root", str(tree), "--format", "json",
                   str(tree / "src")])
        assert rc == 1
        payload = self.read_payload(capsys)
        assert payload["counts"] == {"RPL003": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "path", "line", "col", "code", "severity", "rule", "message",
        }
        assert finding["path"] == "src/repro/core/dirty.py"
        assert finding["code"] == "RPL003"
        assert finding["severity"] == "error"
        assert finding["rule"] == "seeded-generators-only"

    def test_json_output_is_byte_stable(self, tree, capsys):
        write(tree, "dirty.py", DIRTY)
        main(["lint", "--root", str(tree), "--format", "json",
              str(tree / "src")])
        first = capsys.readouterr().out
        main(["lint", "--root", str(tree), "--format", "json",
              str(tree / "src")])
        second = capsys.readouterr().out
        assert first == second


class TestListRules:
    def test_catalog_listing(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL008", "RPL011", "RPL012", "RPL013",
                     "RPL000", "RPL999"):
            assert code in out


class TestConcurrencySelect:
    def test_select_concurrency_rules_only(self, tree, capsys):
        # The CI concurrency-lint job's exact invocation: the RNG
        # violation in DIRTY is out of scope, so a clean exit.
        write(tree, "dirty.py", DIRTY)
        rc = main(["lint", "--root", str(tree),
                   "--select", "RPL011,RPL012,RPL013",
                   "--format", "json", str(tree / "src")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
