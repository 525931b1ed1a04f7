"""Per-rule fixtures for the repro-lint catalog: every RPL rule must
detect its planted violation and stay silent on the idiomatic fix."""

import re
import textwrap
from pathlib import Path

import pytest

from repro.lint.engine import LintEngine
from repro.lint.rules import RULES, iter_rules

LINT_DOC = Path(__file__).resolve().parent.parent / "docs" / "lint.md"

#: A path inside every rule's default scope.
POOL_PATH = "src/repro/pool/fixture.py"
CORE_PATH = "src/repro/core/fixture.py"
GPUSIM_PATH = "src/repro/gpusim/fixture.py"


def lint(code, path=CORE_PATH):
    engine = LintEngine()
    return engine.lint_source(textwrap.dedent(code), path)


def codes(findings):
    return [f.code for f in findings]


class TestCatalog:
    def test_thirteen_rules_registered(self):
        assert sorted(RULES) == [
            "RPL001", "RPL002", "RPL003", "RPL004",
            "RPL005", "RPL006", "RPL007", "RPL008", "RPL009",
            "RPL010", "RPL011", "RPL012", "RPL013",
        ]

    def test_rules_carry_metadata(self):
        for rule in iter_rules():
            assert rule.code and rule.name and rule.summary
            assert rule.severity in ("error", "warning")
            assert rule.__doc__ and rule.code in rule.__doc__

    def test_project_rules_are_marked(self):
        # RPL011–RPL013 need the cross-module index; everything earlier
        # stays a per-file rule.
        project = sorted(r.code for r in iter_rules() if r.project)
        assert project == ["RPL011", "RPL012", "RPL013"]

    def test_docs_catalog_matches_registry(self):
        # docs/lint.md carries one `### RPLxxx `name` (severity...`
        # heading per registered rule, with the registry's name and
        # severity, and documents no rule the registry lacks.
        headings = {
            code: (name, severity)
            for code, name, severity in re.findall(
                r"^### (RPL\d{3}) `([a-z-]+)` \((error|warning)",
                LINT_DOC.read_text(encoding="utf-8"), re.MULTILINE,
            )
        }
        assert headings == {
            rule.code: (rule.name, rule.severity) for rule in iter_rules()
        }


class TestRPL001GlobalRandomState:
    def test_detects_stdlib_global_shuffle(self):
        findings = lint(
            """
            import random
            def perturb(seq):
                random.shuffle(seq)
            """
        )
        assert codes(findings) == ["RPL001"]
        assert "process-wide RNG" in findings[0].message

    def test_detects_numpy_legacy_through_alias(self):
        findings = lint(
            """
            import numpy as np
            def draw(n):
                return np.random.rand(n)
            """
        )
        assert codes(findings) == ["RPL001"]
        assert "legacy global RandomState" in findings[0].message

    def test_detects_from_import_binding(self):
        findings = lint(
            """
            from numpy import random as nprandom
            def draw(n):
                return nprandom.permutation(n)
            """
        )
        assert codes(findings) == ["RPL001"]

    def test_allows_seeded_generator_and_random_instance(self):
        findings = lint(
            """
            import random
            import numpy as np
            def draw(seed, n):
                rng = np.random.default_rng(seed)
                local = random.Random(seed)
                return rng.permutation(n), local.random()
            """
        )
        assert findings == []

    def test_instance_methods_never_resolve(self):
        # self._rng.random() is a Generator method, not the global state.
        findings = lint(
            """
            class T:
                def step(self):
                    return self._rng.random()
            """
        )
        assert findings == []

    def test_out_of_scope_path_not_checked(self):
        findings = lint(
            """
            import random
            def jitter():
                return random.random()
            """,
            path="src/repro/experiments/fixture.py",
        )
        assert findings == []


class TestRPL002WallClock:
    @pytest.mark.parametrize("snippet", [
        "import time\ndef stamp():\n    return time.time()\n",
        "import os\ndef token():\n    return os.urandom(8)\n",
        "from datetime import datetime\ndef when():\n"
        "    return datetime.now()\n",
        "import uuid\ndef ident():\n    return uuid.uuid4()\n",
    ])
    def test_detects_wall_clock_reads(self, snippet):
        assert codes(lint(snippet, path=GPUSIM_PATH)) == ["RPL002"]

    def test_allows_perf_counter_measurement(self):
        findings = lint(
            """
            import time
            def measure(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
            """
        )
        assert findings == []


class TestRPL003SeededGenerators:
    def test_detects_unseeded_default_rng_everywhere(self):
        # Applies to all paths — e.g. the CLI, where the motivating bug
        # hard-coded default_rng(0) instead of threading --seed through.
        findings = lint(
            """
            import numpy as np
            def fresh():
                return np.random.default_rng()
            """,
            path="src/repro/experiments/fixture.py",
        )
        assert codes(findings) == ["RPL003"]
        assert "OS entropy" in findings[0].message

    @pytest.mark.parametrize("path", [
        "src/repro/analysis/fixture.py",
        CORE_PATH,  # in RPL001's scope too: reseeding reports once
    ], ids=["analysis", "core"])
    def test_detects_global_reseeding(self, path):
        findings = lint(
            """
            import numpy as np
            import random
            def reset(seed):
                np.random.seed(seed)
                random.seed(seed)
            """,
            path=path,
        )
        assert codes(findings) == ["RPL003", "RPL003"]

    def test_allows_seeded_construction(self):
        findings = lint(
            """
            import numpy as np
            def stream(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []


class TestRPL004SetIteration:
    def test_detects_for_loop_over_set_call(self):
        findings = lint(
            """
            def emit(items, out):
                for item in set(items):
                    out.append(item)
            """
        )
        assert codes(findings) == ["RPL004"]

    def test_detects_list_comp_over_set_literal(self):
        findings = lint(
            """
            def order():
                return [x for x in {3, 1, 2}]
            """
        )
        assert codes(findings) == ["RPL004"]

    def test_detects_list_and_join_consumers(self):
        findings = lint(
            """
            def render(names):
                return ", ".join(set(names)), list(set(names))
            """
        )
        assert codes(findings) == ["RPL004", "RPL004"]

    def test_allows_sorted_and_reductions(self):
        findings = lint(
            """
            def stable(names):
                ordered = sorted(set(names))
                total = sum({1, 2, 3})
                return ordered, total, min(set(names))
            """
        )
        assert findings == []


class TestRPL005PoolTasks:
    def test_detects_lambda_task(self):
        findings = lint(
            """
            def run(pool, xs):
                return pool.map(lambda x: x + 1, xs)
            """,
            path=POOL_PATH,
        )
        assert codes(findings) == ["RPL005"]

    def test_detects_lambda_in_imap_tasks(self):
        findings = lint(
            """
            def run(p, xs):
                return list(p.imap_unordered([(lambda x: x, (x,))
                                              for x in xs]))
            """
        )
        assert codes(findings) == ["RPL005"]

    def test_detects_nested_function_task(self):
        findings = lint(
            """
            def run(pool, xs):
                def work(x):
                    return x + 1
                return pool.run_thunks([work])
            """
        )
        assert codes(findings) == ["RPL005"]
        assert "work" in findings[0].message

    def test_detects_lambda_process_target(self):
        findings = lint(
            """
            import multiprocessing as mp
            def spawn():
                return mp.Process(target=lambda: None)
            """
        )
        assert codes(findings) == ["RPL005"]

    def test_allows_module_level_functions(self):
        findings = lint(
            """
            def work(x):
                return x + 1
            def run(pool, xs):
                return pool.map(work, [(x,) for x in xs])
            """
        )
        assert findings == []

    def test_builtin_map_is_not_a_sink(self):
        findings = lint(
            """
            def transform(xs):
                return list(map(lambda x: x + 1, xs))
            """
        )
        assert findings == []


class TestRPL006MutableModuleState:
    def test_detects_append_from_function(self):
        findings = lint(
            """
            _CACHE = []
            def remember(x):
                _CACHE.append(x)
            """,
            path=POOL_PATH,
        )
        assert codes(findings) == ["RPL006"]

    def test_detects_global_rebinding_and_subscript_write(self):
        findings = lint(
            """
            _TABLE = {}
            def reset():
                global _TABLE
                _TABLE = {}
            def put(k, v):
                _TABLE[k] = v
            """,
            path=POOL_PATH,
        )
        assert codes(findings) == ["RPL006", "RPL006"]

    def test_allows_read_only_module_constants(self):
        findings = lint(
            """
            _LIMITS = {"grid": 768}
            def limit(name):
                return _LIMITS[name]
            """,
            path=POOL_PATH,
        )
        assert findings == []

    def test_local_mutables_are_fine(self):
        findings = lint(
            """
            def collect(xs):
                acc = []
                for x in xs:
                    acc.append(x)
                return acc
            """,
            path=POOL_PATH,
        )
        assert findings == []


class TestRPL007ErrorTaxonomy:
    def test_detects_silent_swallow(self):
        findings = lint(
            """
            def risky(fn):
                try:
                    fn()
                except Exception:
                    pass
            """,
            path=POOL_PATH,
        )
        assert codes(findings) == ["RPL007"]
        assert "classify_error" in findings[0].message

    def test_detects_bare_raise_exception(self):
        findings = lint(
            """
            def fail():
                raise Exception("boom")
            """,
            path="src/repro/resilience/fixture.py",
        )
        assert codes(findings) == ["RPL007"]

    def test_allows_classified_handling(self):
        findings = lint(
            """
            from repro.gpusim.errors import classify_error
            def risky(fn, note):
                try:
                    fn()
                except Exception as exc:
                    note(classify_error(exc))
                    raise
            """,
            path=POOL_PATH,
        )
        assert findings == []

    def test_out_of_scope_paths_unchecked(self):
        findings = lint(
            """
            def risky(fn):
                try:
                    fn()
                except Exception:
                    pass
            """,
            path="src/repro/experiments/fixture.py",
        )
        assert findings == []


class TestRPL008BoundedBlocking:
    def test_detects_subprocess_run_without_timeout(self):
        findings = lint(
            """
            import subprocess
            def ship(cmd):
                return subprocess.run(cmd, check=True)
            """,
            path=POOL_PATH,
        )
        assert codes(findings) == ["RPL008"]

    def test_detects_unbounded_connection_wait(self):
        findings = lint(
            """
            from multiprocessing.connection import wait
            def drain(conns):
                return wait(conns)
            """,
            path=POOL_PATH,
        )
        assert codes(findings) == ["RPL008"]

    def test_detects_bare_recv_and_communicate(self):
        findings = lint(
            """
            def collect(conn, proc):
                out = proc.communicate()
                return conn.recv(), out
            """,
            path=POOL_PATH,
        )
        assert codes(findings) == ["RPL008", "RPL008"]

    def test_allows_bounded_calls(self):
        findings = lint(
            """
            import subprocess
            from multiprocessing.connection import wait
            def bounded(cmd, conns, proc, deadline):
                subprocess.run(cmd, timeout=deadline)
                wait(conns, deadline)
                proc.communicate(timeout=deadline)
            """,
            path=POOL_PATH,
        )
        assert findings == []


#: A path inside RPL009's default scope (the net transport modules).
NET_PATH = "src/repro/pool/net.py"


class TestRPL009TimeoutBoundedSockets:
    def test_detects_create_connection_without_timeout(self):
        findings = lint(
            """
            import socket
            def dial(address):
                return socket.create_connection(address)
            """,
            path=NET_PATH,
        )
        assert codes(findings) == ["RPL009"]
        assert "timeout=" in findings[0].message

    def test_detects_unarmed_raw_socket(self):
        findings = lint(
            """
            import socket
            def listen(port):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.bind(("", port))
                sock.listen(1)
                return sock
            """,
            path="src/repro/pool/agent.py",
        )
        assert codes(findings) == ["RPL009"]
        assert "never armed" in findings[0].message

    def test_detects_settimeout_none(self):
        findings = lint(
            """
            def disarm(sock):
                sock.settimeout(None)
            """,
            path="src/repro/pool/hosts.py",
        )
        assert codes(findings) == ["RPL009"]
        assert "disarms" in findings[0].message

    def test_allows_armed_sockets(self):
        findings = lint(
            """
            import socket
            def dial(address, connect_s, io_s):
                sock = socket.create_connection(address, timeout=connect_s)
                sock.settimeout(io_s)
                return sock

            def listen(port, accept_s):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.settimeout(accept_s)
                sock.bind(("", port))
                return sock
            """,
            path=NET_PATH,
        )
        assert findings == []

    def test_out_of_scope_paths_unchecked(self):
        findings = lint(
            """
            import socket
            def dial(address):
                return socket.create_connection(address)
            """,
            path=CORE_PATH,
        )
        assert findings == []


#: Paths inside RPL010's default scope (state-persisting trees).
SERVICE_PATH = "src/repro/service/fixture.py"
RESILIENCE_PATH = "src/repro/resilience/fixture.py"


class TestRPL010DurableStateWrites:
    def test_detects_bare_open_for_write(self):
        findings = lint(
            """
            def save(path, text):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            """,
            path=SERVICE_PATH,
        )
        assert codes(findings) == ["RPL010"]
        assert "atomic_write_text" in findings[0].message

    def test_detects_bare_append_and_path_open(self):
        findings = lint(
            """
            def log(path, line):
                with open(path, "ab") as handle:
                    handle.write(line)

            def scribble(path, line):
                with path.open(mode="a") as handle:
                    handle.write(line)
            """,
            path=RESILIENCE_PATH,
        )
        assert codes(findings) == ["RPL010", "RPL010"]

    def test_detects_write_text_and_write_bytes(self):
        findings = lint(
            """
            def save(path, text, blob):
                path.write_text(text)
                path.write_bytes(blob)
            """,
            path=SERVICE_PATH,
        )
        assert codes(findings) == ["RPL010", "RPL010"]
        assert "not" in findings[0].message and "fsync" in findings[0].message

    def test_allows_reads_and_helper_calls(self):
        findings = lint(
            """
            from repro.resilience.atomic import (
                atomic_write_text,
                durable_append_text,
            )

            def roundtrip(path, text):
                atomic_write_text(path, text)
                durable_append_text(path, text)
                with open(path, "rb") as handle:
                    handle.read()
                with open(path) as handle:
                    return handle.read()
            """,
            path=SERVICE_PATH,
        )
        assert findings == []

    def test_dynamic_mode_and_os_open_not_flagged(self):
        # The rule only flags what it can prove: a computed mode string
        # and fd-level os.open (the helpers' own plumbing) pass.
        findings = lint(
            """
            import os

            def save(path, text, mode):
                with open(path, mode) as handle:
                    handle.write(text)
                os.open(path, os.O_RDONLY)
            """,
            path=RESILIENCE_PATH,
        )
        assert findings == []

    def test_inline_suppression_with_rationale(self):
        findings = lint(
            """
            def handshake(path, label):
                with open(path, "w") as handle:  # repro-lint: disable=RPL010 -- ephemeral handshake, not durable state
                    handle.write(label)
            """,
            path=SERVICE_PATH,
        )
        assert findings == []

    def test_out_of_scope_paths_unchecked(self):
        findings = lint(
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
            path=CORE_PATH,
        )
        assert findings == []
