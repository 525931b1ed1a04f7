"""The concurrency analyzer: ProjectIndex facts and rules RPL011–RPL013.

Each rule gets the catalog treatment (planted violation detected,
idiomatic fix silent) plus the cross-module cases the project index
exists for: guards inferred through held-at-entry helpers, lock-order
cycles spanning two files, and blocking calls reached under a lock.
"""

import ast
import textwrap
from pathlib import PurePath

from repro.lint.engine import LintEngine
from repro.lint.index import ProjectIndex
from repro.lint.model import SourceFile, module_name

#: Paths inside the concurrency rules' default scope.
SERVICE_PATH = "src/repro/service/fixture.py"
POOL_PATH = "src/repro/pool/fixture.py"


def lint(code, path=SERVICE_PATH):
    engine = LintEngine()
    return engine.lint_source(textwrap.dedent(code), path)


def codes(findings):
    return [f.code for f in findings]


def build_index(**modules):
    """A ProjectIndex over ``{rel_path: code}`` fixture modules."""
    sources = []
    for rel_path, code in modules.items():
        text = textwrap.dedent(code)
        sources.append(SourceFile(text, rel_path, ast.parse(text)))
    return ProjectIndex.build(sources)


class TestProjectIndex:
    def test_module_name_comes_from_file_location(self):
        # The path below the innermost `src` directory, wherever the
        # checkout sits; a package's __init__ names the package.
        for location in ("src/repro/service/api.py",
                         "/any/where/src/repro/service/api.py"):
            assert module_name(PurePath(location)) == "repro.service.api"
        assert module_name(PurePath("/co/src/repro/pool/__init__.py")) == (
            "repro.pool"
        )

    def test_lock_attrs_and_constructor_types(self):
        index = build_index(**{SERVICE_PATH: """
            import queue
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition()
                    self._inbox = queue.Queue()
        """})
        (cls,) = index.classes
        assert sorted(cls.lock_attrs) == ["_cv", "_lock"]
        assert cls.attr_types["_inbox"] == "queue.Queue"

    def test_annotations_type_attributes(self):
        index = build_index(**{SERVICE_PATH: """
            import queue
            import threading

            class Box:
                def __init__(self, peer: "threading.Event"):
                    self._q: "queue.Queue[int]" = queue.Queue()
                    self.peer = peer
                    self.names: list[str] = []
        """})
        (cls,) = index.classes
        assert cls.attr_types["_q"] == "queue.Queue"
        assert cls.attr_types["peer"] == "threading.Event"
        # A container annotation types the container, which resolves to
        # nothing — `list` is not an imported name.
        assert "names" not in cls.attr_types

    def test_entry_held_fixed_point(self):
        # `_note` is only ever called with `_lock` held, so it is
        # analyzed as holding the lock at entry.
        index = build_index(**{SERVICE_PATH: """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def create(self):
                    with self._lock:
                        self._note()

                def update(self):
                    with self._lock:
                        self._note()

                def _note(self):
                    self.n += 1
        """})
        (cls,) = index.classes
        assert cls.methods["_note"].entry_held == frozenset({"_lock"})

    def test_guarded_by_comment_scan(self):
        index = build_index(**{SERVICE_PATH: """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = "idle"  # repro-lint: guarded-by=_lock
        """})
        (cls,) = index.classes
        assert cls.guarded_by == {"state": "_lock"}


class TestRPL011GuardedFields:
    def test_detects_lock_free_read_of_guarded_field(self):
        findings = lint(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def bump(self):
                    with self._lock:
                        self.total += 1

                def peek(self):
                    return self.total
            """
        )
        assert codes(findings) == ["RPL011"]
        assert "without holding `self._lock`" in findings[0].message
        assert "guarded-by" in findings[0].message

    def test_allows_consistent_discipline(self):
        findings = lint(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def bump(self):
                    with self._lock:
                        self.total += 1

                def peek(self):
                    with self._lock:
                        return self.total
            """
        )
        assert findings == []

    def test_init_writes_are_exempt(self):
        # Construction happens-before publication; only the post-init
        # lock-free read is a race.  (Covered by the violation fixture:
        # the `__init__` write itself is never reported.)
        findings = lint(
            """
            import threading

            class Quiet:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def reset(self):
                    with self._lock:
                        self.total = 0
            """
        )
        assert findings == []

    def test_self_synchronized_types_exempt(self):
        findings = lint(
            """
            import queue
            import threading

            class Pump:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._inbox = queue.Queue()

                def push(self, item):
                    with self._lock:
                        self._inbox.put_nowait(item)

                def take_nowait(self):
                    return self._inbox.get_nowait()
            """
        )
        assert findings == []

    def test_declared_guard_enforced_without_locked_writes(self):
        findings = lint(
            """
            import threading

            class Declared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = "idle"  # repro-lint: guarded-by=_lock

                def peek(self):
                    return self.state
            """
        )
        assert codes(findings) == ["RPL011"]
        assert "declared `guarded-by=_lock`" in findings[0].message

    def test_declared_guard_must_name_a_real_lock(self):
        findings = lint(
            """
            import threading

            class Bad:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = "idle"  # repro-lint: guarded-by=_mutex
            """
        )
        assert codes(findings) == ["RPL011"]
        assert "names no lock" in findings[0].message

    def test_disagreeing_writes_infer_nothing(self):
        # Writes under different locks: the intersection is empty, so
        # the rule stays silent rather than guessing a guard.
        findings = lint(
            """
            import threading

            class Mixed:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.n = 0

                def one(self):
                    with self._a:
                        self.n += 1

                def two(self):
                    with self._b:
                        self.n += 1
            """
        )
        assert findings == []

    def test_guard_inferred_through_entry_held_helper(self):
        # The write sits in a helper that only runs with the lock held
        # at entry — the read in `peek` still races.
        findings = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.evicted = 0

                def evict(self):
                    with self._lock:
                        self._note()

                def _note(self):
                    self.evicted += 1

                def peek(self):
                    return self.evicted
            """
        )
        assert codes(findings) == ["RPL011"]
        assert "self.evicted" in findings[0].message


class TestRPL012LockOrder:
    def test_detects_in_class_inversion(self):
        findings = lint(
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            return 1

                def backward(self):
                    with self._b:
                        with self._a:
                            return 2
            """
        )
        assert codes(findings) == ["RPL012"]
        message = findings[0].message
        assert "lock-order cycle" in message
        assert "Pair._a" in message and "Pair._b" in message

    def test_allows_one_global_order(self):
        findings = lint(
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            return 1

                def also_forward(self):
                    with self._a:
                        with self._b:
                            return 2
            """
        )
        assert findings == []

    def test_reentrant_holds_are_not_an_ordering(self):
        findings = lint(
            """
            import threading

            class Reentrant:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            return 1
            """
        )
        assert findings == []

    def test_detects_cross_module_cycle(self, tmp_path):
        # api holds its lock and calls into the registry; the registry
        # holds its lock and calls back — neither file alone is wrong.
        api = textwrap.dedent(
            """
            import threading

            from repro.service.regfix import Registry

            class Api:
                def __init__(self, registry: "Registry"):
                    self._lock = threading.Lock()
                    self.registry = registry

                def poke(self):
                    with self._lock:
                        return 0

                def submit(self):
                    with self._lock:
                        return self.registry.create()
            """
        )
        reg = textwrap.dedent(
            """
            import threading

            from repro.service.apifix import Api

            class Registry:
                def __init__(self, owner: "Api"):
                    self._lock = threading.Lock()
                    self.owner = owner

                def create(self):
                    with self._lock:
                        return 1

                def evict(self):
                    with self._lock:
                        self.owner.poke()
            """
        )
        pkg = tmp_path / "src" / "repro" / "service"
        pkg.mkdir(parents=True)
        (pkg / "apifix.py").write_text(api)
        (pkg / "regfix.py").write_text(reg)
        engine = LintEngine(root=tmp_path)
        result = engine.lint_paths([tmp_path / "src"])
        assert codes(result.findings) == ["RPL012"]
        message = result.findings[0].message
        assert "Api._lock" in message and "Registry._lock" in message
        assert "via the call at" in message

    def test_call_through_helper_contributes_edges(self):
        # submit holds `_a` and calls a helper that takes `_b`; shut
        # takes them the other way around — a cycle through one call.
        findings = lint(
            """
            import threading

            class Chain:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def submit(self):
                    with self._a:
                        self._record()

                def _record(self):
                    with self._b:
                        return 1

                def shut(self):
                    with self._b:
                        with self._a:
                            return 2
            """
        )
        assert codes(findings) == ["RPL012"]


class TestRPL013BlockingUnderLock:
    def test_detects_fsync_append_under_lock(self):
        findings = lint(
            """
            import threading

            from repro.resilience.atomic import durable_append_text

            class Journal:
                def __init__(self, path):
                    self._lock = threading.Lock()
                    self.path = path

                def append(self, line):
                    with self._lock:
                        return durable_append_text(self.path, line)
            """
        )
        assert codes(findings) == ["RPL013"]
        assert "durable_append_text" in findings[0].message
        assert "fsync" in findings[0].message

    def test_detects_sleep_and_queue_get_under_lock(self):
        findings = lint(
            """
            import queue
            import threading
            import time

            class Pump:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._inbox = queue.Queue()

                def wait_one(self):
                    with self._lock:
                        time.sleep(0.1)
                        return self._inbox.get()
            """
        )
        assert codes(findings) == ["RPL013", "RPL013"]
        assert "a sleep" in findings[0].message
        assert "Queue.get" in findings[1].message

    def test_detects_blocking_in_entry_held_helper(self):
        findings = lint(
            """
            import os
            import threading

            class Journal:
                def __init__(self):
                    self._lock = threading.Lock()

                def append(self, fd):
                    with self._lock:
                        self._flush(fd)

                def _flush(self, fd):
                    os.fsync(fd)
            """
        )
        assert codes(findings) == ["RPL013"]
        assert "held at method entry" in findings[0].message

    def test_allows_blocking_outside_the_critical_section(self):
        findings = lint(
            """
            import os
            import threading

            class Journal:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.appends = 0

                def append(self, fd):
                    with self._lock:
                        self.appends += 1
                    os.fsync(fd)
            """
        )
        assert findings == []

    def test_nonblocking_queue_calls_pass(self):
        findings = lint(
            """
            import queue
            import threading

            class Pump:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._inbox = queue.Queue()

                def push(self, item):
                    with self._lock:
                        self._inbox.put_nowait(item)
            """
        )
        assert findings == []

    def test_out_of_scope_paths_unchecked(self):
        findings = lint(
            """
            import threading
            import time

            class Pacer:
                def __init__(self):
                    self._lock = threading.Lock()

                def tick(self):
                    with self._lock:
                        time.sleep(0.1)
            """,
            path="src/repro/core/fixture.py",
        )
        assert findings == []


class TestConcurrencySuppressions:
    VIOLATION = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0

            def bump(self):
                with self._lock:
                    self.total += 1

            def peek(self):
                return self.total{comment}
    """

    def test_suppression_with_rationale_silences(self):
        findings = lint(self.VIOLATION.format(
            comment="  # repro-lint: disable=RPL011 -- metrics snapshot"
                    " tolerates a stale read"
        ))
        assert findings == []

    def test_multi_code_suppression_audits_unmatched_code(self):
        findings = lint(self.VIOLATION.format(
            comment="  # repro-lint: disable=RPL011,RPL012 -- stale read"
                    " is fine here"
        ))
        assert codes(findings) == ["RPL000"]
        assert "RPL012 matched no finding" in findings[0].message

    def test_suppression_without_rationale_is_audited(self):
        findings = lint(self.VIOLATION.format(
            comment="  # repro-lint: disable=RPL011"
        ))
        assert codes(findings) == ["RPL000"]
        assert "missing rationale" in findings[0].message
