"""The runtime lock-order sanitizer (``repro.lint.sanitizer``).

The static fixture in ``test_lint_concurrency.py`` seeds a two-lock
inversion that RPL012 flags from the AST; here the *same shape* is
executed under instrumented locks and must raise at runtime — single
threaded, deterministically, before anything can actually deadlock.
Also covers the dispatcher shutdown contract: ``stop``/``drain`` never
hold a lock across ``Thread.join``.
"""

import ast
import threading
import time
from pathlib import Path

import pytest

from repro.lint import sanitizer
from repro.lint.index import ProjectIndex
from repro.lint.model import SourceFile
from repro.lint.sanitizer import (
    HeldWhileBlockingError,
    LockInversionError,
    SanitizedCondition,
    SanitizedLock,
    SanitizedRLock,
)
from repro.service.queue import JobDispatcher


@pytest.fixture
def monitor():
    """A clean acquisition graph before and after each test."""
    sanitizer.monitor.reset()
    yield sanitizer.monitor
    sanitizer.monitor.reset()


@pytest.fixture
def sanitized(monitor):
    """The sanitizer installed over the service/pool modules.

    Under ``REPRO_TSAN=1`` the session fixture already installed it;
    then this is a no-op and teardown leaves it installed.
    """
    already = sanitizer.installed()
    if not already:
        sanitizer.install()
    yield sanitizer
    if not already:
        sanitizer.uninstall()


def make_locks(*labels):
    return tuple(
        SanitizedLock(threading.Lock(), label) for label in labels
    )


class TestLockOrder:
    def test_consistent_order_is_silent(self, monitor):
        a, b = make_locks("A", "B")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert (("A", "B")) in monitor.snapshot_edges()

    def test_seeded_inversion_raises(self, monitor):
        # The runtime twin of the RPL012 fixture: A->B observed, then
        # B->A attempted.  Single-threaded — the sanitizer turns a
        # deadlock-in-waiting into an immediate, located exception.
        a, b = make_locks("A", "B")
        with a:
            with b:
                pass
        with pytest.raises(LockInversionError) as excinfo:
            with b:
                with a:
                    pass
        message = str(excinfo.value)
        assert "lock-order inversion" in message
        assert "A" in message and "B" in message
        assert "first seen" in message

    def test_three_lock_cycle_detected_transitively(self, monitor):
        a, b, c = make_locks("A", "B", "C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(LockInversionError):
            with c:
                with a:
                    pass

    def test_rlock_reentry_is_not_an_ordering(self, monitor):
        lock = SanitizedRLock(threading.RLock(), "R")
        with lock:
            with lock:
                pass
        assert monitor.snapshot_edges() == {}

    def test_trylock_failure_records_nothing(self, monitor):
        (a,) = make_locks("A")
        owner = threading.Thread(target=a._real.acquire)
        owner.start()
        owner.join()
        assert a.acquire(blocking=False) is False
        a._real.release()
        with a:
            pass

    def test_disjoint_threads_build_one_graph(self, monitor):
        # Thread 1 observes A->B; the main thread's B->A attempt must
        # still trip — orderings are global, not per-thread.
        a, b = make_locks("A", "B")

        def forward():
            with a:
                with b:
                    pass

        worker = threading.Thread(target=forward)
        worker.start()
        worker.join()
        with pytest.raises(LockInversionError):
            with b:
                with a:
                    pass


class TestHeldWhileBlocking:
    def test_join_under_lock_raises(self, monitor):
        (a,) = make_locks("A")
        worker = sanitizer._SanitizedThread(target=lambda: None)
        worker.start()
        with a:
            with pytest.raises(HeldWhileBlockingError) as excinfo:
                worker.join()
        assert "Thread.join" in str(excinfo.value)
        worker.join()

    def test_join_without_lock_is_silent(self, monitor):
        worker = sanitizer._SanitizedThread(target=lambda: None)
        worker.start()
        worker.join()

    def test_condition_wait_releases_the_hold(self, monitor):
        cond = SanitizedCondition(threading.Condition(), "CV")
        worker = sanitizer._SanitizedThread(target=lambda: None)
        worker.start()

        def check_then_wait():
            # Inside wait() the lock is released: a join here must not
            # count the condition as held.
            monitor.check_blocking("probe", "here")
            return True

        with cond:
            with pytest.raises(HeldWhileBlockingError):
                monitor.check_blocking("probe", "here")
            cond.wait_for(check_then_wait, timeout=1.0)
        worker.join()


class TestInstall:
    def test_install_wraps_service_locks(self, sanitized):
        import repro.service.jobs as jobs

        lock = jobs.threading.Lock()
        assert isinstance(lock, SanitizedLock)
        assert "jobs" not in type(jobs.threading.Event()).__module__

    def test_uninstall_restores_real_binding(self, monitor):
        if sanitizer.installed():
            pytest.skip("REPRO_TSAN session: leave instrumentation on")
        import repro.service.jobs as jobs

        sanitizer.install()
        sanitizer.uninstall()
        assert jobs.threading is threading

    def test_stdlib_threading_module_is_untouched(self, sanitized):
        assert not isinstance(threading.Lock(), SanitizedLock)

    def test_every_locked_module_is_a_target(self):
        # A module whose classes build a Lock/RLock/Condition must be in
        # TARGET_MODULES, or REPRO_TSAN=1 never instruments its locks.
        src = Path(__file__).resolve().parent.parent / "src"
        sources = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            sources.append(SourceFile(text, str(path), ast.parse(text)))
        locked = {
            cls.module for cls in ProjectIndex.build(sources).classes
            if cls.lock_attrs and not cls.module.startswith("repro.lint")
        }
        assert locked, "the index found no locked class at all"
        assert locked <= set(sanitizer.TARGET_MODULES)


class TestDispatcherShutdown:
    """`stop`/`drain` never hold a lock across `Thread.join`."""

    @staticmethod
    def run_jobs(n, shutdown):
        done = []

        def runner(job, dispatch, seq):
            done.append((seq, job))

        dispatcher = JobDispatcher(runner=runner, workers=2, queue_cap=n)
        dispatcher.start()
        for i in range(n):
            assert dispatcher.try_enqueue(i)
        deadline = time.monotonic() + 10.0
        while len(done) < n and time.monotonic() < deadline:
            time.sleep(0.01)
        leaked = shutdown(dispatcher)
        assert leaked == 0
        assert dispatcher.alive_workers() == 0
        return sorted(done)

    def test_stop_holds_no_lock_across_join(self, sanitized):
        done = self.run_jobs(4, lambda d: d.stop())
        assert done == [(i, i) for i in range(4)]

    def test_drain_holds_no_lock_across_join(self, sanitized):
        done = self.run_jobs(4, lambda d: d.drain(grace_s=5.0))
        assert done == [(i, i) for i in range(4)]

    def test_instrumented_run_matches_uninstrumented(self, monitor):
        # The sanitizer observes; it must not change results.
        if sanitizer.installed():
            pytest.skip("REPRO_TSAN session: leave instrumentation on")
        plain = self.run_jobs(6, lambda d: d.stop())
        sanitizer.install()
        try:
            instrumented = self.run_jobs(6, lambda d: d.stop())
        finally:
            sanitizer.uninstall()
        assert instrumented == plain
