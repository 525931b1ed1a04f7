"""Front-end parity: one child supervisor behind three front ends.

``ProcessPool.map`` (batch), ``SupervisedDispatch.run`` (service jobs)
and ``HostPool`` over a local ``repro agent`` (distributed) all run
their children through :class:`repro.pool.executor.ChildSupervisor`, so
every outcome must come back as the same ``(status, error class)`` on
all three: success, an in-task exception (never retried), a hard child
death, a hang past the watchdog deadline, and an exception the parent
cannot rebuild.  Retry recovery and poison quarantine are checked the
same way.  The dispatch-only contracts (cooperative cancel, prompt
watchdog reaps under an inherited SIGTERM handler) and the agent's
survival of an undecodable child message have their own tests.
"""

import multiprocessing as mp
import os
import signal
import threading
import time
import warnings

import pytest

from repro.pool.agent import spawn_local_agent
from repro.pool.dispatch import SupervisedDispatch
from repro.pool.errors import (
    PoisonTaskError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.pool.executor import ProcessPool
from repro.pool.hosts import HostPool
from repro.pool.net import HostSpec

#: Watchdog deadline shared by all three front ends (the agent enforces
#: it agent-side, the local front ends parent-side).
TASK_TIMEOUT_S = 0.5


class Picky(Exception):
    """Pickles fine in the child, but cannot be rebuilt in the parent:
    unpickling calls ``Picky(message)``, one argument short."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


# Module-level tasks: picklable by reference for the pool, the dispatch
# and the agent's TASK frames alike.
def _double(x):
    return 2 * x


def _count_then_raise(marker):
    with open(marker, "a") as fh:
        fh.write("run\n")
    raise ValueError("boom")


def _die(code):
    os._exit(code)


def _hang(seconds):
    time.sleep(seconds)


def _raise_picky():
    raise Picky(1, 2)


def _crash_once(marker, value):
    """Die on the first attempt, succeed on the next (a transient death)."""
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed\n")
        os._exit(13)
    return value


@pytest.fixture(scope="module")
def agent():
    proc, address = spawn_local_agent(workers=1, task_timeout=TASK_TIMEOUT_S)
    yield proc, address
    if proc.is_alive():
        proc.terminate()
    proc.join()


def _via_pool(_agent, fn, args, retries):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pool = ProcessPool(
            workers=1, task_timeout=TASK_TIMEOUT_S, task_retries=retries
        )
    return pool.map(fn, [args])[0]


def _via_dispatch(_agent, fn, args, retries):
    return SupervisedDispatch().run(
        fn, args, label="task0", task_timeout=TASK_TIMEOUT_S,
        task_retries=retries,
    )


def _via_hosts(agent, fn, args, retries):
    _, (host, port) = agent
    pool = HostPool([HostSpec(host, port, 1)], task_retries=retries)
    (_, status, value), = pool.imap_unordered([(fn, args)])
    return status, value


FRONT_ENDS = pytest.mark.parametrize(
    "run", [_via_pool, _via_dispatch, _via_hosts],
    ids=["pool", "dispatch", "hosts"],
)


@FRONT_ENDS
class TestOutcomeParity:
    def test_ok(self, agent, run):
        assert run(agent, _double, (21,), 0) == ("ok", 42)

    def test_in_task_exception_is_the_result_not_retried(
        self, agent, run, tmp_path
    ):
        marker = str(tmp_path / "runs")
        status, value = run(agent, _count_then_raise, (marker,), 1)
        assert (status, type(value)) == ("error", ValueError)
        with open(marker) as fh:
            assert fh.read().count("run") == 1

    def test_child_death(self, agent, run):
        status, value = run(agent, _die, (11,), 0)
        assert (status, type(value)) == ("error", WorkerCrashError)

    def test_hang_past_deadline(self, agent, run):
        status, value = run(agent, _hang, (30,), 0)
        assert (status, type(value)) == ("error", WorkerTimeoutError)

    def test_undecodable_exception(self, agent, run):
        status, value = run(agent, _raise_picky, (), 0)
        assert (status, type(value)) == ("error", WorkerCrashError)

    def test_retry_recovers_transient_death(self, agent, run, tmp_path):
        marker = str(tmp_path / "crashed")
        assert run(agent, _crash_once, (marker, 7), 1) == ("ok", 7)
        assert os.path.exists(marker)

    def test_repeated_death_is_quarantined(self, agent, run):
        status, value = run(agent, _die, (11,), 1)
        assert (status, type(value)) == ("error", PoisonTaskError)
        outcomes = [a.outcome for a in value.report.attempts]
        assert outcomes == ["crash", "crash"]


class TestAgentSurvivesUndecodableResult:
    def test_agent_serves_next_task(self):
        proc, (host, port) = spawn_local_agent(workers=1)
        try:
            pool = HostPool([HostSpec(host, port, 1)])
            (_, status, value), = pool.imap_unordered([(_raise_picky, ())])
            assert (status, type(value)) == ("error", WorkerCrashError)
            assert list(pool.imap_unordered([(_double, (4,))])) == [
                (0, "ok", 8)
            ]
            assert proc.is_alive()
        finally:
            proc.terminate()
            proc.join()


class TestDispatch:
    def test_cancel_reaps_running_child(self):
        dispatch = SupervisedDispatch()
        before = {p.pid for p in mp.active_children()}
        out = {}
        thread = threading.Thread(
            target=lambda: out.update(result=dispatch.run(_hang, (30,)))
        )
        thread.start()
        deadline = time.monotonic() + 10
        child = set()
        while not child and time.monotonic() < deadline:
            child = {p.pid for p in mp.active_children()} - before
            time.sleep(0.01)
        assert child, "the job's child never started"
        dispatch.cancel()
        thread.join(10)
        assert not thread.is_alive()
        assert out["result"] == ("cancelled", None)
        assert not child & {p.pid for p in mp.active_children()}
        # Cancellation also refuses every later job.
        assert dispatch.run(_double, (1,)) == ("cancelled", None)

    def test_watchdog_ignores_inherited_sigterm_handler(self):
        # `repro serve` installs a SIGTERM handler; children must not
        # inherit it, or every reap waits out the SIGKILL grace.
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            start = time.monotonic()
            status, value = SupervisedDispatch(term_grace_s=2.0).run(
                _hang, (30,), task_timeout=0.2
            )
            elapsed = time.monotonic() - start
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert (status, type(value)) == ("error", WorkerTimeoutError)
        assert elapsed < 1.0
