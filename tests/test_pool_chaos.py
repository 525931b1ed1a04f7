"""Transport chaos matrix: every pool fault kind at every pool width.

The headline robustness claim (ISSUE acceptance): for each fault kind in
{kill, hang, corrupt-payload} and each worker count in {1, 2, 4}, a
supervised pool absorbs a transient injection — the victim is retried,
every task yields its true value, and the surviving results are
bit-identical to an undisturbed run.  The CLI drill proves the same thing
end to end through ``repro solve --inject-pool-fault``.
"""

import io
import contextlib
import re
import warnings

import pytest

from repro.pool.executor import ProcessPool
from repro.pool.faults import POOL_FAULT_KINDS, PoolFaultPlan, PoolFaultSpec


def _square(v):
    return v * v


def _pool(**kw):
    """A ProcessPool with the 1-core oversubscription warning silenced
    (the test container has one CPU; multi-worker pools are the point)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ProcessPool(**kw)


class TestChaosMatrix:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("kind", POOL_FAULT_KINDS)
    def test_transient_fault_absorbed(self, kind, workers):
        plan = PoolFaultPlan([PoolFaultSpec(kind, 1)])
        pool = _pool(workers=workers, task_retries=1,
                     task_timeout=5.0, fault_plan=plan)
        tasks = [(_square, (v,)) for v in range(5)]
        results = {i: (s, v) for i, s, v in pool.imap_unordered(tasks)}
        assert results == {i: ("ok", i * i) for i in range(5)}
        assert plan.fired == [(kind, 1, 1)]

    @pytest.mark.parametrize("kind", POOL_FAULT_KINDS)
    def test_repeat_fault_quarantines_only_the_victim(self, kind):
        from repro.pool.errors import PoisonTaskError

        plan = PoolFaultPlan([PoolFaultSpec(kind, 2, repeat=True)])
        pool = _pool(workers=2, task_retries=1, task_timeout=0.5,
                     fault_plan=plan)
        tasks = [(_square, (v,)) for v in range(4)]
        results = {i: (s, v) for i, s, v in pool.imap_unordered(tasks)}
        assert isinstance(results[2][1], PoisonTaskError)
        expected_outcome = {
            "kill": "crash", "hang": "timeout",
            "corrupt-payload": "integrity",
        }[kind]
        attempts = results[2][1].report.attempts
        assert [a.outcome for a in attempts] == [expected_outcome] * 2
        for i in (0, 1, 3):
            assert results[i] == ("ok", i * i)


class TestCliChaosDrill:
    """The operator-facing drill: inject, retry, identical answer."""

    ARGS = ["solve", "cdd", "-n", "10", "-m", "parallel_sa", "-i", "40",
            "--backend", "multiprocess", "--workers", "2",
            "--grid", "4", "--block", "8"]

    def _solve(self, *extra):
        from repro.cli import main

        buf = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with contextlib.redirect_stdout(buf):
                rc = main(self.ARGS + list(extra))
        # Wall-clock is the one legitimately nondeterministic field.
        return rc, re.sub(r"\(wall [^)]*\)", "(wall -)", buf.getvalue())

    def test_injected_kill_retried_bit_identically(self):
        rc_clean, out_clean = self._solve()
        rc_chaos, out_chaos = self._solve(
            "--inject-pool-fault", "kill:1", "--task-retries", "1")
        assert rc_clean == rc_chaos == 0
        assert out_clean == out_chaos

    def test_supervision_flags_require_multiprocess(self, capsys):
        from repro.cli import main

        for extra in (["--task-timeout", "5"],
                      ["--inject-pool-fault", "kill:0"],
                      ["--task-retries", "2"]):
            rc = main(["solve", "cdd", "-n", "10", "-m", "parallel_sa",
                       "-i", "20"] + extra)
            assert rc == 2
            assert "requires --backend multiprocess" in capsys.readouterr().err

    def test_bad_pool_fault_spec_fails_fast(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--inject-pool-fault", "teleport:1"])
        assert excinfo.value.code == 2
        assert "pool fault" in capsys.readouterr().err
