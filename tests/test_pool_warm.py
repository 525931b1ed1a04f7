"""Warm pool workers: one child per slot for the length of a batch.

Within one ``ProcessPool`` batch each of the ``workers`` slots forks one
child that runs task after task.  A child is replaced only after a
crash, a timeout, an integrity failure or an interrupt; an ordinary
in-task exception keeps it.  These tests pin which pid runs which task,
that no child outlives its batch however the batch ends, how a child
leaves (exit 0 on EOF or an idle Ctrl-C), and that ``solve_many`` on
warm children equals the serial in-process loop field for field.
"""

import multiprocessing as mp
import os
import signal
import time
import warnings
from multiprocessing.connection import wait

import pytest

from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.pool.batch import solve_many
from repro.pool.errors import PayloadIntegrityError
from repro.pool.executor import ChildSupervisor, ProcessPool
from repro.pool.faults import PoolFaultPlan, parse_pool_fault
from repro.pool.worker import solve_one

#: batch-small's solve shape (the layered benchmark): 2 x 32 chains,
#: 60 generations.
BATCH_KW = dict(iterations=60, grid_size=2, block_size=32, seed=11)


@pytest.fixture(autouse=True)
def _quiet_oversubscription():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _pid(_):
    return os.getpid()


def _pid_or_raise(i):
    if i == 2:
        raise ValueError("in-task failure")
    return os.getpid()


def _interrupt(_):
    raise KeyboardInterrupt


def _nap(_):
    time.sleep(0.05)
    return os.getpid()


def _pids(pool, fn, count):
    return [value for _, value in pool.map(fn, [(i,) for i in range(count)])]


class TestReuse:
    def test_one_worker_runs_every_task_in_one_child(self):
        pids = _pids(ProcessPool(workers=1), _pid, 6)
        assert len(set(pids)) == 1
        assert os.getpid() not in pids

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_clean_batch_forks_at_most_workers_children(self, workers):
        pids = _pids(ProcessPool(workers=workers), _nap, 12)
        assert len(set(pids)) <= workers

    def test_in_task_exception_keeps_the_child(self):
        results = ProcessPool(workers=1).map(
            _pid_or_raise, [(i,) for i in range(5)]
        )
        assert results[2][0] == "error"
        assert isinstance(results[2][1], ValueError)
        pids = {value for status, value in results if status == "ok"}
        assert len(pids) == 1

    @pytest.mark.parametrize("kind", ["kill", "hang", "corrupt-payload"])
    def test_abnormal_attempt_replaces_the_child(self, kind):
        # The fault hits task 2's first attempt; its retry and every task
        # after it run in the replacement child.
        pool = ProcessPool(
            workers=1, task_retries=1, task_timeout=2.0,
            fault_plan=PoolFaultPlan([parse_pool_fault(f"{kind}:2")]),
        )
        results = pool.map(_pid, [(i,) for i in range(5)])
        assert all(status == "ok" for status, _ in results)
        pids = [value for _, value in results]
        assert pids[0] == pids[1]
        assert pids[2] == pids[3] == pids[4]
        assert pids[2] != pids[0]

    def test_abnormal_attempt_without_retries_surfaces_and_moves_on(self):
        pool = ProcessPool(
            workers=1,
            fault_plan=PoolFaultPlan([parse_pool_fault("corrupt-payload:1")]),
        )
        results = pool.map(_pid, [(i,) for i in range(3)])
        assert isinstance(results[1][1], PayloadIntegrityError)
        assert results[0][0] == results[2][0] == "ok"
        assert results[0][1] != results[2][1]


class TestNoChildOutlivesItsBatch:
    def test_after_map(self):
        ProcessPool(workers=2).map(_pid, [(i,) for i in range(6)])
        assert mp.active_children() == []

    def test_after_consumer_break(self):
        tasks = [(_nap, (i,)) for i in range(8)]
        for _ in ProcessPool(workers=2).imap_unordered(tasks):
            break
        assert mp.active_children() == []

    def test_after_child_interrupt(self):
        pool = ProcessPool(workers=2)
        with pytest.raises(KeyboardInterrupt):
            pool.map(_interrupt, [(i,) for i in range(4)])
        assert mp.active_children() == []

    def test_after_consumer_exception(self):
        tasks = [(_nap, (i,)) for i in range(8)]
        with pytest.raises(RuntimeError):
            for _ in ProcessPool(workers=2).imap_unordered(tasks):
                raise RuntimeError("consumer failed")
        assert mp.active_children() == []


class TestChildExit:
    def _idle_child(self):
        supervisor = ChildSupervisor(mp.get_context(), tasks=[(_pid, (0,))])
        supervisor.start(0, "task0")
        ready = wait(supervisor.pipes, 10.0)
        [(fut, status, _)] = supervisor.collect(ready)
        assert status == "ok" and len(supervisor) == 0
        return supervisor, fut

    def test_stop_exits_zero(self, capfd):
        supervisor, fut = self._idle_child()
        supervisor.close()
        assert fut.process.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err

    def test_eof_exits_zero(self, capfd):
        supervisor, fut = self._idle_child()
        fut.connection.close()  # as if the parent had died
        fut.process.join(10.0)
        supervisor.close()
        assert fut.process.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err

    def test_idle_ctrl_c_exits_zero_quietly(self, capfd):
        supervisor, fut = self._idle_child()
        os.kill(fut.process.pid, signal.SIGINT)
        fut.process.join(10.0)
        supervisor.close()
        assert fut.process.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err


def _batch_small_instances():
    """16 instances at batch-small's sizes: 8 CDD and 8 UCDDCP."""
    instances = []
    for n in (10, 20):
        instances += [biskup_instance(n, h, k)
                      for h in (0.2, 0.4, 0.6, 0.8) for k in (1,)]
        instances += [ucddcp_instance(n, k) for k in (1, 2, 3, 4)]
    return instances


class TestSolveMany:
    def test_matches_the_serial_solve_one_loop(self):
        instances = _batch_small_instances()
        assert len(instances) == 16
        serial = [solve_one(inst, "parallel_sa", dict(BATCH_KW))
                  for inst in instances]
        items = solve_many(instances, "parallel_sa", workers=2, **BATCH_KW)
        assert all(item.ok for item in items)
        assert [item.index for item in items] == list(range(16))
        for item, ref in zip(items, serial):
            got = item.result
            assert got.objective == ref.objective
            assert got.best_sequence.tobytes() == ref.best_sequence.tobytes()
            assert got.evaluations == ref.evaluations

    def test_in_task_exception_stays_isolated(self):
        instances = _batch_small_instances()[:6]
        instances[2] = object()  # solver_for raises TypeError for it
        items = solve_many(instances, "parallel_sa", workers=2, **BATCH_KW)
        assert not items[2].ok
        assert items[2].error.error_type == "TypeError"
        assert items[2].error.host == "local"
        assert all(item.ok for i, item in enumerate(items) if i != 2)

    def test_crash_marks_only_its_instance(self):
        instances = _batch_small_instances()[:6]
        plan = PoolFaultPlan([parse_pool_fault("kill:0")])
        items = solve_many(instances, "parallel_sa", workers=2,
                           pool_faults=plan, **BATCH_KW)
        assert not items[0].ok
        assert items[0].error.error_type == "worker_crash"
        assert all(item.ok for item in items[1:])

    def test_crash_is_retried_in_a_new_child(self):
        instances = _batch_small_instances()[:6]
        plan = PoolFaultPlan([parse_pool_fault("kill:0")])
        items = solve_many(instances, "parallel_sa", workers=2,
                           pool_faults=plan, task_retries=1, **BATCH_KW)
        assert all(item.ok for item in items)
        assert plan.fired == [("kill", 0, 1)]

