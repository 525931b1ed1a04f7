"""The process-pool subsystem: sharding bit-identity, batch isolation,
parallel work-unit runs, and the pool knob validation.

The headline contract (ISSUE/docs/parallel.md): for a fixed seed,
``backend="multiprocess"`` returns best fitness, best sequence and history
bit-identical to ``backend="vectorized"`` for any worker count.
"""

import multiprocessing as mp
import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.core.engine.backends import MultiprocessBackend, create_backend
from repro.core.engine.config import check_workers
from repro.core.solver import CDDSolver, UCDDCPSolver, solve_many, solver_for
from repro.core.threshold import ThresholdAcceptingConfig, threshold_accepting
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.pool.executor import ProcessPool, WorkerCrashError
from repro.pool.sharding import plan_shards
from repro.resilience.faults import FaultPlan, parse_fault
from repro.resilience.runner import ResilientRunner, RetryPolicy, WorkUnit

SA_FAST = dict(iterations=60, grid_size=4, block_size=32, seed=7,
               record_history=True)
DPSO_FAST = dict(iterations=40, grid_size=4, block_size=32, seed=7,
                 record_history=True)


@pytest.fixture
def cdd():
    return biskup_instance(20, 0.4, 1)


@pytest.fixture
def ucd():
    return ucddcp_instance(10, 1)


def _solve_mp(solver, method, workers, **kw):
    """A multiprocess solve with the cpu-count warning silenced (the test
    container has one core; oversubscription is the point here)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solver.solve(method, backend="multiprocess", workers=workers,
                            **kw)


class TestShardingDeterminism:
    """Same seed => identical best fitness/sequence/history, any workers."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sa_matches_vectorized(self, cdd, workers):
        ref = CDDSolver(cdd).solve("parallel_sa", backend="vectorized",
                                   **SA_FAST)
        r = _solve_mp(CDDSolver(cdd), "parallel_sa", workers, **SA_FAST)
        assert r.objective == ref.objective
        assert np.array_equal(r.best_sequence, ref.best_sequence)
        assert np.array_equal(r.history, ref.history)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_dpso_matches_vectorized(self, cdd, workers):
        ref = CDDSolver(cdd).solve("parallel_dpso", backend="vectorized",
                                   **DPSO_FAST)
        r = _solve_mp(CDDSolver(cdd), "parallel_dpso", workers, **DPSO_FAST)
        assert r.objective == ref.objective
        assert np.array_equal(r.best_sequence, ref.best_sequence)
        assert np.array_equal(r.history, ref.history)

    def test_sa_domain_variant_matches(self, cdd):
        kw = dict(SA_FAST, variant="domain")
        ref = CDDSolver(cdd).solve("parallel_sa", backend="vectorized", **kw)
        r = _solve_mp(CDDSolver(cdd), "parallel_sa", 2, **kw)
        assert r.objective == ref.objective
        assert np.array_equal(r.best_sequence, ref.best_sequence)
        assert np.array_equal(r.history, ref.history)

    def test_ucddcp_matches(self, ucd):
        ref = UCDDCPSolver(ucd).solve("parallel_sa", backend="vectorized",
                                      **SA_FAST)
        r = _solve_mp(UCDDCPSolver(ucd), "parallel_sa", 2, **SA_FAST)
        assert r.objective == ref.objective
        assert np.array_equal(r.best_sequence, ref.best_sequence)

    def test_matches_gpusim_too(self, cdd):
        # gpusim and vectorized are trajectory-identical, so multiprocess
        # must match the modeled device as well -- no timings though.
        ref = CDDSolver(cdd).solve("parallel_sa", backend="gpusim", **SA_FAST)
        r = _solve_mp(CDDSolver(cdd), "parallel_sa", 2, **SA_FAST)
        assert r.objective == ref.objective
        assert np.array_equal(r.best_sequence, ref.best_sequence)
        assert r.modeled_device_time_s is None

    def test_params_record_backend_and_workers(self, cdd):
        r = _solve_mp(CDDSolver(cdd), "parallel_sa", 2, **SA_FAST)
        assert r.params["backend"] == "multiprocess"
        assert r.params["workers"] == 2

    def test_spawn_context_matches(self, cdd):
        # Payloads are spawn-safe by design; run one shard plan under the
        # spawn start method to prove it.
        ref = CDDSolver(cdd).solve("parallel_sa", backend="vectorized",
                                   **SA_FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            backend = MultiprocessBackend(workers=2, context="spawn")
            r = CDDSolver(cdd).solve("parallel_sa", backend=backend, **SA_FAST)
        assert r.objective == ref.objective
        assert np.array_equal(r.best_sequence, ref.best_sequence)


class TestUnshardableFallback:
    def test_sync_sa_warns_and_matches(self, cdd):
        kw = dict(SA_FAST, variant="sync")
        ref = CDDSolver(cdd).solve("parallel_sa", backend="vectorized", **kw)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            r = CDDSolver(cdd).solve("parallel_sa", backend="multiprocess",
                                     workers=2, **kw)
        assert any("cannot be sharded" in str(w.message) for w in rec)
        assert r.objective == ref.objective
        assert np.array_equal(r.history, ref.history)
        assert r.params["workers"] == 1

    @pytest.mark.parametrize("coupling", ["ring", "coupled"])
    def test_coupled_dpso_falls_back(self, cdd, coupling):
        kw = dict(DPSO_FAST, coupling=coupling)
        ref = CDDSolver(cdd).solve("parallel_dpso", backend="vectorized", **kw)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            r = CDDSolver(cdd).solve("parallel_dpso", backend="multiprocess",
                                     workers=2, **kw)
        assert any("cannot be sharded" in str(w.message) for w in rec)
        assert r.objective == ref.objective
        assert np.array_equal(r.best_sequence, ref.best_sequence)


class TestWorkersKnob:
    def test_workers_without_multiprocess_rejected(self, cdd):
        with pytest.raises(ValueError, match="multiprocess"):
            CDDSolver(cdd).solve("parallel_sa", backend="vectorized",
                                 workers=2, iterations=2, grid_size=1,
                                 block_size=4)

    def test_workers_alongside_backend_instance_rejected(self, cdd):
        with pytest.raises(ValueError, match="backend instance"):
            CDDSolver(cdd).solve(
                "parallel_sa", backend=MultiprocessBackend(), workers=2,
                iterations=2, grid_size=1, block_size=4,
            )

    def test_check_workers_validation(self):
        check_workers(None)
        check_workers(1)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            check_workers(0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            check_workers(-3)
        ncpu = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
            check_workers(ncpu + 1)

    def test_backend_ctor_validates_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            MultiprocessBackend(workers=0)

    def test_runner_ctor_validates_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ResilientRunner(workers=0)

    def test_create_backend_by_name(self):
        backend = create_backend("multiprocess")
        assert isinstance(backend, MultiprocessBackend)


class TestDeviceFaultPlanRefused:
    """A device FaultPlan counts launches in one process; shard processes
    would each count on a copy, so a transient fault could never clear."""

    @pytest.mark.parametrize("backend", ["multiprocess", "distributed"])
    def test_create_backend_refuses_plan(self, backend):
        plan = FaultPlan([parse_fault("launch:3:transient")])
        with pytest.raises(ValueError, match="--inject-pool-fault"):
            create_backend(backend, fault_plan=plan)

    def test_runner_refuses_plan_before_any_unit(self):
        plan = FaultPlan([parse_fault("launch:3:transient")])
        with pytest.raises(ValueError, match="--inject-pool-fault"):
            ResilientRunner(fault_plan=plan, backend="multiprocess")

    def test_cli_exits_2(self, capsys):
        from repro.cli import main

        rc = main(["experiment", "table2", "--scale", "smoke",
                   "--backend", "multiprocess", "--checkpoint-dir", "none",
                   "--inject-fault", "launch:3:transient"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--inject-pool-fault" in captured.err
        assert "Average" not in captured.out  # no unit ran


class TestShardPlan:
    def test_even_split(self):
        plan = plan_shards(4, 32, workers=2)
        assert plan.blocks == (2, 2)
        assert plan.row_offsets == (0, 64)

    def test_uneven_split_front_loads(self):
        plan = plan_shards(5, 10, workers=2)
        assert plan.blocks == (3, 2)
        assert plan.row_offsets == (0, 30)

    def test_workers_capped_at_grid(self):
        plan = plan_shards(2, 16, workers=8)
        assert len(plan) == 2

    def test_unshardable_single_shard(self):
        with pytest.warns(RuntimeWarning, match="cannot be sharded"):
            plan = plan_shards(4, 32, workers=4, shardable=False,
                               algorithm="x")
        assert plan.blocks == (4,)
        assert plan.row_offsets == (0,)


class TestSolveMany:
    KW = dict(backend="vectorized", iterations=15, grid_size=2, block_size=8,
              seed=3)

    def test_results_in_input_order_and_match_serial(self):
        instances = [biskup_instance(10, h, 1) for h in (0.2, 0.4, 0.6)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            items = solve_many(instances, "parallel_sa", workers=2, **self.KW)
        assert [it.index for it in items] == [0, 1, 2]
        for inst, item in zip(instances, items):
            assert item.ok
            serial = solver_for(inst).solve("parallel_sa", **self.KW)
            assert item.result.objective == serial.objective
            assert np.array_equal(item.result.best_sequence,
                                  serial.best_sequence)

    def test_error_isolation(self):
        instances = [biskup_instance(10, 0.4, 1), object(),
                     biskup_instance(10, 0.6, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            items = solve_many(instances, "parallel_sa", workers=2, **self.KW)
        assert [it.ok for it in items] == [True, False, True]
        bad = items[1]
        assert bad.error is not None
        assert bad.error.error_type == "TypeError"
        assert "no solver" in bad.error.error


class TestProcessPool:
    def test_worker_crash_is_isolated(self):
        pool = ProcessPool(workers=1)
        tasks = [(_crash_task, ()), (_ok_task, (5,))]
        results = dict()
        for index, status, value in pool.imap_unordered(tasks):
            results[index] = (status, value)
        assert results[0][0] == "error"
        assert isinstance(results[0][1], WorkerCrashError)
        assert results[1] == ("ok", 5)


def _crash_task():
    os.kill(os.getpid(), signal.SIGKILL)


def _ok_task(v):
    return v


class TestParallelRunUnits:
    def _runner(self, tmp_path, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return ResilientRunner(
                policy=RetryPolicy(max_retries=1, backoff_base_s=0.0,
                                   backoff_max_s=0.0),
                checkpoint_dir=tmp_path, **kw,
            )

    def test_outcomes_ordered_and_checkpointed(self, tmp_path):
        runner = self._runner(tmp_path, workers=2)
        units = [WorkUnit(key=f"u{i}", run=_unit_payload(i))
                 for i in range(5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = runner.run_units(units, runner.checkpoint_for("study"))
        assert [o.key for o in report.outcomes] == [u.key for u in units]
        assert all(o.ok for o in report.outcomes)
        assert [o.payload["v"] for o in report.outcomes] == list(range(5))

    def test_failed_unit_does_not_crash_batch(self, tmp_path):
        runner = self._runner(tmp_path, workers=2)
        units = [
            WorkUnit(key="good", run=_unit_payload(1)),
            WorkUnit(key="bad", run=_unit_raises),
            WorkUnit(key="also_good", run=_unit_payload(2)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = runner.run_units(units, runner.checkpoint_for("study"))
        statuses = {o.key: o.status for o in report.outcomes}
        assert statuses == {"good": "ok", "bad": "failed", "also_good": "ok"}
        failed = [o for o in report.outcomes if o.status == "failed"][0]
        assert failed.error_kind == "fatal"
        assert "boom" in failed.error

    def test_interrupt_marks_rest_skipped(self, tmp_path):
        runner = self._runner(tmp_path, workers=1)
        units = [
            WorkUnit(key="done", run=_unit_payload(1)),
            WorkUnit(key="ctrlc", run=_unit_interrupts),
            WorkUnit(key="never", run=_unit_payload(3)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = runner.run_units(units, runner.checkpoint_for("study"))
        assert report.interrupted
        statuses = {o.key: o.status for o in report.outcomes}
        assert statuses == {"done": "ok", "ctrlc": "skipped",
                            "never": "skipped"}

    def test_kill_resume_replays_bit_identically(self, tmp_path):
        """Mid-batch interrupt with workers=2, then resume: checkpointed
        payloads replay verbatim and the final report matches a clean run."""
        units = [WorkUnit(key=f"u{i}", run=_unit_payload(i))
                 for i in range(4)] + [
            WorkUnit(key="ctrlc", run=_unit_interrupts)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            first = self._runner(tmp_path, workers=2)
            rep1 = first.run_units(units, first.checkpoint_for("study"))
            assert rep1.interrupted
            completed_keys = {o.key for o in rep1.completed}
            assert completed_keys  # something finished before the interrupt

            # "Resume": the interrupting unit now succeeds (the transient
            # condition cleared), everything checkpointed replays verbatim.
            resumed_units = units[:-1] + [
                WorkUnit(key="ctrlc", run=_unit_payload(99))]
            second = self._runner(tmp_path, workers=2, resume=True)
            rep2 = second.run_units(resumed_units,
                                    second.checkpoint_for("study"))
        assert not rep2.interrupted
        assert all(o.ok for o in rep2.outcomes)
        for o in rep2.outcomes:
            if o.key in completed_keys:
                assert o.from_checkpoint
        assert [o.payload["v"] for o in rep2.outcomes[:-1]] == list(range(4))

    def test_parallel_matches_serial_outcomes(self, tmp_path):
        units = [WorkUnit(key=f"u{i}", run=_unit_payload(i))
                 for i in range(6)]
        serial = ResilientRunner().run_units(units)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = ResilientRunner(workers=3).run_units(units)
        assert ([(o.key, o.status, o.payload) for o in serial.outcomes]
                == [(o.key, o.status, o.payload) for o in parallel.outcomes])

    def test_transient_retries_happen_inside_the_unit_process(self, tmp_path):
        # The whole retry loop runs in the child: a transient failure that
        # clears on the second attempt reports attempts=2.
        marker = tmp_path / "tries"
        unit = WorkUnit(key="flaky", run=_FlakyUnit(marker))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runner = self._runner(tmp_path, workers=2)
            report = runner.run_units([unit, WorkUnit(key="pad",
                                                      run=_unit_payload(0))])
        flaky = report.outcomes[0]
        assert flaky.ok
        assert flaky.attempts == 2

    def test_fault_plan_counters_are_per_unit(self, tmp_path):
        # Every unit counts launches from the plan as the parent holds it,
        # whichever child runs it and whatever ran there before: launch #1
        # fails in each unit and its in-process retry (launch #2) passes.
        plan = FaultPlan([parse_fault("launch:1:transient")])
        units = [WorkUnit(key=f"u{i}", run=_unit_launches(plan, i))
                 for i in range(6)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runner = self._runner(tmp_path, workers=2, fault_plan=plan)
            report = runner.run_units(units)
        assert [(o.key, o.status, o.attempts, o.payload)
                for o in report.outcomes] == [
            (f"u{i}", "ok", 2, {"v": i}) for i in range(6)
        ]
        assert plan.counts()["launch"] == 0  # the parent's plan is untouched


def _unit_payload(v):
    def run():
        return {"v": v}
    return run


def _unit_launches(plan, v):
    def run():
        plan.record("launch")
        return {"v": v}
    return run


def _unit_raises():
    raise ValueError("boom")


def _unit_interrupts():
    # Give sibling workers a head start so at least one completes first.
    time.sleep(0.2)
    raise KeyboardInterrupt


class _FlakyUnit:
    """Fails with a transient device error once, then succeeds (the file
    marker survives across retry attempts inside one worker process)."""

    def __init__(self, marker):
        self.marker = marker

    def __call__(self):
        from repro.gpusim.errors import DeviceUnavailableError

        if not self.marker.exists():
            self.marker.write_text("tried")
            raise DeviceUnavailableError("first attempt fails")
        return {"v": "recovered"}


class TestBatchedTA:
    def test_walkers_one_is_default_and_deterministic(self, cdd):
        a = threshold_accepting(cdd, ThresholdAcceptingConfig(
            iterations=200, seed=5, record_history=True))
        b = threshold_accepting(cdd, ThresholdAcceptingConfig(
            iterations=200, seed=5, record_history=True, walkers=1))
        assert a.objective == b.objective
        assert np.array_equal(a.best_sequence, b.best_sequence)
        assert np.array_equal(a.history, b.history)

    def test_more_walkers_never_worse_start(self, cdd):
        # Walker 0 of a multi-walker run follows the single-walker
        # trajectory, so extra walkers can only improve the best.
        one = threshold_accepting(cdd, ThresholdAcceptingConfig(
            iterations=150, seed=5))
        many = threshold_accepting(cdd, ThresholdAcceptingConfig(
            iterations=150, seed=5, walkers=8))
        assert many.objective <= one.objective
        assert many.evaluations == 151 * 8

    def test_walkers_validated(self):
        with pytest.raises(ValueError, match="walkers"):
            ThresholdAcceptingConfig(walkers=0)

    def test_ucddcp_walkers(self, ucd):
        r = threshold_accepting(ucd, ThresholdAcceptingConfig(
            iterations=100, seed=2, walkers=4, record_history=True))
        assert r.history[-1] == r.objective
        assert np.all(np.diff(r.history) <= 0)


class TestForkSafety:
    def test_fork_start_method_available(self):
        # The parallel run_units mode inherits closures by fork; the
        # suite's platforms must provide it (Linux CI and dev boxes do).
        assert "fork" in mp.get_all_start_methods()
