"""Failure injection: the system must fail loudly and stay consistent."""

import json

import numpy as np
import pytest

from repro.bestknown.store import BestKnownEntry, BestKnownStore
from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
from repro.gpusim.device import GEFORCE_GT_560M, Device
from repro.gpusim.errors import (
    CudaError,
    DeviceAllocationError,
    InvalidLaunchError,
)
from repro.gpusim.kernel import KernelCost, kernel
from repro.gpusim.launch import linear_config
from repro.instances.biskup import biskup_instance


class TestDeviceFailures:
    def test_oom_device_fails_cleanly(self):
        # A device too small for the SA working set: the driver must raise
        # a DeviceAllocationError, not corrupt anything.
        tiny = GEFORCE_GT_560M.with_overrides(global_mem_bytes=4 * 1024)
        inst = biskup_instance(100, 0.4, 1)
        with pytest.raises(DeviceAllocationError):
            parallel_sa(
                inst,
                ParallelSAConfig(iterations=10, grid_size=2, block_size=32,
                                 seed=0, device_spec=tiny),
            )

    def test_kernel_exception_leaves_clocks_consistent(self):
        dev = Device(seed=0)
        buf = dev.malloc(8)

        @kernel("boom", registers=8,
                cost=lambda ctx, b: KernelCost(1.0, 1.0))
        def boom(ctx, b):
            """Always raises."""
            raise RuntimeError("injected kernel fault")

        busy_before = dev.device_busy_until
        with pytest.raises(RuntimeError, match="injected"):
            dev.launch(boom, linear_config(32, 32), buf)
        # The failed launch was not enqueued; a subsequent good launch works.
        assert dev.device_busy_until == busy_before

        @kernel("ok", registers=8, cost=lambda ctx, b: KernelCost(1.0, 1.0))
        def ok(ctx, b):
            """Trivial kernel."""
            b.array[:] = 1.0

        dev.launch(ok, linear_config(32, 32), buf)
        assert np.all(dev.memcpy_dtoh(buf) == 1.0)

    def test_impossible_block_rejected_before_execution(self):
        dev = Device(seed=0)
        buf = dev.malloc(8)

        ran = []

        @kernel("greedy", registers=64,
                cost=lambda ctx, b: KernelCost(1.0, 1.0))
        def greedy(ctx, b):
            """Should never run (register file exhausted)."""
            ran.append(True)

        with pytest.raises(InvalidLaunchError):
            dev.launch(greedy, linear_config(1024, 1024), buf)
        assert not ran

    def test_oversized_shared_memory_rejected_before_execution(self):
        dev = Device(seed=0)
        buf = dev.malloc(8)
        ran = []

        @kernel("shared_hog", registers=8,
                cost=lambda ctx, b: KernelCost(1.0, 1.0),
                shared_mem=1024 * 1024)
        def shared_hog(ctx, b):
            """Should never run (shared memory exhausted)."""
            ran.append(True)

        with pytest.raises(CudaError):
            dev.launch(shared_hog, linear_config(32, 32), buf)
        assert not ran

    def test_fragmented_allocator_accounting(self):
        mem_bytes = 100 * 1024
        dev = Device(
            spec=GEFORCE_GT_560M.with_overrides(global_mem_bytes=mem_bytes),
            seed=0,
        )
        # Alloc/free churn must never leak accounted bytes.
        for round_ in range(20):
            bufs = [dev.malloc(512) for _ in range(8)]
            for b in bufs[::2]:
                b.free()
            extra = dev.malloc(1024)
            for b in bufs[1::2]:
                b.free()
            extra.free()
        assert dev.global_mem.used_bytes == 0


class TestStoreFailures:
    def test_corrupt_json_recovered(self, tmp_path):
        # A corrupted store must not kill the experiment run: the bad file
        # is moved aside (evidence preserved) and the store starts empty.
        path = tmp_path / "bestknown.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupted"):
            store = BestKnownStore(path)
        assert len(store) == 0
        backup = tmp_path / "bestknown.json.corrupt"
        assert backup.read_text() == "{not json"
        assert not path.exists()

    def test_missing_fields_recovered(self, tmp_path):
        path = tmp_path / "bestknown.json"
        path.write_text(json.dumps({"x": {"objective": 1.0}}))
        with pytest.warns(RuntimeWarning, match="corrupted"):
            store = BestKnownStore(path)
        assert len(store) == 0
        assert (tmp_path / "bestknown.json.corrupt").exists()

    @pytest.mark.parametrize("record", [
        {"objective": "abc", "method": "m"},
        {"objective": True, "method": "m"},
        {"objective": float("inf"), "method": "m"},
        {"objective": 1.0, "method": 7},
        {"objective": 1.0, "method": "m", "optimal": "yes"},
        {"objective": 1.0, "method": "m", "meta": [1]},
    ])
    def test_wrong_field_types_recovered(self, tmp_path, record):
        # Loading must catch what the next update() would trip over.
        path = tmp_path / "bestknown.json"
        path.write_text(json.dumps({"x": record}))
        with pytest.warns(RuntimeWarning, match="corrupted"):
            store = BestKnownStore(path)
        assert len(store) == 0
        assert (tmp_path / "bestknown.json.corrupt").exists()
        assert store.update("x", BestKnownEntry(1.0, "m"))

    def test_second_corruption_gets_numbered_backup(self, tmp_path):
        path = tmp_path / "bestknown.json"
        for _ in range(2):
            path.write_text("]")
            with pytest.warns(RuntimeWarning):
                BestKnownStore(path)
        assert (tmp_path / "bestknown.json.corrupt").exists()
        assert (tmp_path / "bestknown.json.corrupt1").exists()

    def test_recovered_store_saves_cleanly(self, tmp_path):
        from repro.bestknown.store import BestKnownEntry

        path = tmp_path / "bestknown.json"
        path.write_text("oops")
        with pytest.warns(RuntimeWarning):
            store = BestKnownStore(path)
        store.update("a", BestKnownEntry(1.0, "x"))
        store.save()
        assert BestKnownStore(path).get("a").objective == 1.0

    def test_save_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "bestknown.json"
        store = BestKnownStore(path)
        from repro.bestknown.store import BestKnownEntry

        store.update("a", BestKnownEntry(1.0, "x"))
        store.save()
        assert path.exists()

    def test_save_is_atomic_no_temp_residue(self, tmp_path):
        from repro.bestknown.store import BestKnownEntry

        path = tmp_path / "bestknown.json"
        store = BestKnownStore(path)
        store.update("a", BestKnownEntry(1.0, "x"))
        store.save()
        leftovers = [p for p in tmp_path.iterdir() if p.name != path.name]
        assert leftovers == []


class TestInjectedFaults:
    """Deterministic fault injection through the resilience layer."""

    def _study(self, store, runner):
        from repro.experiments.config import SCALES
        from repro.experiments.deviation import run_deviation_study

        return run_deviation_study("cdd", SCALES["smoke"], store,
                                   runner=runner)

    @pytest.fixture()
    def store(self, tmp_store_path):
        return BestKnownStore(tmp_store_path)

    def _runner(self, plan=None, **kwargs):
        from repro.resilience import ResilientRunner, RetryPolicy

        return ResilientRunner(
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.0,
                               backoff_max_s=0.0),
            fault_plan=plan,
            sleep=lambda s: None,
            **kwargs,
        )

    def test_transient_fault_retried_to_success(self, store):
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(op="launch", at=300, kind="transient")])
        clean = self._study(store, self._runner())
        faulted = self._study(store, self._runner(plan))

        report = faulted.report
        assert not report.failed
        retried = [o for o in report.completed if o.attempts > 1]
        assert len(retried) == 1 and retried[0].attempts == 2
        # The retried cell recomputes from the same seed: identical study.
        np.testing.assert_array_equal(clean.mean_deviation,
                                      faulted.mean_deviation)
        assert plan.fired == [("launch", 300, "transient")]

    def test_fatal_fault_fails_without_retry(self, store):
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(op="launch", at=300, kind="fatal")])
        study = self._study(store, self._runner(plan))

        report = study.report
        assert len(report.failed) == 1
        failed = report.failed[0]
        assert failed.attempts == 1  # fatal: no retry spent
        assert failed.error_kind == "fatal"
        assert "InvalidLaunchError" in failed.error
        # The rest of the table still renders, with the cell marked.
        out = study.render()
        assert "—" in out and failed.key in out
        assert np.isnan(study.mean_deviation).sum() == 1

    def test_oom_fault_is_fatal(self, store):
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(op="malloc", at=3, kind="oom")])
        study = self._study(store, self._runner(plan))
        assert len(study.report.failed) == 1
        assert study.report.failed[0].error_kind == "fatal"

    def test_resume_after_kill_bit_identical(self, store, tmp_path):
        from repro.resilience import FaultPlan, FaultSpec

        clean = self._study(store, self._runner())

        # Simulated Ctrl-C partway through the study: the "interrupt"
        # fault raises KeyboardInterrupt on the Nth launch.
        plan = FaultPlan([FaultSpec(op="launch", at=1200, kind="interrupt")])
        killed = self._study(
            store, self._runner(plan, checkpoint_dir=tmp_path)
        )
        assert killed.report.interrupted
        done_before = len(killed.report.completed)
        assert 0 < done_before < len(killed.report.outcomes)

        resumed = self._study(
            store, self._runner(checkpoint_dir=tmp_path, resume=True)
        )
        restored = [o for o in resumed.report.completed if o.from_checkpoint]
        assert len(restored) == done_before  # nothing recomputed
        np.testing.assert_array_equal(clean.mean_deviation,
                                      resumed.mean_deviation)
        assert clean.render() == resumed.render()

    def test_fault_parity_across_backends(self, store, tmp_store_path):
        """Launch-indexed faults fire identically on both backends.

        The driver issues the identical kernel pipeline on gpusim and
        vectorized, so a launch-indexed fault plan must fire at the same
        cumulative launch index on each.
        """
        from repro.resilience import FaultPlan, FaultSpec

        fired = {}
        for backend in ("gpusim", "vectorized"):
            plan = FaultPlan([FaultSpec(op="launch", at=500, kind="fatal")])
            study = self._study(
                BestKnownStore(tmp_store_path),
                self._runner(plan, backend=backend),
            )
            assert len(study.report.failed) == 1
            fired[backend] = (plan.fired, study.report.failed[0].key)
        assert fired["gpusim"] == fired["vectorized"]


class TestSolverInputFailures:
    def test_solver_rejects_bad_config_before_any_work(self, paper_cdd):
        from repro.core.solver import CDDSolver

        with pytest.raises(ValueError):
            CDDSolver(paper_cdd).solve("parallel_sa", iterations=-5)

    def test_nan_instance_rejected_at_construction(self):
        from repro.problems.cdd import CDDInstance

        with pytest.raises(ValueError):
            CDDInstance([1.0, float("inf")], [1, 1], [1, 1], 2.0)

    def test_mismatched_sequence_rejected(self, paper_cdd):
        from repro.seqopt.cdd_linear import optimize_cdd_sequence

        # A non-permutation silently indexes wrong data; the schedule layer
        # must catch it at validation time.
        from repro.problems.validation import ScheduleError, validate_schedule

        sched = optimize_cdd_sequence(paper_cdd, np.array([0, 0, 1, 2, 3]))
        with pytest.raises(ScheduleError):
            validate_schedule(paper_cdd, sched)
