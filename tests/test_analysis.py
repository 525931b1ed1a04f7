"""Diversity metrics and instrumented convergence traces."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import trace_parallel_sa
from repro.analysis.diversity import (
    distinct_fraction,
    kendall_tau_distance,
    mean_pairwise_kendall,
    positional_entropy,
)
from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance


class TestKendallTau:
    def test_identity_is_zero(self):
        a = np.arange(8)
        assert kendall_tau_distance(a, a) == 0.0

    def test_reverse_is_one(self):
        a = np.arange(8)
        assert kendall_tau_distance(a, a[::-1]) == 1.0

    def test_symmetry(self, rng):
        a, b = rng.permutation(12), rng.permutation(12)
        assert kendall_tau_distance(a, b) == pytest.approx(
            kendall_tau_distance(b, a)
        )

    def test_single_swap(self):
        a = np.arange(5)
        b = np.array([1, 0, 2, 3, 4])
        assert kendall_tau_distance(a, b) == pytest.approx(2 / 20)

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            a, b = rng.permutation(7), rng.permutation(7)
            pos_a = np.argsort(a)
            pos_b = np.argsort(b)
            disc = 0
            for i in range(7):
                for j in range(i + 1, 7):
                    if (pos_a[i] - pos_a[j]) * (pos_b[i] - pos_b[j]) < 0:
                        disc += 1
            expected = 2 * disc / (7 * 6)
            assert kendall_tau_distance(a, b) == pytest.approx(expected)

    @given(n=st.integers(1, 2))
    def test_tiny_inputs(self, n):
        a = np.arange(n)
        assert kendall_tau_distance(a, a) == 0.0

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            kendall_tau_distance(np.arange(3), np.arange(4))


class TestPopulationMetrics:
    def test_identical_population_zero_diversity(self):
        pop = np.tile(np.arange(10), (20, 1))
        assert positional_entropy(pop) == 0.0
        assert mean_pairwise_kendall(pop) == 0.0
        assert distinct_fraction(pop) == pytest.approx(1 / 20)

    def test_random_population_high_diversity(self, rng):
        pop = np.argsort(rng.random((64, 12)), axis=1)
        assert positional_entropy(pop) > 0.5
        assert mean_pairwise_kendall(pop) > 0.3
        assert distinct_fraction(pop) == 1.0

    def test_entropy_bounded(self, rng):
        pop = np.argsort(rng.random((100, 8)), axis=1)
        h = positional_entropy(pop)
        assert 0.0 <= h <= 1.0

    def test_sampled_pairs_stable(self, rng):
        pop = np.argsort(rng.random((50, 10)), axis=1)
        a = mean_pairwise_kendall(pop, max_pairs=150, seed=1)
        b = mean_pairwise_kendall(pop, max_pairs=150, seed=2)
        assert abs(a - b) < 0.1

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            positional_entropy(np.arange(5))
        with pytest.raises(ValueError):
            mean_pairwise_kendall(np.arange(5))
        with pytest.raises(ValueError):
            distinct_fraction(np.arange(5))


class TestConvergenceTrace:
    @pytest.fixture(scope="class")
    def traces(self):
        inst = biskup_instance(20, 0.4, 1)
        base = dict(iterations=150, grid_size=2, block_size=32, seed=5)
        t_async = trace_parallel_sa(inst, ParallelSAConfig(**base))
        t_sync = trace_parallel_sa(
            inst, ParallelSAConfig(variant="sync", **base)
        )
        return t_async, t_sync

    def test_shapes(self, traces):
        t, _ = traces
        assert t.generations == 150
        assert t.best.shape == t.mean_energy.shape == (150,)
        assert t.diversity.size == t.diversity_generations.size

    def test_best_monotone(self, traces):
        for t in traces:
            assert np.all(np.diff(t.best) <= 1e-9)

    def test_best_not_worse_than_mean(self, traces):
        for t in traces:
            assert np.all(t.best <= t.mean_energy + 1e-9)

    def test_acceptance_rate_decreases_with_cooling(self, traces):
        t, _ = traces
        early = t.acceptance_rate[:30].mean()
        late = t.acceptance_rate[-30:].mean()
        assert late < early

    def test_temperature_follows_schedule(self, traces):
        t, _ = traces
        assert t.temperature[0] == pytest.approx(t.meta["t0"])
        assert np.all(np.diff(t.temperature) <= 1e-12)

    def test_sync_collapses_diversity(self, traces):
        t_async, t_sync = traces
        # The defining premature-convergence signature: the synchronous
        # broadcast collapses ensemble diversity far below the async level.
        assert t_sync.final_diversity() < t_async.final_diversity()

    def test_matches_production_driver(self):
        # The instrumented driver must reproduce the production result
        # exactly (same kernels, same RNG stream).
        from repro.core.parallel_sa import parallel_sa

        inst = biskup_instance(15, 0.6, 2)
        cfg = ParallelSAConfig(iterations=100, grid_size=2, block_size=16,
                               seed=9)
        prod = parallel_sa(inst, replace(cfg, record_history=True))
        trace = trace_parallel_sa(inst, cfg)
        assert trace.best.tolist() == prod.history.tolist()
        assert trace.best[-1] == prod.objective

    def test_summary_mentions_variant(self, traces):
        t_async, t_sync = traces
        assert "async" in t_async.summary()
        assert "sync" in t_sync.summary()


@settings(max_examples=12, deadline=None)
@given(
    problem=st.sampled_from(["cdd", "ucddcp"]),
    n=st.integers(5, 30),
    variant=st.sampled_from(["async", "sync", "domain"]),
    init=st.sampled_from(["random", "vshape"]),
    use_texture=st.booleans(),
    final_polish=st.booleans(),
    position_refresh=st.integers(1, 10),
    device_profile=st.sampled_from(["gt560m", "k20"]),
    seed=st.integers(0, 2**16),
)
def test_trace_is_the_production_run(
    problem, n, variant, init, use_texture, final_polish, position_refresh,
    device_profile, seed,
):
    # The trace observes the production driver: its best-ever curve is the
    # solve's history and its modeled time is the solve's, for every
    # config knob that changes the trajectory or the timing.
    inst = (biskup_instance(n, 0.4, 1) if problem == "cdd"
            else ucddcp_instance(n, 1))
    cfg = ParallelSAConfig(
        iterations=25, grid_size=2, block_size=16, seed=seed,
        variant=variant, init=init, use_texture=use_texture,
        final_polish=final_polish, position_refresh=position_refresh,
        device_profile=device_profile,
    )
    trace = trace_parallel_sa(inst, cfg)
    result = parallel_sa(inst, replace(cfg, record_history=True))
    assert np.array_equal(trace.best, result.history)
    assert trace.meta["modeled_device_time_s"] == result.modeled_device_time_s


class TestDomainTrace:
    def test_domain_variant_traced(self):
        inst = biskup_instance(12, 0.4, 1)
        t = trace_parallel_sa(
            inst,
            ParallelSAConfig(iterations=60, grid_size=1, block_size=24,
                             seed=2, variant="domain"),
        )
        assert t.variant == "domain"
        assert np.all(np.diff(t.best) <= 1e-9)


class TestTraceEdgeCases:
    def test_empty_diversity_final(self):
        from repro.analysis.convergence import ConvergenceTrace

        t = ConvergenceTrace(
            variant="async",
            best=np.array([1.0]),
            mean_energy=np.array([1.0]),
            acceptance_rate=np.array([0.5]),
            temperature=np.array([1.0]),
            diversity_generations=np.array([]),
            diversity=np.array([]),
        )
        assert t.final_diversity() == 0.0
        assert t.generations == 1
