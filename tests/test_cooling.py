"""Cooling schedule and initial-temperature estimation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import cooling
from repro.core.cooling import ExponentialCooling, estimate_initial_temperature
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.problems.cdd import CDDInstance
from repro.seqopt import compiled


class TestExponentialCooling:
    def test_paper_schedule(self):
        c = ExponentialCooling(t0=100.0, mu=0.88)
        assert c.temperature(0) == 100.0
        assert c.temperature(1) == pytest.approx(88.0)
        assert c.temperature(10) == pytest.approx(100.0 * 0.88**10)

    def test_schedule_array(self):
        c = ExponentialCooling(t0=10.0, mu=0.5)
        np.testing.assert_allclose(c.schedule(4), [10.0, 5.0, 2.5, 1.25])

    def test_monotone_decreasing(self):
        sched = ExponentialCooling(t0=1.0, mu=0.88).schedule(100)
        assert np.all(np.diff(sched) < 0)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            ExponentialCooling(t0=1.0, mu=1.0)
        with pytest.raises(ValueError):
            ExponentialCooling(t0=1.0, mu=0.0)
        with pytest.raises(ValueError):
            ExponentialCooling(t0=1.0, mu=-0.1)

    def test_rejects_negative_t0(self):
        with pytest.raises(ValueError):
            ExponentialCooling(t0=-5.0)

    def test_rejects_negative_iteration(self):
        with pytest.raises(ValueError):
            ExponentialCooling(t0=1.0).temperature(-1)


class TestInitialTemperature:
    def test_is_fitness_spread(self, paper_cdd):
        t0 = estimate_initial_temperature(paper_cdd, samples=2000)
        assert t0 > 0
        # Spread of objectives for n=5 is bounded by the worst schedule.
        assert t0 < 1000

    def test_deterministic_with_rng(self, paper_cdd):
        a = estimate_initial_temperature(
            paper_cdd, 500, np.random.default_rng(1)
        )
        b = estimate_initial_temperature(
            paper_cdd, 500, np.random.default_rng(1)
        )
        assert a == b

    def test_single_job_zero_spread(self):
        inst = CDDInstance([5], [1], [1], 10.0)
        assert estimate_initial_temperature(inst, samples=100) == 0.0

    def test_ucddcp_supported(self, paper_ucddcp):
        t0 = estimate_initial_temperature(paper_ucddcp, samples=500)
        assert t0 > 0

    def test_rejects_tiny_sample(self, paper_cdd):
        with pytest.raises(ValueError):
            estimate_initial_temperature(paper_cdd, samples=1)

    def test_scales_with_penalties(self):
        rng = np.random.default_rng(0)
        p = rng.integers(1, 20, 12).astype(float)
        a = rng.integers(1, 10, 12).astype(float)
        b = rng.integers(1, 15, 12).astype(float)
        small = CDDInstance(p, a, b, float(0.5 * p.sum()))
        big = CDDInstance(p, 10 * a, 10 * b, float(0.5 * p.sum()))
        t_small = estimate_initial_temperature(small, 1000)
        t_big = estimate_initial_temperature(big, 1000)
        assert t_big == pytest.approx(10 * t_small, rel=1e-9)


def _one_shot_reference(instance, samples, rng):
    """The estimate as one ``(samples, n)`` draw, argsort and score."""
    from repro.core.engine.adapters import adapter_for

    seqs = np.argsort(rng.random((samples, instance.n)), axis=1)
    return float(np.std(adapter_for(instance).batched_objective(seqs)))


class TestStreamedEstimate:
    """The chunked estimate equals one large draw, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 120), samples=st.integers(2, 1500),
        chunk=st.sampled_from((1, 7, 64, 512, 4096)),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(("cdd", "ucddcp")),
    )
    @example(n=1000, samples=5000, chunk=512, seed=0, family="cdd")
    @example(n=500, samples=5000, chunk=512, seed=1, family="ucddcp")
    def test_chunk_size_does_not_change_t0_or_rng(
        self, n, samples, chunk, seed, family
    ):
        inst = (biskup_instance(n, 0.4, 1) if family == "cdd"
                else ucddcp_instance(n, 1))
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cooling, "T0_CHUNK_ROWS", chunk)
            t0 = estimate_initial_temperature(inst, samples, gen)
        ref = _one_shot_reference(inst, samples, ref_gen)
        assert t0.hex() == ref.hex()
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_numpy_fallback_gives_the_same_t0(self, monkeypatch):
        inst = biskup_instance(200, 0.4, 2)
        with_c = estimate_initial_temperature(inst, 3000,
                                              np.random.default_rng(4))
        monkeypatch.setattr(compiled, "LIB", None)
        without = estimate_initial_temperature(inst, 3000,
                                               np.random.default_rng(4))
        assert with_c.hex() == without.hex()

    @pytest.mark.skipif(compiled.LIB is None,
                        reason="no compiled build on this host")
    def test_transient_memory_does_not_grow_with_samples(self):
        inst = biskup_instance(1000, 0.4, 1)
        estimate_initial_temperature(inst, 2)  # warm imports and caches
        peaks = []
        for samples in (5000, 20000):
            tracemalloc.start()
            try:
                estimate_initial_temperature(inst, samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        mb = 1024 * 1024
        assert peaks[0] < 16 * mb
        # 15000 more samples add only their 8-byte objectives (120 KB).
        assert abs(peaks[1] - peaks[0]) < 0.5 * mb
