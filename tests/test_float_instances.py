"""Non-integer instance data through the whole optimizer stack.

The benchmark instances are integral, but nothing in the theory requires
it; these tests drive fractional processing times, penalties and due dates
through the O(n) optimizers, the batched forms and the LP reference to
guard against integer-only assumptions and float-comparison traps (e.g.
the on-time job flipping to "tardy" under round-off).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance
from repro.seqopt.batched import batched_cdd_objective, batched_ucddcp_objective
from repro.seqopt.cdd_linear import optimize_cdd_sequence
from repro.seqopt.lp_reference import lp_optimize_sequence
from repro.seqopt.ucddcp_linear import optimize_ucddcp_sequence
from tests.test_batched import FLOAT_RTOL, reference_cdd, reference_ucddcp

finite_pos = st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)
finite_nonneg = st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)


@st.composite
def float_cdd(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    p = np.array([draw(finite_pos) for _ in range(n)])
    a = np.array([draw(finite_nonneg) for _ in range(n)])
    b = np.array([draw(finite_nonneg) for _ in range(n)])
    h = draw(st.floats(0.1, 1.5))
    return CDDInstance(p, a, b, float(h * p.sum()), name="float_cdd")


@st.composite
def float_ucddcp(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    p = np.array([draw(finite_pos) for _ in range(n)])
    frac = np.array([draw(st.floats(0.1, 1.0)) for _ in range(n)])
    m = np.maximum(p * frac, 1e-3)
    a = np.array([draw(finite_nonneg) for _ in range(n)])
    b = np.array([draw(finite_nonneg) for _ in range(n)])
    g = np.array([draw(finite_nonneg) for _ in range(n)])
    slack = draw(st.floats(0.0, 30.0))
    return UCDDCPInstance(p, m, a, b, g, float(p.sum() + slack),
                          name="float_ucddcp")


class TestFloatCDD:
    @given(inst=float_cdd())
    def test_matches_lp(self, inst):
        seq = np.arange(inst.n)
        ours = optimize_cdd_sequence(inst, seq)
        lp = lp_optimize_sequence(inst, seq)
        assert ours.objective == pytest.approx(lp.objective, abs=1e-5,
                                               rel=1e-6)

    @given(inst=float_cdd(min_n=2))
    def test_batched_matches_scalar(self, inst):
        rng = np.random.default_rng(0)
        seqs = np.argsort(rng.random((8, inst.n)), axis=1)
        batched = batched_cdd_objective(inst, seqs)
        # Compiled penalty sums run in sequence order, einsum's do not.
        np.testing.assert_allclose(batched, reference_cdd(inst, seqs),
                                   rtol=FLOAT_RTOL, atol=0)
        scalar = [optimize_cdd_sequence(inst, s).objective for s in seqs]
        np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=1e-9)

    @given(inst=float_cdd(min_n=2))
    def test_anchored_job_not_misclassified(self, inst):
        # The on-time job must carry zero penalty even under float anchors.
        s = optimize_cdd_sequence(inst, np.arange(inst.n))
        r = s.meta["due_date_position"]
        if r >= 1:
            e = max(0.0, inst.due_date - s.completion[r - 1])
            t = max(0.0, s.completion[r - 1] - inst.due_date)
            assert e + t < 1e-6 * max(1.0, inst.due_date)


class TestFloatUCDDCP:
    @given(inst=float_ucddcp())
    def test_matches_lp(self, inst):
        seq = np.arange(inst.n)
        ours = optimize_ucddcp_sequence(inst, seq)
        lp = lp_optimize_sequence(inst, seq)
        assert ours.objective == pytest.approx(lp.objective, abs=1e-5,
                                               rel=1e-6)

    @given(inst=float_ucddcp(min_n=2))
    def test_batched_matches_scalar(self, inst):
        rng = np.random.default_rng(1)
        seqs = np.argsort(rng.random((8, inst.n)), axis=1)
        batched = batched_ucddcp_objective(inst, seqs)
        np.testing.assert_allclose(batched, reference_ucddcp(inst, seqs),
                                   rtol=FLOAT_RTOL, atol=0)
        scalar = [optimize_ucddcp_sequence(inst, s).objective for s in seqs]
        np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=1e-9)

    @given(inst=float_ucddcp(min_n=2))
    def test_compression_bounds_respected(self, inst):
        s = optimize_ucddcp_sequence(inst, np.arange(inst.n))
        ub = inst.max_reduction[s.sequence]
        assert np.all(s.reduction >= -1e-12)
        assert np.all(s.reduction <= ub + 1e-9)
