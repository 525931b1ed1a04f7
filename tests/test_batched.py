"""Batched (ensemble) optimizers must agree elementwise with the scalar ones.

Exactness contract (see :mod:`repro.seqopt.batched`): on integer-valued
instances the compiled evaluator, the NumPy reference and the pure-Python
evaluator return *equal* floats -- no tolerance.  On fractional data the
compiled penalty sums run in sequence order, so they agree with the
reference to a relative ``FLOAT_RTOL`` (``tests/test_float_instances.py``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance
from repro.seqopt import compiled
from repro.seqopt.batched import (
    batched_cdd_from_gathered,
    batched_cdd_objective,
    batched_ucddcp_from_gathered,
    batched_ucddcp_objective,
    evaluate_cdd,
)
from repro.seqopt.cdd_linear import optimize_cdd_sequence
from repro.seqopt.pure_python import cdd_objective_py, ucddcp_objective_py
from repro.seqopt.ucddcp_linear import optimize_ucddcp_sequence
from tests.conftest import cdd_instances

#: Relative agreement of the compiled and NumPy paths on fractional data.
FLOAT_RTOL = 1e-12


def random_sequences(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.argsort(rng.random((count, n)), axis=1)


def reference_cdd(inst, seqs) -> np.ndarray:
    """The NumPy reference on explicitly gathered arrays."""
    return batched_cdd_from_gathered(
        inst.processing[seqs], inst.alpha[seqs], inst.beta[seqs],
        inst.due_date,
    )


def reference_ucddcp(inst, seqs) -> np.ndarray:
    return batched_ucddcp_from_gathered(
        inst.processing[seqs], inst.min_processing[seqs], inst.alpha[seqs],
        inst.beta[seqs], inst.gamma[seqs], inst.due_date,
    )


def pure_python_cdd(inst, seqs) -> list[float]:
    p, a, b = (x.tolist() for x in (inst.processing, inst.alpha, inst.beta))
    return [cdd_objective_py(p, a, b, inst.due_date, s.tolist()) for s in seqs]


def pure_python_ucddcp(inst, seqs) -> list[float]:
    arrs = (inst.processing, inst.min_processing, inst.alpha, inst.beta,
            inst.gamma)
    p, m, a, b, g = (x.tolist() for x in arrs)
    return [ucddcp_objective_py(p, m, a, b, g, inst.due_date, s.tolist())
            for s in seqs]


_DEGENERATE = ("random", "tied", "zero_alpha", "zero_beta", "extreme_d")


@st.composite
def integer_cdd(draw, max_n: int = 1000):
    """Integer-valued CDD instances up to ``max_n`` jobs, with degenerate
    modes: tied processing times, all-zero alpha or beta, d = 0, d >= sum P."""
    n = draw(st.integers(1, max_n))
    mode = draw(st.sampled_from(_DEGENERATE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.integers(1, 21, n).astype(float)
    a = rng.integers(0, 11, n).astype(float)
    b = rng.integers(0, 16, n).astype(float)
    d = float(int(draw(st.floats(0.05, 1.0)) * p.sum()))
    if mode == "tied":
        p[:] = rng.integers(1, 21)
        a[:] = a[0]
    elif mode == "zero_alpha":
        a[:] = 0.0
    elif mode == "zero_beta":
        b[:] = 0.0
    elif mode == "extreme_d":
        d = draw(st.sampled_from((0.0, float(p.sum()), float(p.sum() + 7))))
    return CDDInstance(p, a, b, d, name=f"int_cdd_{mode}_n{n}")


@st.composite
def integer_ucddcp(draw, max_n: int = 1000):
    """Integer-valued UCDDCP instances up to ``max_n`` jobs (d >= sum P is
    the family's own constraint), with the CDD degenerate modes plus
    M = P (nothing compressible) and gamma = 0 (compression free)."""
    n = draw(st.integers(1, max_n))
    mode = draw(st.sampled_from(_DEGENERATE + ("m_eq_p", "zero_gamma")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.integers(1, 21, n).astype(float)
    if mode == "tied":
        p[:] = rng.integers(1, 21)
    m = np.floor(p * rng.uniform(0.0, 1.0, n)).clip(1.0, None)
    a = rng.integers(0, 11, n).astype(float)
    b = rng.integers(0, 16, n).astype(float)
    g = rng.integers(0, 13, n).astype(float)
    d = float(p.sum() + rng.integers(0, 31))
    if mode == "m_eq_p":
        m = p.copy()
    elif mode == "zero_alpha":
        a[:] = 0.0
    elif mode == "zero_beta":
        b[:] = 0.0
    elif mode == "zero_gamma":
        g[:] = 0.0
    elif mode == "extreme_d":
        d = float(p.sum())
    return UCDDCPInstance(p, m, a, b, g, d, name=f"int_ucddcp_{mode}_n{n}")


class TestBatchedCDD:
    @given(inst=integer_cdd(), seed=st.integers(0, 10_000))
    def test_matches_scalar(self, inst, seed):
        seqs = random_sequences(inst.n, 16, seed)
        batched = batched_cdd_objective(inst, seqs)
        # compiled == NumPy reference == pure Python, bit for bit.
        assert np.array_equal(batched, reference_cdd(inst, seqs))
        assert batched.tolist() == pure_python_cdd(inst, seqs)
        scalar = np.array(
            [optimize_cdd_sequence(inst, s).objective for s in seqs]
        )
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    @given(inst=cdd_instances(min_n=2, max_n=6))
    def test_positions_match_scalar(self, inst):
        seqs = random_sequences(inst.n, 8, 3)
        _, completions, r = batched_cdd_from_gathered(
            inst.processing[seqs],
            inst.alpha[seqs],
            inst.beta[seqs],
            inst.due_date,
            return_completions=True,
        )
        for i, s in enumerate(seqs):
            sched = optimize_cdd_sequence(inst, s)
            assert int(r[i]) == sched.meta["due_date_position"]
            np.testing.assert_allclose(completions[i], sched.completion)

    def test_shape_validation(self, paper_cdd):
        with pytest.raises(ValueError, match="shape"):
            batched_cdd_objective(paper_cdd, np.zeros((4, 3), dtype=int))

    def test_single_row(self, paper_cdd):
        obj = batched_cdd_objective(paper_cdd, np.arange(5)[None, :])
        assert obj.shape == (1,)
        assert obj[0] == 81.0

    def test_large_ensemble_consistency(self, paper_cdd):
        seqs = random_sequences(5, 500, 11)
        batched = batched_cdd_objective(paper_cdd, seqs)
        # Spot-check a sample against the scalar algorithm.
        for i in range(0, 500, 61):
            scalar = optimize_cdd_sequence(paper_cdd, seqs[i]).objective
            assert batched[i] == pytest.approx(scalar)


class TestBatchedUCDDCP:
    @given(inst=integer_ucddcp(), seed=st.integers(0, 10_000))
    def test_matches_scalar(self, inst, seed):
        seqs = random_sequences(inst.n, 16, seed)
        batched = batched_ucddcp_objective(inst, seqs)
        assert np.array_equal(batched, reference_ucddcp(inst, seqs))
        assert batched.tolist() == pure_python_ucddcp(inst, seqs)
        scalar = np.array(
            [optimize_ucddcp_sequence(inst, s).objective for s in seqs]
        )
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_paper_example(self, paper_ucddcp):
        obj = batched_ucddcp_objective(paper_ucddcp, np.arange(5)[None, :])
        assert obj[0] == 77.0

    def test_shape_validation(self, paper_ucddcp):
        with pytest.raises(ValueError, match="shape"):
            batched_ucddcp_objective(paper_ucddcp, np.zeros((4, 2), dtype=int))

    def test_batched_is_row_independent(self, paper_ucddcp):
        # Evaluating a row alone or inside a big batch gives the same value.
        seqs = random_sequences(5, 64, 5)
        full = batched_ucddcp_objective(paper_ucddcp, seqs)
        for i in (0, 17, 63):
            solo = batched_ucddcp_objective(paper_ucddcp, seqs[i : i + 1])
            assert solo[0] == pytest.approx(full[i])


class TestBatchedExtremes:
    def test_many_duplicate_rows(self, paper_cdd):
        # Identical rows must produce identical objectives (pure function).
        seqs = np.tile(np.arange(5), (64, 1))
        out = batched_cdd_objective(paper_cdd, seqs)
        assert np.all(out == out[0]) and out[0] == 81.0

    def test_single_job_instances(self):
        from repro.problems.cdd import CDDInstance

        inst = CDDInstance([7], [3], [2], 4.0)
        out = batched_cdd_objective(inst, np.zeros((5, 1), dtype=int))
        # C = 7, T = 3, beta = 2 -> 6 for every row.
        np.testing.assert_allclose(out, 6.0)

    def test_wide_batch(self, paper_ucddcp, rng):
        seqs = np.argsort(rng.random((2000, 5)), axis=1)
        out = batched_ucddcp_objective(paper_ucddcp, seqs)
        assert out.shape == (2000,)
        assert out.min() >= 0


@pytest.fixture(params=["compiled", "numpy"])
def evaluator_path(request, monkeypatch):
    """Run a test on the compiled path and on the NumPy fallback."""
    if request.param == "compiled":
        if compiled.LIB is None:
            pytest.skip("no compiled build on this host")
    else:
        monkeypatch.setattr(compiled, "LIB", None)
    return request.param


class TestIndexRange:
    """Job indices outside ``[0, n)`` raise instead of wrapping."""

    @pytest.fixture
    def inst(self):
        from repro.instances.biskup import biskup_instance

        return biskup_instance(10, 0.4, 1)

    @pytest.mark.parametrize("bad", [-1, 10, 2**32 + 1])
    def test_out_of_range_raises(self, inst, evaluator_path, bad):
        seqs = np.tile(np.arange(10), (3, 1))
        seqs[1, 4] = bad
        with pytest.raises(IndexError, match="outside"):
            batched_cdd_objective(inst, seqs)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_int32_kernel_path_raises(self, inst, evaluator_path, bad):
        seqs = np.tile(np.arange(10, dtype=np.int32), (2, 1))
        seqs[1, 9] = bad
        with pytest.raises(IndexError, match="outside"):
            evaluate_cdd(seqs, inst.processing, inst.alpha, inst.beta,
                         inst.due_date)

    def test_ucddcp_out_of_range_raises(self, paper_ucddcp, evaluator_path):
        seqs = np.array([[0, 1, 2, 3, 5]], dtype=np.int32)
        with pytest.raises(IndexError, match="outside"):
            batched_ucddcp_objective(paper_ucddcp, seqs)

    def test_float_matrix_rejected(self, inst, evaluator_path):
        seqs = np.tile(np.arange(10, dtype=float), (2, 1))
        with pytest.raises(IndexError, match="integers"):
            batched_cdd_objective(inst, seqs)

    def test_any_layout_and_dtype_is_cast(self, inst, evaluator_path):
        seqs = random_sequences(10, 6, 2)  # int64 from argsort
        want = reference_cdd(inst, seqs[:, ::-1])
        assert np.array_equal(batched_cdd_objective(inst, seqs[:, ::-1]), want)
        fortran = np.asfortranarray(seqs[:, ::-1].astype(np.int16))
        assert np.array_equal(batched_cdd_objective(inst, fortran), want)
