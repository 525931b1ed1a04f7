"""Permutation operators: scalar and batched forms."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import permutation
from repro.gpusim.rng import DeviceRNG
from repro.permutation import (
    batched_one_point_crossover,
    batched_partial_fisher_yates,
    batched_random_swap,
    batched_sample_distinct,
    batched_two_point_crossover,
    one_point_crossover,
    partial_fisher_yates,
    random_swap,
    sample_distinct_positions,
    two_point_crossover,
)
from repro.seqopt import compiled


def is_perm(arr: np.ndarray) -> bool:
    return np.array_equal(np.sort(np.asarray(arr)), np.arange(len(arr)))


def random_perm_matrix(s: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.argsort(rng.random((s, n)), axis=1)


class TestScalarOperators:
    @given(n=st.integers(2, 30), seed=st.integers(0, 1000))
    def test_partial_fisher_yates_is_permutation(self, n, seed):
        rng = np.random.default_rng(seed)
        seq = rng.permutation(n)
        k = min(4, n)
        pos = sample_distinct_positions(rng, n, k)
        out = partial_fisher_yates(rng, seq, pos)
        assert is_perm(out)

    @given(n=st.integers(4, 30), seed=st.integers(0, 1000))
    def test_partial_fisher_yates_touches_only_positions(self, n, seed):
        rng = np.random.default_rng(seed)
        seq = rng.permutation(n)
        pos = sample_distinct_positions(rng, n, 3)
        out = partial_fisher_yates(rng, seq, pos)
        mask = np.ones(n, bool)
        mask[pos] = False
        assert np.array_equal(out[mask], seq[mask])

    def test_partial_fisher_yates_does_not_mutate_input(self, rng):
        seq = rng.permutation(10)
        before = seq.copy()
        partial_fisher_yates(rng, seq, np.array([0, 1, 2, 3]))
        assert np.array_equal(seq, before)

    @given(n=st.integers(2, 30), seed=st.integers(0, 500))
    def test_random_swap_swaps_exactly_two(self, n, seed):
        rng = np.random.default_rng(seed)
        seq = rng.permutation(n)
        out = random_swap(rng, seq)
        assert is_perm(out)
        assert (out != seq).sum() == 2

    def test_sample_distinct_guard(self, rng):
        with pytest.raises(ValueError):
            sample_distinct_positions(rng, 3, 4)

    @given(n=st.integers(2, 25), seed=st.integers(0, 500))
    def test_crossovers_produce_permutations(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.permutation(n), rng.permutation(n)
        assert is_perm(one_point_crossover(rng, x, y))
        assert is_perm(two_point_crossover(rng, x, y))

    def test_one_point_preserves_prefix(self):
        rng = np.random.default_rng(0)
        x = np.arange(10)
        y = np.arange(10)[::-1].copy()
        child = one_point_crossover(rng, x, y)
        # Some prefix of x is preserved verbatim.
        c = 1
        while c < 10 and np.array_equal(child[:c], x[:c]):
            c += 1
        assert c > 1

    def test_crossover_with_identical_parents_is_identity(self, rng):
        x = rng.permutation(12)
        assert np.array_equal(one_point_crossover(rng, x, x), x)
        assert np.array_equal(two_point_crossover(rng, x, x), x)


class TestBatchedSampling:
    @given(n=st.integers(4, 40), k=st.integers(1, 4),
           seed=st.integers(0, 200))
    def test_distinct_positions(self, n, k, seed):
        drng = DeviceRNG(seed)
        pos = batched_sample_distinct(drng, np.arange(32), n, k)
        assert pos.shape == (32, k)
        assert np.all(pos >= 0) and np.all(pos < n)
        for row in pos:
            assert len(set(row.tolist())) == k

    def test_guard(self):
        with pytest.raises(ValueError):
            batched_sample_distinct(DeviceRNG(0), np.arange(4), 3, 5)

    def test_uniform_coverage(self):
        counts = np.zeros(10)
        for seed in range(40):
            pos = batched_sample_distinct(
                DeviceRNG(seed), np.arange(100), 10, 4
            )
            counts += np.bincount(pos.ravel(), minlength=10)
        assert counts.min() > 0.8 * counts.mean()


class TestBatchedFisherYates:
    @given(seed=st.integers(0, 300))
    def test_valid_permutations(self, seed):
        drng = DeviceRNG(seed)
        x = random_perm_matrix(24, 12, seed)
        pos = batched_sample_distinct(drng, np.arange(24), 12, 4)
        out = batched_partial_fisher_yates(drng, np.arange(24), x, pos)
        for row in out:
            assert is_perm(row)

    def test_untouched_positions_preserved(self):
        drng = DeviceRNG(5)
        x = random_perm_matrix(16, 10, 5)
        pos = batched_sample_distinct(drng, np.arange(16), 10, 3)
        out = batched_partial_fisher_yates(drng, np.arange(16), x, pos)
        mask = np.ones_like(x, bool)
        mask[np.arange(16)[:, None], pos] = False
        assert np.array_equal(out[mask], x[mask])

    def test_out_parameter(self):
        drng = DeviceRNG(6)
        x = random_perm_matrix(8, 6, 6)
        pos = batched_sample_distinct(drng, np.arange(8), 6, 2)
        dst = np.zeros_like(x)
        ret = batched_partial_fisher_yates(
            drng, np.arange(8), x, pos, out=dst
        )
        assert ret is dst
        for row in dst:
            assert is_perm(row)

    def test_input_not_mutated(self):
        drng = DeviceRNG(7)
        x = random_perm_matrix(8, 6, 7)
        before = x.copy()
        batched_partial_fisher_yates(
            drng, np.arange(8), x,
            batched_sample_distinct(drng, np.arange(8), 6, 3),
        )
        assert np.array_equal(x, before)


class TestBatchedSwapAndCrossovers:
    @given(seed=st.integers(0, 300), n=st.integers(2, 20))
    def test_swap_valid(self, seed, n):
        drng = DeviceRNG(seed)
        x = random_perm_matrix(16, n, seed)
        out = batched_random_swap(drng, np.arange(16), x)
        for row in out:
            assert is_perm(row)
        assert np.all((out != x).sum(axis=1) == 2)

    def test_swap_mask(self):
        drng = DeviceRNG(1)
        x = random_perm_matrix(10, 8, 1)
        mask = np.arange(10) % 2 == 0
        out = batched_random_swap(drng, np.arange(10), x, mask)
        for i in range(10):
            if mask[i]:
                assert (out[i] != x[i]).sum() == 2
            else:
                assert np.array_equal(out[i], x[i])

    @given(seed=st.integers(0, 300), n=st.integers(2, 20))
    def test_one_point_valid(self, seed, n):
        drng = DeviceRNG(seed)
        x = random_perm_matrix(16, n, seed)
        y = random_perm_matrix(16, n, seed + 999)
        out = batched_one_point_crossover(drng, np.arange(16), x, y)
        for row in out:
            assert is_perm(row)

    @given(seed=st.integers(0, 300), n=st.integers(2, 20))
    def test_two_point_valid(self, seed, n):
        drng = DeviceRNG(seed)
        x = random_perm_matrix(16, n, seed)
        y = random_perm_matrix(16, n, seed + 999)
        out = batched_two_point_crossover(drng, np.arange(16), x, y)
        for row in out:
            assert is_perm(row)

    def test_crossover_masks(self):
        drng = DeviceRNG(2)
        x = random_perm_matrix(12, 9, 2)
        y = random_perm_matrix(12, 9, 3)
        mask = np.zeros(12, bool)  # nobody crosses over
        out1 = batched_one_point_crossover(drng, np.arange(12), x, y, mask)
        out2 = batched_two_point_crossover(drng, np.arange(12), x, y, mask)
        assert np.array_equal(out1, x)
        assert np.array_equal(out2, x)

    def test_identical_parents_fixed_point(self):
        drng = DeviceRNG(3)
        x = random_perm_matrix(12, 9, 4)
        assert np.array_equal(
            batched_one_point_crossover(drng, np.arange(12), x, x), x
        )
        assert np.array_equal(
            batched_two_point_crossover(drng, np.arange(12), x, x), x
        )

    def test_batched_matches_scalar_semantics_n2(self):
        # With n=2 the one-point crossover must keep x (cut=1 keeps x[0],
        # tail is forced).
        drng = DeviceRNG(4)
        x = np.array([[0, 1], [1, 0]])
        y = np.array([[1, 0], [0, 1]])
        out = batched_one_point_crossover(drng, np.arange(2), x, y)
        assert np.array_equal(out, x)


needs_lib = pytest.mark.skipif(
    compiled.LIB is None, reason="no compiled build on this host"
)

_MASKS = ("none", "false", "true", "random")
_PARENTS = ("other", "same", "broadcast")


def _parents(s, n, seed, mask_kind, parent):
    """int32 parents ``x``/``y`` and a gate of the named kinds."""
    rng = np.random.default_rng(seed)
    x = np.argsort(rng.random((s, n)), axis=1).astype(np.int32)
    if parent == "same":
        y = x
    elif parent == "broadcast":  # the read-only gbest of coupling="coupled"
        y = np.broadcast_to(rng.permutation(n).astype(np.int32), (s, n))
    else:
        y = np.argsort(rng.random((s, n)), axis=1).astype(np.int32)
    mask = {
        "none": None,
        "false": np.zeros(s, dtype=bool),
        "true": np.ones(s, dtype=bool),
        "random": rng.random(s) < 0.5,
    }[mask_kind]
    return rng, x, y, mask


@needs_lib
class TestCompiledCrossoverOracle:
    """The compiled row passes equal their NumPy bodies with ``==``."""

    @given(
        s=st.integers(1, 64), n=st.integers(1, 1000),
        seed=st.integers(0, 2**32 - 1), mask_kind=st.sampled_from(_MASKS),
        parent=st.sampled_from(_PARENTS),
        cut_kind=st.sampled_from(("random", "one", "last")),
    )
    @example(s=1, n=1, seed=0, mask_kind="none", parent="other",
             cut_kind="random")
    @example(s=64, n=1000, seed=1, mask_kind="random", parent="broadcast",
             cut_kind="last")
    def test_one_point(self, s, n, seed, mask_kind, parent, cut_kind):
        rng, x, y, mask = _parents(s, n, seed, mask_kind, parent)
        cut = {
            "random": rng.integers(0, n + 1, s),
            "one": np.full(s, min(1, n)),
            "last": np.full(s, n - 1),
        }[cut_kind]
        ref = permutation._one_point_numpy(x, y, cut, mask)
        out = compiled.crossover(compiled.LIB, x, y, 0 * cut, cut, mask)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)

    @given(
        s=st.integers(1, 64), n=st.integers(1, 1000),
        seed=st.integers(0, 2**32 - 1), mask_kind=st.sampled_from(_MASKS),
        parent=st.sampled_from(_PARENTS),
        cut_kind=st.sampled_from(("random", "empty", "from0", "to_last")),
    )
    @example(s=1, n=1, seed=0, mask_kind="none", parent="other",
             cut_kind="empty")
    @example(s=64, n=1000, seed=2, mask_kind="true", parent="same",
             cut_kind="random")
    def test_two_point(self, s, n, seed, mask_kind, parent, cut_kind):
        rng, x, y, mask = _parents(s, n, seed, mask_kind, parent)
        a, b = rng.integers(0, n + 1, s), rng.integers(0, n + 1, s)
        c1, c2 = np.minimum(a, b), np.maximum(a, b)
        if cut_kind == "empty":
            c2 = c1
        elif cut_kind == "from0":
            c1 = np.zeros(s, dtype=np.int64)
        elif cut_kind == "to_last":
            c1, c2 = np.minimum(c1, n - 1), np.full(s, n - 1)
        ref = permutation._two_point_numpy(x, y, c1, c2, mask)
        out = compiled.crossover(compiled.LIB, x, y, c1, c2, mask)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 100])
    @pytest.mark.parametrize(
        "op", [batched_one_point_crossover, batched_two_point_crossover]
    )
    def test_public_operators_draw_the_same(self, monkeypatch, op, n):
        x = random_perm_matrix(40, n, n)
        y = random_perm_matrix(40, n, n + 1)
        mask = np.arange(40) % 3 != 0

        def run():
            drng = DeviceRNG(11)
            return op(drng, np.arange(40), x, y, mask), drng.counter

        with_c = run()
        monkeypatch.setattr(compiled, "LIB", None)
        with_numpy = run()
        assert with_c[1] == with_numpy[1]
        assert with_c[0].dtype == with_numpy[0].dtype == x.dtype
        assert np.array_equal(with_c[0], with_numpy[0])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("where", ["head", "tail", "masked"])
    def test_index_outside_range_raises(self, dtype, where):
        x = random_perm_matrix(3, 6, 0).astype(dtype)
        y = random_perm_matrix(3, 6, 1).astype(dtype)
        mask = np.ones(3, dtype=bool)
        if where == "head":
            x[1, 0] = 6
        elif where == "tail":
            y[2, 4] = -1
        else:
            x[0, 5], mask[0] = 7, False
        cut = np.full(3, 2)
        with pytest.raises(IndexError):
            compiled.crossover(compiled.LIB, x, y, cut - 2, cut, mask)

    @pytest.mark.parametrize(
        "op", [batched_one_point_crossover, batched_two_point_crossover]
    )
    @pytest.mark.parametrize("lib", ["compiled", "numpy"])
    def test_public_operators_refuse_a_repeated_job(self, monkeypatch, op,
                                                    lib):
        if lib == "numpy":
            monkeypatch.setattr(compiled, "LIB", None)
        x = np.tile(np.array([0, 0, 0, 0, 0], dtype=np.int32), (4, 1))
        y = random_perm_matrix(4, 5, 3).astype(np.int32)
        with pytest.raises(ValueError):
            op(DeviceRNG(2), np.arange(4), x, y)

    @pytest.mark.parametrize("where", ["x", "y"])
    def test_numpy_body_index_outside_range_raises(self, where):
        x = random_perm_matrix(3, 6, 0)
        y = random_perm_matrix(3, 6, 1)
        (x if where == "x" else y)[1, 2] = -1
        cut = np.full(3, 2)
        with pytest.raises(IndexError):
            permutation._one_point_numpy(x, y, cut)
        with pytest.raises(IndexError):
            permutation._two_point_numpy(x, y, cut - 2, cut)

    def test_cut_outside_row_raises(self):
        x = random_perm_matrix(2, 5, 0).astype(np.int32)
        with pytest.raises(ValueError):  # hi past the row
            compiled.crossover(compiled.LIB, x, x, np.array([0, 0]),
                               np.array([2, 6]))
        with pytest.raises(ValueError):  # lo after hi
            compiled.crossover(compiled.LIB, x, x, np.array([3, 0]),
                               np.array([2, 1]))
        with pytest.raises(ValueError):  # lo before the row
            compiled.crossover(compiled.LIB, x, x, np.array([0, -1]),
                               np.array([2, 1]))

    @pytest.mark.parametrize(
        "x_row, y_row",
        [
            ([0, 0, 2, 3, 4], [4, 3, 2, 1, 0]),  # repeated job in the kept part
            ([0, 1, 2, 3, 4], [0, 1, 1, 3, 4]),  # y lacks a job the fill needs
        ],
    )
    def test_repeated_job_raises_and_stays_in_bounds(self, x_row, y_row):
        s, n, pad = 3, 5, 16
        x = np.tile(np.array(x_row, dtype=np.int32), (s, 1))
        y = np.tile(np.array(y_row, dtype=np.int32), (s, 1))
        cut = np.full(s, 2, dtype=np.int64)
        with pytest.raises(ValueError):
            compiled.crossover(compiled.LIB, x, y, cut * 0, cut)
        # The NumPy bodies refuse the same rows instead of returning a
        # child built from uninitialized ranks.
        with pytest.raises(ValueError, match="repeats a job"):
            permutation._one_point_numpy(x, y, cut)
        with pytest.raises(ValueError, match="repeats a job"):
            permutation._two_point_numpy(x, y, cut * 0, cut)
        # The raw pass, into a row block fenced by sentinels.
        buf = np.full(s * n + 2 * pad, -7, dtype=np.int32)
        out = buf[pad:pad + s * n].reshape(s, n)
        gate = np.ones(s, dtype=np.uint8)
        assert compiled.LIB.crossover(x, y, cut * 0, cut, gate, s, n, out) == 3
        assert np.all(buf[:pad] == -7) and np.all(buf[pad + s * n:] == -7)


@needs_lib
class TestCompiledRankOracle:
    """``compiled.rank_uniform`` equals ``np.argsort`` with ``==``."""

    @given(s=st.integers(1, 64), n=st.integers(1, 1000),
           seed=st.integers(0, 2**32 - 1))
    @example(s=1, n=1, seed=0)
    @example(s=64, n=1000, seed=1)
    def test_equals_argsort(self, s, n, seed):
        keys = np.random.default_rng(seed).random((s, n))
        ref = np.argsort(keys, axis=1).astype(np.int32)
        out = compiled.rank_uniform(compiled.LIB, keys)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)

    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_crowded_keys_equal_argsort(self, n, seed):
        # Keys packed into one bucket and at the ends of [0, 1).
        rng = np.random.default_rng(seed)
        keys = np.unique(np.concatenate([
            rng.random(n) * 1e-9,
            1.0 - rng.random(n) * 1e-9,
            [0.0, np.nextafter(1.0, 0.0)],
        ]))
        keys = rng.permutation(keys)[None, :]
        out = compiled.rank_uniform(compiled.LIB, keys)
        assert np.array_equal(out, np.argsort(keys, axis=1))

    @pytest.mark.parametrize(
        "bad", ["tie", "one", "negative", "nan", "inf"]
    )
    def test_bad_key_returns_code_5_and_falls_back(self, bad):
        s, n = 4, 50
        keys = np.random.default_rng(3).random((s, n))
        value = {"one": 1.0, "negative": -0.25, "nan": np.nan,
                 "inf": np.inf, "tie": keys[2, 7]}[bad]
        keys[2, 40] = value
        out = np.empty((s, n), dtype=np.int32)
        assert compiled.LIB.rank_uniform(keys, s, n, out) == 5
        assert compiled.rank_uniform(compiled.LIB, keys) is None

        class Replay:  # a generator that "draws" the planted keys
            def random(self, shape):
                assert shape == keys.shape
                return keys.copy()

        perms = permutation.random_permutations(Replay(), s, n)
        ref = np.argsort(keys, axis=1).astype(np.int32)
        assert perms.dtype == np.int32 and np.array_equal(perms, ref)

    def test_shape_and_dtype_are_checked(self):
        with pytest.raises(ValueError):
            compiled.rank_uniform(compiled.LIB, np.zeros(5))
        with pytest.raises(ValueError):
            compiled.rank_uniform(compiled.LIB, np.zeros((2, 5), np.float32))


class TestRandomPermutations:
    @pytest.mark.parametrize("lib", ["compiled", "numpy"])
    def test_is_the_argsort_of_one_draw(self, monkeypatch, lib):
        if lib == "numpy":
            monkeypatch.setattr(compiled, "LIB", None)
        gen, ref_gen = np.random.default_rng(9), np.random.default_rng(9)
        perms = permutation.random_permutations(gen, 30, 77)
        ref = np.argsort(ref_gen.random((30, 77)), axis=1)
        assert perms.dtype == np.int32 and np.array_equal(perms, ref)
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        assert all(is_perm(row) for row in perms)
