"""Permutation operators: partial Fisher--Yates, swaps and crossovers.

Shared substrate for the metaheuristics:

* uniform random permutations (:func:`random_permutations`): the initial
  populations, the sample sequences of the SA start-temperature estimate
  and the modeled-launch staging draws all come from here;
* the SA neighborhood (Sections VI/VI-B): select ``Pert`` distinct positions
  of the parent sequence at random and shuffle the jobs at those positions
  with the Fisher--Yates algorithm, leaving all other positions untouched;
* the DPSO update operators of Pan et al. [15] (Section VII): ``F1`` random
  swap (velocity), ``F2`` one-point permutation crossover with the
  particle's best (cognition), ``F3`` two-point permutation crossover with
  the swarm's best (social part).

Every operator exists in two forms with identical semantics:

* a *scalar* form operating on one sequence with a
  :class:`numpy.random.Generator` (used by the serial CPU baselines);
* a *batched* form operating on an ``(S, n)`` matrix of sequences with a
  :class:`repro.gpusim.rng.DeviceRNG` (one row per simulated CUDA thread),
  fully vectorized over the ensemble axis.

All batched routines draw per-thread randomness through the counter-based
device RNG, so results are reproducible and independent of the ensemble
partitioning -- the property tests check that outputs are always valid
permutations and that batched and scalar forms agree in distribution.

The batched crossovers are two steps: the cut points are drawn here, then
a pure row pass builds the children.  The pass runs the compiled O(n)
program of :mod:`repro.seqopt.compiled` (one row at a time with a "used"
bitmap, as a CUDA thread would) and falls back to a vectorized NumPy body
-- its oracle -- only when no compiled build could be loaded.  The pass is
integer-only and draws nothing, so both paths give the same children and
leave the RNG in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.rng import DeviceRNG
from repro.seqopt import compiled

__all__ = [
    "random_permutations",
    "sample_distinct_positions",
    "partial_fisher_yates",
    "batched_sample_distinct",
    "batched_partial_fisher_yates",
    "random_swap",
    "batched_random_swap",
    "one_point_crossover",
    "batched_one_point_crossover",
    "two_point_crossover",
    "batched_two_point_crossover",
]


def random_permutations(
    rng: np.random.Generator, rows: int, n: int
) -> np.ndarray:
    """``(rows, n)`` int32 uniform random permutations.

    Row ``i`` is the argsort of row ``i`` of ``rng.random((rows, n))``.
    The rank runs in the compiled O(n) pass unless no build loaded or a row
    holds two equal keys (~3e-7 per 5000 rows at n = 1000); ``np.argsort``
    sorts those draws instead.  Both give the same permutations for
    distinct keys, so the result depends only on ``rng``.
    """
    keys = rng.random((rows, n))
    lib = compiled.LIB
    ranks = None if lib is None else compiled.rank_uniform(lib, keys)
    if ranks is None:
        ranks = np.argsort(keys, axis=1).astype(np.int32)
    return ranks


# ----------------------------------------------------------------------
# Scalar forms
# ----------------------------------------------------------------------
def sample_distinct_positions(
    rng: np.random.Generator, n: int, k: int
) -> np.ndarray:
    """``k`` distinct positions uniformly from ``0..n-1``."""
    if k > n:
        raise ValueError(f"cannot sample {k} distinct positions from {n}")
    return rng.choice(n, size=k, replace=False)


def partial_fisher_yates(
    rng: np.random.Generator, sequence: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Shuffle the jobs at ``positions`` (Fisher--Yates), others untouched.

    Returns a new array; the input is not modified.
    """
    out = np.array(sequence, copy=True)
    vals = out[positions]
    # Classic inside-out Fisher--Yates on the selected values.
    for j in range(len(vals) - 1, 0, -1):
        k = int(rng.integers(0, j + 1))
        vals[j], vals[k] = vals[k], vals[j]
    out[positions] = vals
    return out


def random_swap(rng: np.random.Generator, sequence: np.ndarray) -> np.ndarray:
    """Swap two distinct random positions (DPSO operator ``F1``)."""
    n = sequence.size
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n - 1))
    if j >= i:
        j += 1
    out = np.array(sequence, copy=True)
    out[i], out[j] = out[j], out[i]
    return out


def one_point_crossover(
    rng: np.random.Generator, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Permutation-preserving one-point crossover (DPSO operator ``F2``).

    The child inherits ``x``'s prefix up to a random cut and fills the
    remaining positions with the missing jobs in the order they appear in
    ``y``.
    """
    n = x.size
    c = int(rng.integers(1, n))  # cut in 1..n-1: both parents contribute
    head = x[:c]
    in_head = np.zeros(n, dtype=bool)
    in_head[head] = True
    tail = y[~in_head[y]]
    return np.concatenate((head, tail))


def two_point_crossover(
    rng: np.random.Generator, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Permutation-preserving two-point crossover (DPSO operator ``F3``).

    The child keeps ``x``'s segment ``[c1, c2)`` in place; all other
    positions are filled left-to-right with the remaining jobs in ``y``
    order.
    """
    n = x.size
    c1 = int(rng.integers(0, n))
    c2 = int(rng.integers(0, n))
    if c1 > c2:
        c1, c2 = c2, c1
    seg = x[c1:c2]
    in_seg = np.zeros(n, dtype=bool)
    in_seg[seg] = True
    fill = y[~in_seg[y]]
    out = np.empty(n, dtype=x.dtype)
    out[c1:c2] = seg
    out[:c1] = fill[:c1]
    out[c2:] = fill[c1:]
    return out


# ----------------------------------------------------------------------
# Batched forms (one row per simulated thread)
# ----------------------------------------------------------------------
def batched_sample_distinct(
    rng: DeviceRNG, thread_ids: np.ndarray, n: int, k: int
) -> np.ndarray:
    """``(S, k)`` distinct positions per thread, uniformly distributed.

    Uses the draw-and-displace scheme: the ``j``-th pick is drawn from
    ``[0, n - j)`` and shifted past the already-chosen positions (in
    ascending order), which is Fisher--Yates sampling without replacement
    and needs only ``k`` draw rounds.
    """
    if k > n:
        raise ValueError(f"cannot sample {k} distinct positions from {n}")
    s = len(thread_ids)
    picks = np.empty((s, k), dtype=np.int64)
    for j in range(k):
        pos = rng.randint(thread_ids, 0, n - j)
        if j:
            prior = np.sort(picks[:, :j], axis=1)
            for t in range(j):
                pos = pos + (pos >= prior[:, t])
        picks[:, j] = pos
    return picks


def batched_partial_fisher_yates(
    rng: DeviceRNG,
    thread_ids: np.ndarray,
    sequences: np.ndarray,
    positions: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fisher--Yates shuffle of each row's selected positions.

    ``sequences`` is ``(S, n)``, ``positions`` is ``(S, k)``; returns the
    perturbed sequences (written into ``out`` when given).
    """
    s, _ = sequences.shape
    k = positions.shape[1]
    if out is None:
        out = np.array(sequences, copy=True)
    else:
        np.copyto(out, sequences)
    rows = np.arange(s)
    vals = out[rows[:, None], positions]
    for j in range(k - 1, 0, -1):
        swap_with = rng.randint(thread_ids, 0, j + 1)
        vj = vals[rows, j].copy()
        vals[rows, j] = vals[rows, swap_with]
        vals[rows, swap_with] = vj
    out[rows[:, None], positions] = vals
    return out


def batched_random_swap(
    rng: DeviceRNG,
    thread_ids: np.ndarray,
    sequences: np.ndarray,
    apply_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Swap two distinct random positions per row (rows where ``apply_mask``).

    Returns a new array; rows with ``apply_mask == False`` are copied
    unchanged (the ``w ⊕ F1`` probability gate of Eq. (3)).
    """
    s, n = sequences.shape
    out = np.array(sequences, copy=True)
    i = rng.randint(thread_ids, 0, n)
    j = rng.randint(thread_ids, 0, n - 1)
    j = j + (j >= i)
    rows = np.arange(s)
    if apply_mask is None:
        apply_mask = np.ones(s, dtype=bool)
    r = rows[apply_mask]
    vi = out[r, i[apply_mask]].copy()
    out[r, i[apply_mask]] = out[r, j[apply_mask]]
    out[r, j[apply_mask]] = vi
    return out


def _rank_in(x: np.ndarray) -> np.ndarray:
    """Inverse permutations row-wise: ``rank[s, job] = position of job``.

    Raises :class:`IndexError` for a job outside ``[0, n)`` and
    :class:`ValueError` for a row that repeats a job (so leaves another
    job without a position), as the compiled crossover pass does.
    """
    s, n = x.shape
    compiled.check_range(x, n)
    rank = np.full_like(x, -1)
    rows = np.arange(s)[:, None]
    rank[rows, x] = np.arange(n)[None, :]
    if (rank < 0).any():
        raise ValueError("a crossover parent row repeats a job")
    return rank


def _one_point_numpy(
    x: np.ndarray, y: np.ndarray, cut: np.ndarray,
    apply_mask: np.ndarray | None = None,
) -> np.ndarray:
    """NumPy row pass of :func:`batched_one_point_crossover` (the oracle).

    Fully vectorized: the tail jobs (those not in the inherited prefix) are
    ordered by their position in ``y`` via a stable argsort.
    """
    n = x.shape[1]
    rank_x = _rank_in(x)
    rank_y = _rank_in(y)
    # Job j is in the head iff its position in x is before the cut.
    in_head_by_job = rank_x < cut[:, None]
    # Sort jobs so heads come first and tails follow in y order; because
    # exactly cut[s] jobs have key -1, columns cut.. hold the ordered tail.
    key = np.where(in_head_by_job, -1, rank_y)
    jobs_sorted = np.argsort(key, axis=1, kind="stable")
    cols = np.arange(n)[None, :]
    child = np.where(cols < cut[:, None], x, jobs_sorted)
    if apply_mask is not None:
        child = np.where(apply_mask[:, None], child, x)
    return child.astype(x.dtype, copy=False)


def _two_point_numpy(
    x: np.ndarray, y: np.ndarray, c1: np.ndarray, c2: np.ndarray,
    apply_mask: np.ndarray | None = None,
) -> np.ndarray:
    """NumPy row pass of :func:`batched_two_point_crossover` (the oracle)."""
    n = x.shape[1]
    rank_x = _rank_in(x)
    rank_y = _rank_in(y)
    in_seg_by_job = (rank_x >= c1[:, None]) & (rank_x < c2[:, None])
    # Non-segment jobs sorted by their y position come first.
    key = np.where(in_seg_by_job, n + rank_x, rank_y)
    fill_sorted = np.argsort(key, axis=1, kind="stable")
    cols = np.arange(n)[None, :]
    in_seg_col = (cols >= c1[:, None]) & (cols < c2[:, None])
    # Rank of each non-segment column among non-segment columns.
    nonseg_rank = np.cumsum(~in_seg_col, axis=1) - 1
    fill_vals = np.take_along_axis(
        fill_sorted, np.clip(nonseg_rank, 0, n - 1), axis=1
    )
    child = np.where(in_seg_col, x, fill_vals)
    if apply_mask is not None:
        child = np.where(apply_mask[:, None], child, x)
    return child.astype(x.dtype, copy=False)


def batched_one_point_crossover(
    rng: DeviceRNG,
    thread_ids: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    apply_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise one-point permutation crossover of ``x`` with ``y``.

    Draws one cut in ``1..n-1`` per thread (none when ``n == 1``); row
    ``s`` of the child is ``x[s, :cut[s]]`` followed by ``y[s]``'s remaining
    jobs in ``y`` order.  Rows outside ``apply_mask`` pass through
    unchanged (the ``c1 ⊕ F2`` gate).  The row pass is compiled unless no
    build loaded; both paths return the same integers in ``x``'s dtype.
    """
    s, n = x.shape
    cut = rng.randint(thread_ids, 1, n) if n > 1 else np.ones(s, dtype=np.int64)
    lib = compiled.LIB
    if lib is None:
        return _one_point_numpy(x, y, cut, apply_mask)
    lo = np.zeros(s, dtype=np.int64)
    return compiled.crossover(lib, x, y, lo, cut, apply_mask).astype(
        x.dtype, copy=False
    )


def batched_two_point_crossover(
    rng: DeviceRNG,
    thread_ids: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    apply_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise two-point permutation crossover of ``x`` with ``y``.

    Draws two points in ``0..n-1`` per thread; on ``[min, max)`` the child
    keeps ``x``'s segment and the other positions are filled left-to-right
    with the missing jobs in ``y`` order (the ``c2 ⊕ F3`` gate applies per
    row).  Compiled or NumPy, as :func:`batched_one_point_crossover`.
    """
    n = x.shape[1]
    a = rng.randint(thread_ids, 0, n)
    b = rng.randint(thread_ids, 0, n)
    c1, c2 = np.minimum(a, b), np.maximum(a, b)
    lib = compiled.LIB
    if lib is None:
        return _two_point_numpy(x, y, c1, c2, apply_mask)
    return compiled.crossover(lib, x, y, c1, c2, apply_mask).astype(
        x.dtype, copy=False
    )
