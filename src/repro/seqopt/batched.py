"""Ensemble versions of the O(n) sequence optimizers.

These routines evaluate *S* job sequences at once -- one row per simulated
CUDA thread.  They are the numerical content of the paper's fitness kernel:
every GPU thread runs the same O(n) program on its own sequence.

Three API levels are provided:

* ``batched_*_objective(instance, sequences)`` -- validate the ``(S, n)``
  sequence matrix and evaluate it.
* ``evaluate_*(seqs, <per-job arrays>, due_date)`` -- evaluate an int32
  sequence matrix against the ungathered per-job arrays; this is what the
  fitness kernel calls.  It runs the compiled per-row program of
  :mod:`repro.seqopt.compiled` (``_fitness.c``, the library that also holds
  the DPSO crossover passes of :mod:`repro.permutation`) and falls back to
  the NumPy reference below only when no compiled build could be loaded.
* ``*_from_gathered(...)`` -- the NumPy reference: whole-array passes over
  already-gathered sequence-ordered arrays.  It also serves the
  ``return_completions``/``return_details`` callers.

The closed forms mirror ``cdd_linear``/``ucddcp_linear``: with prefix sums
``A_k = sum(alpha[:k])`` and suffix sums ``B_k = sum(beta[k-1:])`` the
optimal due-date position is ``r = min(tau, max{k : B_k >= A_{k-1}})``
(or 0 -- keep the start-at-zero schedule -- when ``B_{tau+1} >= A_tau``),
and the optimal schedule is the initial one shifted right by
``d - C_init[r]``.  Everything is O(S*n).

Exactness contract: the compiled program repeats the reference's
operations in the same order -- sequential prefix sums, the same
``tau``/``k_max``/``keep`` rule -- except that it accumulates the penalty
sums in sequence order where ``np.einsum`` picks its own.  On
integer-valued instances (Biskup, UCDDCP generator, OR-library) every sum
is exact, so both paths and :mod:`repro.seqopt.pure_python` agree bit for
bit; on fractional data they agree to a relative 1e-12.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.seqopt import compiled

if TYPE_CHECKING:  # pragma: no cover
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance

__all__ = [
    "batched_cdd_objective",
    "batched_ucddcp_objective",
    "batched_cdd_from_gathered",
    "batched_ucddcp_from_gathered",
    "evaluate_cdd",
    "evaluate_ucddcp",
]


def evaluate_cdd(
    seqs: np.ndarray,
    p: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    due_date: float,
) -> np.ndarray:
    """Optimal CDD objective of every row of the int32 matrix ``seqs``.

    ``p``, ``a`` and ``b`` are the float64 per-job arrays in job-index
    order.  Raises :class:`IndexError` for a job index outside ``[0, n)``.
    """
    lib = compiled.LIB
    if lib is not None:
        return compiled.cdd_objective(lib, seqs, p, a, b, due_date)
    compiled.check_range(seqs, p.size)
    return batched_cdd_from_gathered(p[seqs], a[seqs], b[seqs], due_date)


def evaluate_ucddcp(
    seqs: np.ndarray,
    p: np.ndarray,
    m: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    g: np.ndarray,
    due_date: float,
) -> np.ndarray:
    """Optimal UCDDCP objective of every row (see :func:`evaluate_cdd`)."""
    lib = compiled.LIB
    if lib is not None:
        return compiled.ucddcp_objective(lib, seqs, p, m, a, b, g, due_date)
    compiled.check_range(seqs, p.size)
    return batched_ucddcp_from_gathered(
        p[seqs], m[seqs], a[seqs], b[seqs], g[seqs], due_date
    )


# ----------------------------------------------------------------------
# CDD
# ----------------------------------------------------------------------
def batched_cdd_from_gathered(
    p_seq: np.ndarray,
    a_seq: np.ndarray,
    b_seq: np.ndarray,
    due_date: float,
    *,
    return_completions: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal CDD objectives for ``S`` sequences given gathered arrays.

    Parameters
    ----------
    p_seq, a_seq, b_seq:
        ``(S, n)`` float arrays: processing times and penalties of each row's
        sequence, in sequence order.
    due_date:
        The common due date ``d``.
    return_completions:
        If true, also return the ``(S, n)`` optimal completion times and the
        ``(S,)`` due-date positions ``r`` (0 = schedule starts at time zero).

    Returns
    -------
    objectives, or ``(objectives, completions, r)``.
    """
    d = float(due_date)
    s, n = p_seq.shape
    rows = np.arange(s)

    c_init = np.cumsum(p_seq, axis=1)
    # tau: per-row count of jobs finishing at or before d at start zero.
    tau = (c_init <= d).sum(axis=1)

    a_pref = np.cumsum(a_seq, axis=1)  # A_k at column k-1
    a_excl = np.concatenate(
        (np.zeros((s, 1), dtype=a_pref.dtype), a_pref[:, :-1]), axis=1
    )  # A_{k-1} at column k-1
    b_cum = np.cumsum(b_seq, axis=1)
    b_suf = b_cum[:, -1:] - b_cum + b_seq  # B_k = sum(b[k-1:]) at column k-1

    # cond_k = B_k >= A_{k-1} is prefix-true in k (B_k falls, A_{k-1} rises),
    # so the largest k with cond_k is simply the count of true entries.
    k_max = (b_suf >= a_excl).sum(axis=1)
    r = np.minimum(tau, k_max)

    # Keep the initial schedule when shifting right is not strictly
    # beneficial: tardiness rate B_{tau+1} >= earliness rate A_tau.
    pe0 = np.where(tau > 0, a_pref[rows, np.maximum(tau - 1, 0)], 0.0)
    pl0 = np.where(tau < n, b_suf[rows, np.minimum(tau, n - 1)], 0.0)
    keep = (tau == 0) | (pl0 >= pe0)
    r = np.where(keep, 0, r)

    shift = np.where(r > 0, d - c_init[rows, np.maximum(r - 1, 0)], 0.0)
    completion = c_init + shift[:, None]

    early = np.maximum(0.0, d - completion)
    tardy = np.maximum(0.0, completion - d)
    obj = np.einsum("ij,ij->i", a_seq, early) + np.einsum(
        "ij,ij->i", b_seq, tardy
    )
    if return_completions:
        return obj, completion, r
    return obj


def batched_cdd_objective(
    instance: "CDDInstance", sequences: np.ndarray
) -> np.ndarray:
    """Optimal CDD objective for each row of the ``(S, n)`` sequence matrix.

    Any integer dtype and memory layout is accepted (cast to C-contiguous
    int32); a job index outside ``[0, n)`` raises :class:`IndexError`.
    """
    seqs = compiled.index_matrix(sequences, instance.n)
    return evaluate_cdd(
        seqs, instance.processing, instance.alpha, instance.beta,
        instance.due_date,
    )


# ----------------------------------------------------------------------
# UCDDCP
# ----------------------------------------------------------------------
def batched_ucddcp_from_gathered(
    p_seq: np.ndarray,
    m_seq: np.ndarray,
    a_seq: np.ndarray,
    b_seq: np.ndarray,
    g_seq: np.ndarray,
    due_date: float,
    *,
    return_details: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Optimal UCDDCP objectives for ``S`` sequences given gathered arrays.

    Same contract as :func:`batched_cdd_from_gathered` with the compression
    pass added; with ``return_details`` also returns completions,
    reductions and due-date positions.
    """
    d = float(due_date)
    s, n = p_seq.shape
    rows = np.arange(s)

    _, c_cdd, r = batched_cdd_from_gathered(
        p_seq, a_seq, b_seq, d, return_completions=True
    )

    a_pref = np.cumsum(a_seq, axis=1)
    a_excl = np.concatenate(
        (np.zeros((s, 1), dtype=a_pref.dtype), a_pref[:, :-1]), axis=1
    )
    b_cum = np.cumsum(b_seq, axis=1)
    b_suf = b_cum[:, -1:] - b_cum + b_seq

    positions = np.arange(1, n + 1)
    # Rows with an anchored job (r >= 1): tardy <=> position > r (exact,
    # index-based).  Rows that kept the start-at-zero schedule fall back to a
    # float comparison on the initial completions.
    is_tardy = np.where(
        (r >= 1)[:, None], positions[None, :] > r[:, None], c_cdd > d
    )
    rate = np.where(is_tardy, b_suf, a_excl) - g_seq
    reduction = np.where(rate > 0.0, p_seq - m_seq, 0.0)

    p_eff = p_seq - reduction
    cum = np.cumsum(p_eff, axis=1)
    anchor = cum[rows, np.maximum(r - 1, 0)]
    completion = np.where(
        (r > 0)[:, None], d + cum - anchor[:, None], cum
    )

    early = np.maximum(0.0, d - completion)
    tardy = np.maximum(0.0, completion - d)
    obj = (
        np.einsum("ij,ij->i", a_seq, early)
        + np.einsum("ij,ij->i", b_seq, tardy)
        + np.einsum("ij,ij->i", g_seq, reduction)
    )
    if return_details:
        return obj, completion, reduction, r
    return obj


def batched_ucddcp_objective(
    instance: "UCDDCPInstance", sequences: np.ndarray
) -> np.ndarray:
    """Optimal UCDDCP objective for each row of the sequence matrix.

    Same input contract as :func:`batched_cdd_objective`.
    """
    seqs = compiled.index_matrix(sequences, instance.n)
    return evaluate_ucddcp(
        seqs, instance.processing, instance.min_processing, instance.alpha,
        instance.beta, instance.gamma, instance.due_date,
    )
