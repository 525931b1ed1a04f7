"""Sequence optimizers: the deterministic second layer of the two-layer approach.

Given a fixed job sequence, the remaining subproblem -- choosing completion
times (and, for UCDDCP, compressions) -- is a linear program.  This
subpackage provides:

* :func:`~repro.seqopt.cdd_linear.optimize_cdd_sequence` -- the O(n)
  algorithm of Lässig et al. [7] for the CDD.
* :func:`~repro.seqopt.ucddcp_linear.optimize_ucddcp_sequence` -- the O(n)
  algorithm of Awasthi et al. [8] for the UCDDCP.
* :mod:`~repro.seqopt.batched` -- ensemble versions of both (the workhorse
  behind the simulated fitness kernel: one row per thread), run by the
  compiled per-row loop of :mod:`~repro.seqopt.compiled` with a vectorized
  NumPy reference as fallback.
* :mod:`~repro.seqopt.pure_python` -- list-based implementations used as the
  honest *serial CPU* comparator when measuring speedups.
* :mod:`~repro.seqopt.lp_reference` -- scipy ``linprog`` on the exact
  fixed-sequence LP (ground truth for the O(n) algorithms).
* :mod:`~repro.seqopt.exact` -- exact solvers over sequences (brute force,
  V-shaped partition enumeration) used to anchor best-known values.
* :mod:`~repro.seqopt.local_search` -- batched steepest-descent over
  adjacent-swap / insertion neighborhoods (hybrid polish).
"""

from repro.seqopt.batched import batched_cdd_objective, batched_ucddcp_objective
from repro.seqopt.cdd_linear import optimize_cdd_sequence
from repro.seqopt.local_search import local_search
from repro.seqopt.lp_reference import lp_optimize_sequence
from repro.seqopt.ucddcp_linear import optimize_ucddcp_sequence

__all__ = [
    "optimize_cdd_sequence",
    "optimize_ucddcp_sequence",
    "batched_cdd_objective",
    "batched_ucddcp_objective",
    "lp_optimize_sequence",
    "local_search",
]
