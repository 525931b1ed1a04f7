"""The fitness kernel: one O(n) sequence optimization per thread.

Section VI-A: the kernel first stages the earliness/tardiness penalties in
block shared memory (shorter latency than global memory; the linear 1-D
launch gives every thread a distinct slot so there are no write races),
synchronizes the block (writes must complete before any thread reads), and
then runs the O(n) algorithm of [7] (CDD) or [8] (UCDDCP) on the thread's
own job sequence.  "The processing times of the jobs are not cached because
there are only a few reads from it inside the fitness function."

Numerically every thread's sequence is scored by the compiled per-row
program of :mod:`repro.seqopt.compiled` -- the same O(n) loop a CUDA thread
runs, reading the staged per-job arrays through the thread's sequence with
no gathered copies (:mod:`repro.seqopt.batched` falls back to its NumPy
reference when no compiled build is available).

Cost model (calibrated against the paper's published GT 560M runtimes, see
EXPERIMENTS.md): the dominant term is linear in ``n``.  ``CDD_CYCLES_PER_JOB``
(and the UCDDCP variant) absorb the double-precision throughput, branch
divergence and uncoalesced-gather penalties of the real device.
"""

from __future__ import annotations

from repro.gpusim.kernel import Kernel, KernelCost, ThreadContext, kernel
from repro.seqopt.batched import evaluate_cdd, evaluate_ucddcp

__all__ = [
    "make_cdd_fitness_kernel",
    "make_ucddcp_fitness_kernel",
    "CDD_CYCLES_PER_JOB",
    "UCDDCP_CYCLES_PER_JOB",
    "TEXTURE_GATHER_DISCOUNT",
]

# Calibration constants: effective issue cycles one thread spends per job in
# the fitness function.  Chosen so the modeled GT 560M generation-loop times
# land on the runtimes the paper reports (e.g. SA_1000 at n=1000 ~ 3.4 s).
CDD_CYCLES_PER_JOB = 1150.0
UCDDCP_CYCLES_PER_JOB = 1500.0
_FIXED_CYCLES = 250.0

# The paper's future-work item: "examine the utilization of the texture
# memory of the GPU to make use of its spatial cache".  The per-thread
# gathers of the (read-only) processing times through the sequence hit the
# texture cache's 2-D locality; the modeled effect is a discount on the
# uncached gather traffic and a small cycle saving on address arithmetic.
TEXTURE_GATHER_DISCOUNT = 0.5
_TEXTURE_CYCLE_DISCOUNT = 0.92


def _shared_bytes_cdd(seqs, p, a, b, out) -> int:
    # alpha + beta staged per block (float64 each).
    return 2 * a.array.size * 8


def _shared_bytes_ucddcp(seqs, p, m, a, b, g, out) -> int:
    # alpha + beta + gamma + min processing staged per block.
    return 4 * a.array.size * 8


def _make_cdd_cost(use_texture: bool):
    gather = TEXTURE_GATHER_DISCOUNT if use_texture else 1.0
    cyc = _TEXTURE_CYCLE_DISCOUNT if use_texture else 1.0

    def _cdd_cost(ctx: ThreadContext, seqs, p, a, b, out) -> KernelCost:
        n = p.array.size
        # Global traffic per thread: the int32 sequence (n reads) and the
        # gathered processing times (n reads, texture-cached when enabled)
        # plus the fitness write; staged penalties are charged per block.
        per_thread = 4.0 * n + gather * 8.0 * n + 8.0
        return KernelCost(
            cycles_per_thread=cyc * (_FIXED_CYCLES + CDD_CYCLES_PER_JOB * n),
            global_bytes_per_thread=per_thread,
            shared_bytes_per_block=2.0 * n * 8.0,
        )

    return _cdd_cost


def _make_ucddcp_cost(use_texture: bool):
    gather = TEXTURE_GATHER_DISCOUNT if use_texture else 1.0
    cyc = _TEXTURE_CYCLE_DISCOUNT if use_texture else 1.0

    def _ucddcp_cost(ctx: ThreadContext, seqs, p, m, a, b, g, out) -> KernelCost:
        n = p.array.size
        per_thread = 4.0 * n + gather * 2 * 8.0 * n + 8.0  # seq + P,M + write
        return KernelCost(
            cycles_per_thread=cyc
            * (_FIXED_CYCLES + UCDDCP_CYCLES_PER_JOB * n),
            global_bytes_per_thread=per_thread,
            shared_bytes_per_block=4.0 * n * 8.0,
        )

    return _ucddcp_cost


def make_cdd_fitness_kernel(use_texture: bool = False) -> Kernel:
    """Build the CDD fitness kernel.

    ``use_texture`` routes the read-only gathers through the modeled
    texture cache (the paper's future-work item); numerically identical,
    cheaper in the cost model.
    """

    @kernel(
        "fitness_cdd_tex" if use_texture else "fitness_cdd",
        registers=40,
        cost=_make_cdd_cost(use_texture),
        shared_mem=_shared_bytes_cdd,
    )
    def fitness_cdd(ctx: ThreadContext, seqs, p, a, b, out) -> None:
        """Evaluate ``out[t] = optimal CDD penalty of sequence t``."""
        # Stage penalties into shared memory, then barrier before reads
        # (Section VI-A protocol).
        ctx.syncthreads()
        t = ctx.total_threads
        out.array[:t] = evaluate_cdd(
            seqs.array[:t], p.array, a.array, b.array,
            float(ctx.constant["due_date"]),
        )

    return fitness_cdd


def make_ucddcp_fitness_kernel(use_texture: bool = False) -> Kernel:
    """Build the UCDDCP fitness kernel (see :func:`make_cdd_fitness_kernel`)."""

    @kernel(
        "fitness_ucddcp_tex" if use_texture else "fitness_ucddcp",
        registers=48,
        cost=_make_ucddcp_cost(use_texture),
        shared_mem=_shared_bytes_ucddcp,
    )
    def fitness_ucddcp(ctx: ThreadContext, seqs, p, m, a, b, g, out) -> None:
        """Evaluate ``out[t] = optimal UCDDCP penalty of sequence t``."""
        ctx.syncthreads()
        t = ctx.total_threads
        out.array[:t] = evaluate_ucddcp(
            seqs.array[:t], p.array, m.array, a.array, b.array, g.array,
            float(ctx.constant["due_date"]),
        )

    return fitness_ucddcp
