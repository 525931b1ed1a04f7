"""Initial-population construction for the metaheuristics.

The paper only notes that "the initial configuration for the algorithm can
be the same or different for all chains"; the faithful default is a uniform
random permutation per chain.  As an extension this module also provides
**random V-shaped** initialization: every chain starts from a sequence that
already respects the V-shape optimality structure (early block ordered by
``alpha/p`` ascending toward the due date, tardy block by ``p/beta``
ascending) around a randomized early/tardy split -- a much better starting
point whose diversity across chains comes from the random split and
membership.  The reproduction study (EXPERIMENTS.md, "reference strength")
measures how far initialization alone can close the budget gap.
"""

from __future__ import annotations

import numpy as np

from repro.permutation import random_permutations
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance

__all__ = ["random_population", "vshape_population", "initial_population"]


def random_population(
    n: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``(size, n)`` int32 uniform random permutations."""
    return random_permutations(rng, size, n)


def vshape_sequence(
    instance: CDDInstance | UCDDCPInstance, rng: np.random.Generator
) -> np.ndarray:
    """One random V-shaped sequence.

    Jobs are considered in random order and greedily assigned to the early
    block while it fits before a randomized fraction of the due date; the
    blocks are then ordered by the V-shape ratio rules.
    """
    n = instance.n
    p = instance.processing
    a = instance.alpha
    b = instance.beta
    d = instance.due_date

    order = rng.permutation(n)
    target = d * rng.uniform(0.7, 1.0)
    selected = np.zeros(n, dtype=bool)
    total = 0.0
    for j in order:
        if total + p[j] <= target:
            selected[j] = True
            total += p[j]
    early = np.flatnonzero(selected)
    tardy = np.flatnonzero(~selected)
    # Ratio rules; zero beta pushes a job to the end of the tardy block.
    early = early[np.argsort(a[early] / p[early], kind="stable")]
    with np.errstate(divide="ignore"):
        tardy_key = np.where(b[tardy] > 0,
                             p[tardy] / np.where(b[tardy] > 0, b[tardy], 1.0),
                             np.inf)
    tardy = tardy[np.argsort(tardy_key, kind="stable")]
    return np.concatenate((early, tardy)).astype(np.intp)


def vshape_population(
    instance: CDDInstance | UCDDCPInstance,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(size, n)`` independent random V-shaped sequences."""
    return np.vstack([vshape_sequence(instance, rng) for _ in range(size)])


def initial_population(
    instance: CDDInstance | UCDDCPInstance,
    size: int,
    rng: np.random.Generator,
    init: str = "random",
) -> np.ndarray:
    """Dispatch on the ``init`` policy (``"random"`` or ``"vshape"``)."""
    if init == "random":
        return random_population(instance.n, size, rng)
    if init == "vshape":
        return vshape_population(instance, size, rng)
    raise ValueError(f"unknown init policy {init!r}")
