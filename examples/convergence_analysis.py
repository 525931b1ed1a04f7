"""Why asynchronous? Convergence and diversity of the two SA variants.

Run:  python examples/convergence_analysis.py

Section VI of the paper: "The reason for choosing the asynchronous version
over the synchronous SA is due to the premature convergence of the latter
approach, examined from our experimental analysis."  This example performs
that experimental analysis on the production SA solve, observed per
generation by ``trace_parallel_sa``:

* per-generation best and mean energies of both variants,
* the ensemble diversity (positional entropy) over time -- the synchronous
  broadcast visibly collapses the population,
* acceptance rates along the cooling schedule.
"""

import numpy as np

from repro.analysis.convergence import trace_parallel_sa
from repro.core.parallel_sa import ParallelSAConfig
from repro.experiments.ascii_plot import line_plot
from repro.instances.biskup import biskup_instance


def main() -> None:
    instance = biskup_instance(n=50, h=0.4, k=1)
    base = dict(iterations=400, grid_size=2, block_size=64, seed=3)
    print(f"instance: {instance.name}, 128 chains, 400 generations\n")

    t_async = trace_parallel_sa(instance, ParallelSAConfig(**base))
    t_sync = trace_parallel_sa(
        instance, ParallelSAConfig(variant="sync", **base)
    )
    print(t_async.summary())
    print(t_sync.summary())

    gens = np.arange(t_async.generations)
    sample = slice(None, None, 10)
    print()
    print(line_plot(
        gens[sample].tolist(),
        {
            "async best": t_async.best[sample].tolist(),
            "sync best": t_sync.best[sample].tolist(),
            "async mean": t_async.mean_energy[sample].tolist(),
            "sync mean": t_sync.mean_energy[sample].tolist(),
        },
        title="Convergence (energy vs generation)",
    ))

    print()
    print(line_plot(
        t_async.diversity_generations.tolist(),
        {
            "async": t_async.diversity.tolist(),
            "sync": t_sync.diversity.tolist(),
        },
        title="Ensemble diversity (positional entropy vs generation)",
    ))

    print()
    print("acceptance rate (mean over 50-generation windows):")
    for lo in range(0, t_async.generations, 50):
        w = slice(lo, lo + 50)
        print(f"  gens {lo:>3}-{lo + 49:>3}: "
              f"async {t_async.acceptance_rate[w].mean():6.2%}   "
              f"sync {t_sync.acceptance_rate[w].mean():6.2%}   "
              f"T = {t_async.temperature[w].mean():.3g}")

    collapse = t_sync.final_diversity() / max(t_async.final_diversity(), 1e-9)
    print(f"\nfinal diversity ratio (sync/async): {collapse:.2f}")
    print("The synchronous broadcast repeatedly resets every chain to one")
    print("state - the ensemble collapses, which is the premature")
    print("convergence the paper reports.")


if __name__ == "__main__":
    main()
