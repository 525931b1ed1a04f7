"""Runtime studies: the Figure 11 surface and the Figure 14/16 curves.

Figure 11 plots the runtime of the parallel UCDDCP fitness evaluations as a
function of the thread count (population) and the number of generations.
The surface is regenerated from the device model directly: one fitness
launch per thread count gives the per-generation kernel duration (including
the stepwise block-wave behaviour as threads exceed what the SMs co-run),
which scales linearly in the generation count.

Figures 14/16 (runtime of the four parallel variants and the serial CPU
implementation versus job size) reuse the measurement pass of
:mod:`repro.experiments.speedup`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.ascii_plot import line_plot
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.modeled import modeled_fitness_launch
from repro.experiments.speedup import SpeedupStudy, run_speedup_study
from repro.experiments.tables import render_table
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.resilience import ResilientRunner, RunReport, WorkUnit

__all__ = [
    "RuntimeSurface",
    "RuntimeCurves",
    "run_runtime_surface",
    "run_runtime_curves",
]


@dataclass
class RuntimeSurface:
    """Figure 11 data: modeled seconds per (thread count, generations)."""

    n_jobs: int
    thread_counts: tuple[int, ...]
    generations: tuple[int, ...]
    seconds: np.ndarray  # shape (len(thread_counts), len(generations))
    per_launch_s: np.ndarray  # shape (len(thread_counts),)
    #: Resilience report of the measurement pass (failed thread counts are
    #: NaN rows, listed in the rendered footnote).
    report: RunReport | None = None

    def render(self) -> str:
        """The surface as a table plus per-thread-count launch durations."""
        rows = [
            [t, *self.seconds[i]] for i, t in enumerate(self.thread_counts)
        ]
        tab = render_table(
            ["Threads \\ Gens", *self.generations], rows,
            title=(
                f"Fig 11 analogue: modeled fitness-evaluation time (s), "
                f"UCDDCP n={self.n_jobs}"
            ),
        )
        series = {
            f"{g} gens": self.seconds[:, j].tolist()
            for j, g in enumerate(self.generations)
        }
        fig = line_plot(
            list(self.thread_counts), series, logy=True,
            title="runtime vs threads (one line per generation count)",
        )
        sections = [tab, fig]
        if self.report is not None:
            footnote = self.report.footnote()
            if footnote:
                sections.append(footnote)
        return "\n\n".join(sections)


def _surface_point_fn(instance, threads: int, block_size: int, fault_plan):
    """Work-unit body of one thread-count point of the Fig 11 surface."""

    def run() -> dict:
        per_launch, _ = modeled_fitness_launch(
            instance, threads, min(block_size, threads), fault_plan
        )
        return {"threads": threads, "per_launch_s": per_launch}

    return run


def run_runtime_surface(
    scale: ExperimentScale | None = None,
    block_size: int = 192,
    runner: ResilientRunner | None = None,
) -> RuntimeSurface:
    """Regenerate the Figure 11 surface at the scale's grid.

    Each thread count is one work unit of ``runner``; a failed point
    leaves a NaN row in the surface instead of aborting the figure.
    """
    scale = scale or get_scale()
    runner = runner or ResilientRunner()
    n = scale.fig11_n
    instance = ucddcp_instance(n, 1)
    thread_counts = scale.fig11_thread_counts
    generations = scale.fig11_generations

    units = [
        WorkUnit(
            key=f"ucddcp_n{n}|threads{threads}",
            run=_surface_point_fn(instance, threads, block_size,
                                  runner.fault_plan),
        )
        for threads in thread_counts
    ]
    checkpoint = runner.checkpoint_for(f"runtime_surface_{scale.name}")
    report = runner.run_units(units, checkpoint)

    per_launch = np.full(len(thread_counts), np.nan)
    by_threads = {
        o.payload["threads"]: o.payload["per_launch_s"]
        for o in report.completed
    }
    for i, threads in enumerate(thread_counts):
        if threads in by_threads:
            per_launch[i] = by_threads[threads]

    seconds = per_launch[:, None] * np.asarray(generations)[None, :]
    return RuntimeSurface(
        n_jobs=n,
        thread_counts=thread_counts,
        generations=generations,
        seconds=seconds,
        per_launch_s=per_launch,
        report=report,
    )


@dataclass
class RuntimeCurves:
    """Figure 14/16 data, derived from a :class:`SpeedupStudy`."""

    study: SpeedupStudy

    def render(self) -> str:
        """Runtime table + ASCII figure."""
        return self.study.render_runtime_curves()


def run_runtime_curves(
    problem: str = "cdd",
    scale: ExperimentScale | None = None,
    runner: ResilientRunner | None = None,
) -> RuntimeCurves:
    """Regenerate the Figure 14 (CDD) or 16 (UCDDCP) curves."""
    return RuntimeCurves(study=run_speedup_study(problem, scale,
                                                 runner=runner))
