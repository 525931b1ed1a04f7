"""Shared validation for the solver configuration dataclasses.

The six ``*Config`` dataclasses used to repeat the same ``__post_init__``
checks (iteration/grid/block positivity, perturbation-size floor, the
``init`` policy whitelist, probability ranges, the ``population`` property).
These helpers and mixins centralize them; the exact error messages are part
of the public contract (tests match on them), so keep the wording stable.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from typing import TYPE_CHECKING

from repro.gpusim.profiles import get_profile

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import DeviceSpec
    from repro.gpusim.timing import TimingModel

__all__ = [
    "check_positive_iterations",
    "check_grid_block",
    "check_pert_size",
    "check_position_refresh",
    "check_init_policy",
    "check_probabilities",
    "check_start_temperature",
    "check_choice",
    "check_retries",
    "check_timeout",
    "check_backoff",
    "check_workers",
    "DeviceSelectionMixin",
    "EnsembleGeometryMixin",
    "NeighborhoodConfigMixin",
    "RetryPolicyMixin",
]

INIT_POLICIES = ("random", "vshape")


def check_positive_iterations(value: int, label: str = "iterations") -> None:
    """Iteration/generation counts must be at least 1."""
    if value < 1:
        raise ValueError(f"{label} must be positive")


def check_grid_block(grid_size: int, block_size: int) -> None:
    """Launch geometry of the ensemble drivers must be non-degenerate."""
    if grid_size < 1 or block_size < 1:
        raise ValueError("grid and block sizes must be positive")


def check_pert_size(pert_size: int) -> None:
    """The Fisher--Yates sub-sequence needs at least two positions."""
    if pert_size < 2:
        raise ValueError("perturbation size must be at least 2")


def check_position_refresh(position_refresh: int) -> None:
    """The perturbation-position refresh period must be at least 1."""
    if position_refresh < 1:
        raise ValueError("position_refresh must be at least 1")


def check_init_policy(init: str) -> None:
    """Initial-population policy whitelist (see :mod:`repro.initialization`)."""
    if init not in INIT_POLICIES:
        raise ValueError(f"unknown init policy {init!r}")


def check_probabilities(config: object, *names: str) -> None:
    """Operator gate probabilities must be valid Bernoulli parameters."""
    for name in names:
        v = getattr(config, name)
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {v}")


def check_start_temperature(
    t0: float | None, samples: int, label: str = "t0"
) -> None:
    """A start temperature is given finite and >= 0, or estimated.

    0 is legal: it means greedy descent.  The estimate (the standard
    deviation of ``samples`` random sequences' fitness) needs an integer
    sample count of at least 2; it is checked even when ``t0`` is given,
    so a configuration is valid or not whatever the other field holds.
    """
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError(
            f"{label}_samples must be an integer >= 2, got {samples!r}"
        )
    if t0 is None:
        return
    if not (isinstance(t0, numbers.Real) and math.isfinite(t0) and t0 >= 0):
        raise ValueError(f"{label} must be finite and >= 0, got {t0!r}")


def check_choice(label: str, value: str, allowed: tuple[str, ...]) -> None:
    """Enumerated-string fields (variant/coupling/...) must be known."""
    if value not in allowed:
        raise ValueError(f"unknown {label} {value!r}")


def check_retries(value: int, label: str = "max_retries") -> None:
    """Retry budgets are counts of *re*-attempts: zero is fine, less is not."""
    if value < 0:
        raise ValueError(f"{label} must be >= 0, got {value}")


def check_timeout(value: float | None, label: str = "unit_timeout_s") -> None:
    """Deadlines are either absent (``None``) or strictly positive seconds."""
    if value is not None and not value > 0:
        raise ValueError(f"{label} must be positive, got {value}")


def check_backoff(base_s: float, factor: float, max_s: float) -> None:
    """Exponential-backoff knobs must describe a non-shrinking schedule."""
    if base_s < 0:
        raise ValueError(f"backoff_base_s must be >= 0, got {base_s}")
    if factor < 1.0:
        raise ValueError(f"backoff_factor must be >= 1, got {factor}")
    if max_s < base_s:
        raise ValueError(
            f"backoff_max_s ({max_s}) must be >= backoff_base_s ({base_s})"
        )


def check_workers(value: int | None, label: str = "workers") -> None:
    """Worker-process counts: ``None`` means "pick for me", else >= 1.

    Oversubscription is legal (the pool degrades to time-slicing) but almost
    never what the caller wanted, so it warns instead of raising.
    """
    if value is None:
        return
    if value < 1:
        raise ValueError(f"{label} must be >= 1, got {value}")
    ncpu = os.cpu_count()
    if ncpu is not None and value > ncpu:
        warnings.warn(
            f"{label}={value} exceeds os.cpu_count()={ncpu}; "
            "workers will time-slice",
            RuntimeWarning,
            stacklevel=3,
        )


class DeviceSelectionMixin:
    """Device selection shared by the parallel configurations.

    Two fields pick the modeled device: ``device_profile`` names a
    registered generation (:mod:`repro.gpusim.profiles`; default the
    paper's GT 560M), and ``device_spec`` -- when not ``None`` --
    overrides it with an explicit :class:`~repro.gpusim.device.DeviceSpec`
    (the ablation-bench path: ``spec.with_overrides(...)`` copies have no
    registry name).  Consumers must go through :meth:`resolve_device_spec`
    / :meth:`resolve_timing_model` rather than reading the fields raw.
    """

    device_profile: str
    device_spec: "DeviceSpec | None"

    def _check_device(self) -> None:
        # Resolve eagerly so an unknown profile name fails at config
        # construction with the registry listed, not mid-solve.
        if self.device_spec is None:
            get_profile(self.device_profile)

    def resolve_device_spec(self) -> "DeviceSpec":
        """The spec launches are modeled on (explicit spec wins)."""
        if self.device_spec is not None:
            return self.device_spec
        return get_profile(self.device_profile).spec

    def resolve_timing_model(self) -> "TimingModel":
        """The timing model the profile charges time through."""
        if self.device_spec is not None:
            from repro.gpusim.timing import TimingModel

            return TimingModel.default()
        return get_profile(self.device_profile).create_timing_model()


class EnsembleGeometryMixin:
    """Grid/block geometry shared by the parallel (one-chain-per-thread)
    configurations: validation plus the derived ensemble size."""

    grid_size: int
    block_size: int
    iterations: int

    def _check_geometry(self) -> None:
        check_positive_iterations(self.iterations)
        check_grid_block(self.grid_size, self.block_size)

    @property
    def population(self) -> int:
        """Total number of chains/particles (threads)."""
        return self.grid_size * self.block_size


class NeighborhoodConfigMixin:
    """Fisher--Yates sub-sequence neighborhood parameters (SA/TA family)."""

    pert_size: int
    position_refresh: int

    def _check_neighborhood(self) -> None:
        check_pert_size(self.pert_size)
        check_position_refresh(self.position_refresh)


class RetryPolicyMixin:
    """Retry/backoff/deadline knobs of the resilient execution layer.

    Shared by :class:`repro.resilience.RetryPolicy` (and anything else that
    grows retry semantics) so the CLI, the experiments harness and the
    best-known recompute all reject bad knobs with the same messages.
    """

    max_retries: int
    backoff_base_s: float
    backoff_factor: float
    backoff_max_s: float
    unit_timeout_s: float | None

    def _check_retry_policy(self) -> None:
        check_retries(self.max_retries)
        check_timeout(self.unit_timeout_s)
        check_backoff(self.backoff_base_s, self.backoff_factor,
                      self.backoff_max_s)
