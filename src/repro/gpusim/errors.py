"""Error hierarchy of the simulated CUDA runtime — and the shared
transient/fatal taxonomy.

Mirrors the spirit of the CUDA driver error codes: configuration problems
surface at launch time, allocation problems at ``malloc`` time, and misuse of
handles (freed buffers, foreign-device buffers) raises immediately rather
than corrupting state.

This module is also the home of the resilience layer's error taxonomy.
Every failure domain (the simulated device here, the process pool in
:mod:`repro.pool.errors`) registers its *transient* error types via
:func:`register_transient`; :func:`classify_error` then sorts any
exception into ``"transient"`` (a retry can plausibly clear it) or
``"fatal"`` (it cannot).  The registry lives at the bottom of the import
graph so leaf modules can self-register without circular imports.
"""

from __future__ import annotations

__all__ = [
    "CudaError",
    "InvalidLaunchError",
    "DeviceAllocationError",
    "InvalidHandleError",
    "ConstantMemoryError",
    "DeviceUnavailableError",
    "LaunchTimeoutError",
    "register_transient",
    "transient_types",
    "classify_error",
]


class CudaError(RuntimeError):
    """Base class for all simulated CUDA runtime errors."""


class InvalidLaunchError(CudaError):
    """Launch configuration violates a device limit.

    Corresponds to ``cudaErrorInvalidConfiguration`` (e.g. more threads per
    block than the device supports, zero-sized dimensions, or a block using
    more shared memory or registers than available).
    """


class DeviceAllocationError(CudaError):
    """Global-memory allocation failed (``cudaErrorMemoryAllocation``)."""


class InvalidHandleError(CudaError):
    """A device buffer handle is stale or belongs to a different device."""


class ConstantMemoryError(CudaError):
    """Constant-memory capacity exceeded or unknown symbol referenced."""


class DeviceUnavailableError(CudaError):
    """The device is momentarily unusable (``cudaErrorDevicesUnavailable``).

    On real hardware this is a co-tenancy/driver condition that clears on
    its own; the resilient execution layer classifies it as *transient*
    and retries with backoff.
    """


class LaunchTimeoutError(CudaError):
    """A launch exceeded the watchdog (``cudaErrorLaunchTimeout``).

    Display-attached devices kill long kernels; a retry (possibly after
    the display load subsides) can succeed, so this is also *transient*.
    """


# ---------------------------------------------------------------------------
# The transient/fatal taxonomy registry
# ---------------------------------------------------------------------------

_TRANSIENT_REGISTRY: list[type[BaseException]] = []


def register_transient(*error_types: type[BaseException]) -> None:
    """Register error types a retry can plausibly clear.

    Called at import time by each failure domain (device errors below,
    pool transport errors in :mod:`repro.pool.errors`).  Registration is
    idempotent and subclass-aware: registering a base type makes every
    subclass transient too.
    """
    for tp in error_types:
        if tp not in _TRANSIENT_REGISTRY:
            _TRANSIENT_REGISTRY.append(tp)  # repro-lint: disable=RPL006 -- import-time idempotent registration: register_transient runs from module bodies during import, never post-import, so fork/spawn workers all rebuild identical registry state


def transient_types() -> tuple[type[BaseException], ...]:
    """All currently registered transient error types (a snapshot)."""
    return tuple(_TRANSIENT_REGISTRY)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` or ``"fatal"`` per the registered taxonomy.

    Anything unregistered — ``DeviceAllocationError`` (an oversized
    instance will not fit on the second try either), configuration
    errors, and all ordinary Python exceptions — is fatal.
    """
    return (
        "transient" if isinstance(exc, tuple(_TRANSIENT_REGISTRY)) else "fatal"
    )


register_transient(DeviceUnavailableError, LaunchTimeoutError)
