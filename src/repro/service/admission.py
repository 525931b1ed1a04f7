"""Admission control: validate and bound work before it is queued.

The service promises that everything behind the queue is *well-formed*:
a job that was admitted can only fail by executing, never by parsing.
That promise is kept here, at the front door —

* request bodies are checked structurally (field whitelist, instance
  record shape) and *semantically*, by eagerly constructing the method's
  real configuration dataclass.  That reuses the shared config-validation
  mixins (:mod:`repro.core.engine.config`) verbatim: the service rejects
  exactly what the solver would reject, with the same messages, but at
  submission time with a 400 instead of mid-solve with a dead job.
* execution knobs (worker counts, host topologies, fault plans, pool
  deadlines) are *server* policy, never request payload: a request that
  tries to smuggle one in via ``config`` is refused.
* the resolved configuration comes back in canonical form — defaults
  filled in, identity fields (seed, device profile) split out — which is
  what makes the result cache's key insensitive to how a client spells
  an equivalent request (``{}`` versus ``{"iterations": 1000}``).

Capacity bounds (queue depth, batch size, body size, 429 back-off) live
on :class:`AdmissionPolicy` next to the validation they gate.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping

from repro.core.engine.backends import BACKENDS
from repro.core.engine.config import check_retries, check_timeout
from repro.core.solver import (
    method_accepts_backend,
    method_config_cls,
    solver_methods,
)
from repro.gpusim.profiles import DEFAULT_PROFILE
from repro.pool.net import parse_host_specs
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance

__all__ = [
    "AdmissionPolicy",
    "RESERVED_CONFIG_KEYS",
    "ValidatedJob",
    "ValidationError",
    "validate_request",
]


class ValidationError(ValueError):
    """A request the service refuses to queue (HTTP 400)."""


#: Execution knobs owned by the server's policy, not by requests.  A
#: client that could set worker counts, host topologies, supervision
#: budgets or fault plans per request could degrade service for every
#: other client — and none of these affect the *result*, so they must
#: never reach the cache key either.  (``backend`` is deliberately not
#: here: the engine backend is the top-level request field, and the name
#: ``backend`` inside ``config`` is ``serial_sa``'s evaluator selector.)
RESERVED_CONFIG_KEYS = frozenset({
    "workers", "hosts", "task_timeout", "task_retries", "pool_faults",
    "net_faults", "local_fallback", "heartbeat_interval_s",
    "heartbeat_timeout_s", "connect_timeout_s", "io_timeout_s",
    "reconnect_attempts", "backoff_base_s", "backoff_factor",
    "backoff_max_s",
})

_REQUEST_FIELDS = frozenset({
    "instance", "method", "config", "backend", "deadline_s",
    "idempotency_key",
})

#: Idempotency keys are operator-grep-able strings, not blobs.
_MAX_IDEMPOTENCY_KEY_LEN = 200

_INSTANCE_KINDS: dict[str, Callable[[Mapping[str, Any]], Any]] = {
    "cdd": CDDInstance.from_dict,
    "ucddcp": UCDDCPInstance.from_dict,
}


@dataclasses.dataclass(frozen=True)
class AdmissionPolicy:
    """Server-side capacity and defaulting policy.

    ``queue_cap`` bounds jobs *waiting* to run (in-flight jobs are
    bounded separately by the worker count); past it, submissions get
    429 with ``Retry-After: retry_after_s``.  ``default_backend`` is the
    engine backend used when a request names none; ``hosts`` is the
    distributed topology (``None`` = ``backend="distributed"`` requests
    are refused, and it cannot be the default).  Both are checked here, so
    a bad topology stops ``repro serve`` at startup.
    """

    queue_cap: int = 16
    max_batch: int = 32
    max_body_bytes: int = 1 << 20
    default_backend: str = "vectorized"
    retry_after_s: float = 1.0
    hosts: str | None = None

    def __post_init__(self) -> None:
        if self.queue_cap < 1:
            raise ValueError(
                f"queue_cap must be >= 1, got {self.queue_cap}"
            )
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        check_timeout(self.retry_after_s, "retry_after_s")
        if self.default_backend not in BACKENDS:
            raise ValueError(
                f"unknown default_backend {self.default_backend!r}; "
                f"choose from {tuple(BACKENDS)}"
            )
        if self.hosts is not None:
            parse_host_specs(self.hosts)
        elif self.default_backend == "distributed":
            raise ValueError(
                "default_backend 'distributed' requires a host topology "
                "(--hosts)"
            )


@dataclasses.dataclass(frozen=True)
class ValidatedJob:
    """An admitted request, resolved into its executable and cacheable
    halves.

    ``solve_kwargs`` is exactly what the pool worker's
    :func:`~repro.pool.worker.solve_one` forwards to the solver façade
    (the client's own spelling, plus the resolved engine backend and the
    server's host topology where applicable).  ``canonical_config`` is
    the fully resolved configuration — defaults filled in by the config
    dataclass, seed and device profile split out as their own identity
    components — that the cache digests, so equivalent requests share a
    key regardless of spelling.
    """

    instance: Any
    method: str
    backend: str | None
    solve_kwargs: dict[str, Any]
    canonical_config: dict[str, Any]
    seed: int
    device_profile: str
    deadline_s: float | None
    #: Client-supplied dedup handle; never part of the cache key (it
    #: names the *submission*, not the solve) and journaled so duplicate
    #: resubmissions return the original job id across restarts.
    idempotency_key: str | None = None


def _parse_instance(body: Mapping[str, Any]) -> Any:
    data = body.get("instance")
    if not isinstance(data, dict):
        raise ValidationError(
            "'instance' must be an object in the instance to_dict form "
            "(kind 'cdd' or 'ucddcp')"
        )
    kind = data.get("kind", "cdd")
    from_dict = _INSTANCE_KINDS.get(kind)
    if from_dict is None:
        raise ValidationError(
            f"unknown instance kind {kind!r}; choose from "
            f"{tuple(sorted(_INSTANCE_KINDS))}"
        )
    try:
        return from_dict(data)
    except ValidationError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ValidationError(f"bad instance record: {exc}") from exc


def _parse_idempotency_key(body: Mapping[str, Any]) -> str | None:
    key = body.get("idempotency_key")
    if key is None:
        return None
    if not isinstance(key, str) or not key.strip():
        raise ValidationError(
            f"idempotency_key must be a non-empty string, got {key!r}"
        )
    if len(key) > _MAX_IDEMPOTENCY_KEY_LEN:
        raise ValidationError(
            f"idempotency_key of {len(key)} chars exceeds the "
            f"{_MAX_IDEMPOTENCY_KEY_LEN}-char limit"
        )
    return key


def _parse_deadline(body: Mapping[str, Any]) -> float | None:
    deadline = body.get("deadline_s")
    if deadline is None:
        return None
    if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
        raise ValidationError(
            f"deadline_s must be a positive number, got {deadline!r}"
        )
    try:
        check_timeout(float(deadline), "deadline_s")
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return float(deadline)


def validate_request(
    body: Any, policy: AdmissionPolicy
) -> ValidatedJob:
    """Validate one submission body; :class:`ValidationError` on refusal.

    The config is constructed through the method's real configuration
    dataclass, so every ``check_*`` the solver would run fires here —
    admitted jobs cannot fail on configuration.
    """
    if not isinstance(body, dict):
        raise ValidationError("request body must be a JSON object")
    unknown = set(body) - _REQUEST_FIELDS
    if unknown:
        raise ValidationError(
            f"unknown request field(s) {sorted(unknown)}; expected "
            f"{sorted(_REQUEST_FIELDS)}"
        )
    instance = _parse_instance(body)
    method = body.get("method", "parallel_sa")
    if method not in solver_methods():
        raise ValidationError(
            f"unknown method {method!r}; choose from {solver_methods()}"
        )
    config = body.get("config", {})
    if not isinstance(config, dict):
        raise ValidationError("'config' must be an object of solve kwargs")
    reserved = RESERVED_CONFIG_KEYS.intersection(config)
    if reserved:
        raise ValidationError(
            f"config key(s) {sorted(reserved)} are execution knobs owned "
            "by the service (set them server-side: repro serve --help)"
        )
    backend = body.get("backend")
    if backend is not None and backend not in BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r}; choose from {tuple(BACKENDS)}"
        )
    if method_accepts_backend(method):
        if backend is None:
            backend = policy.default_backend
        if backend == "distributed" and policy.hosts is None:
            raise ValidationError(
                "backend 'distributed' requires the service to be "
                "started with --hosts"
            )
    elif backend is not None:
        raise ValidationError(
            f"method {method!r} runs on the host and takes no engine "
            "backend; drop the 'backend' field"
        )

    config_cls = method_config_cls(method)
    if config_cls is None:
        if config:
            raise ValidationError(
                f"method {method!r} takes no config, got key(s) "
                f"{sorted(config)}"
            )
        canonical: dict[str, Any] = {}
    else:
        try:
            resolved = config_cls(**config)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"bad config for method {method!r}: {exc}"
            ) from exc
        canonical = dataclasses.asdict(resolved)
    seed = int(canonical.pop("seed", 0))
    device_profile = str(canonical.pop("device_profile", DEFAULT_PROFILE))
    # JSON requests cannot carry an explicit DeviceSpec; the field is
    # always its None default here and would only add repr noise.
    canonical.pop("device_spec", None)
    # The engine backend participates in result identity conservatively
    # (distinct from serial_sa's evaluator field, which stays in the
    # config under its own name).
    canonical["engine_backend"] = backend

    solve_kwargs = dict(config)
    if method_accepts_backend(method):
        solve_kwargs["backend"] = backend
        if backend == "distributed":
            solve_kwargs["hosts"] = policy.hosts
    return ValidatedJob(
        instance=instance,
        method=method,
        backend=backend,
        solve_kwargs=solve_kwargs,
        canonical_config=canonical,
        seed=seed,
        device_profile=device_profile,
        deadline_s=_parse_deadline(body),
        idempotency_key=_parse_idempotency_key(body),
    )
