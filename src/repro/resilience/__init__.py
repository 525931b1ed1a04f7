"""Fault-tolerant experiment execution.

The missing layer between "research script" and "service": classified
errors, bounded retries, durable partial progress and graceful
degradation.  See ``docs/resilience.md`` for the work-unit model, the
transient/fatal taxonomy, the checkpoint file format and resume semantics.
"""

from repro.resilience.atomic import (
    atomic_write_text,
    durable_append_text,
    record_crc,
)
from repro.resilience.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_OPS,
    FaultPlan,
    FaultSpec,
    parse_fault,
)
from repro.resilience.runner import (
    TRANSIENT_ERRORS,
    ResilientRunner,
    RetryPolicy,
    RunReport,
    UnitOutcome,
    WorkUnit,
    classify_error,
)

__all__ = [
    "atomic_write_text",
    "durable_append_text",
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "record_crc",
    "FAULT_KINDS",
    "FAULT_OPS",
    "FaultPlan",
    "FaultSpec",
    "parse_fault",
    "TRANSIENT_ERRORS",
    "ResilientRunner",
    "RetryPolicy",
    "RunReport",
    "UnitOutcome",
    "WorkUnit",
    "classify_error",
]
