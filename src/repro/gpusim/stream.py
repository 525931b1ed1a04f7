"""Asynchronous execution semantics: streams and device synchronization.

CUDA kernel launches are asynchronous with respect to the host: they join a
queue and the CPU runs ahead until an explicit synchronization ("all kernel
calls are asynchronous and inside a queue ... the synchronization operation
is performed by the CPU", Section VI-D).  The simulated :class:`Stream`
reproduces this with two clocks:

* the *device clock* advances as queued work (kernels, copies) executes
  back-to-back in issue order;
* the *host clock* advances only by host-side work and by waiting in
  ``synchronize()`` until the device clock catches up.

The experiment harness reads total runtimes off these clocks, so a pipeline
that forgets to synchronize before reading results back is charged (and
caught by tests) just like real CUDA code would be wrong.
"""

from __future__ import annotations

__all__ = ["Stream"]


class Stream:
    """A single in-order work queue with a simulated completion clock."""

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._tail = 0.0  # device time at which all queued work is done

    @property
    def tail_time(self) -> float:
        """Device time when the last enqueued operation completes."""
        return self._tail

    def enqueue(self, earliest_start: float, duration: float) -> tuple[float, float]:
        """Queue an operation; returns its simulated ``(start, end)`` times.

        The operation starts when both the stream is free and
        ``earliest_start`` (e.g. the host clock at issue time) has passed.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(self._tail, earliest_start)
        self._tail = start + duration
        return start, self._tail

    def wait(self, host_time: float) -> float:
        """Host-side synchronize: returns the new host clock."""
        return max(host_time, self._tail)
