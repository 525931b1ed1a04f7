"""The in-process solve's primitive order, pinned on caller-supplied backends.

A caller may hand ``backend=`` a ready :class:`ExecutionBackend` instance;
the layered benchmark's ``GenerationClock``/``TimingBackend`` do exactly
that and read the gaps between ``synchronize`` calls as generation times.
The engine driver therefore promises, per in-process solve: one ``open``,
one ``upload``, ``iterations + 1`` ``synchronize`` calls (one per
generation, one before the download) and two ``download`` calls (best
sequence, best energy), and it runs the strategy's host-side ``prepare``
(the T0 estimate) exactly once.
"""

from collections import Counter

import pytest

from repro.core.engine import GpusimBackend, VectorizedBackend
from repro.core.parallel_dpso import ParallelDPSOStrategy
from repro.core.parallel_sa import ParallelSAStrategy
from repro.core.solver import CDDSolver, UCDDCPSolver
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance

ITERATIONS = 7
PRIMITIVES = ("open", "upload", "synchronize", "download")


def _recording(base):
    class Recording(base):
        def __init__(self):
            super().__init__()
            self.calls = Counter()

        def open(self, *args, **kwargs):
            self.calls["open"] += 1
            return super().open(*args, **kwargs)

        def upload(self, buf, host):
            self.calls["upload"] += 1
            return super().upload(buf, host)

        def synchronize(self):
            self.calls["synchronize"] += 1
            return super().synchronize()

        def download(self, buf):
            self.calls["download"] += 1
            return super().download(buf)

    return Recording()


@pytest.mark.parametrize("base", [VectorizedBackend, GpusimBackend])
@pytest.mark.parametrize(
    "solver, method, strategy_cls",
    [
        (CDDSolver(biskup_instance(12, 0.4, 1)), "parallel_sa",
         ParallelSAStrategy),
        (UCDDCPSolver(ucddcp_instance(10, 1)), "parallel_dpso",
         ParallelDPSOStrategy),
    ],
    ids=["cdd-sa", "ucddcp-dpso"],
)
def test_primitive_order(monkeypatch, base, solver, method, strategy_cls):
    prepares = []
    original = strategy_cls.prepare

    def counting_prepare(self, adapter, host_rng):
        prepares.append(self)
        return original(self, adapter, host_rng)

    monkeypatch.setattr(strategy_cls, "prepare", counting_prepare)
    backend = _recording(base)
    result = solver.solve(
        method, backend=backend, iterations=ITERATIONS, grid_size=2,
        block_size=8, seed=3,
    )
    assert {name: backend.calls[name] for name in PRIMITIVES} == {
        "open": 1,
        "upload": 1,
        "synchronize": ITERATIONS + 1,
        "download": 2,
    }
    assert len(prepares) == 1
    assert result.params["backend"] == base.name
    assert (result.modeled_device_time_s is not None) == (
        base.models_device_time
    )
