"""Build, cache and fallback behavior of the compiled fitness evaluator."""

import errno
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import CDDSolver, UCDDCPSolver
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.seqopt import compiled

SRC = Path(__file__).resolve().parents[1] / "src"

needs_compiler = pytest.mark.skipif(
    compiled.find_compiler() is None, reason="no C compiler on PATH"
)

# Builds into ``argv[1]`` once a start file appears, then prints the
# objectives of a fixed matrix as exact float hex strings.
_BUILD_AND_EVAL = """
import sys, time
from pathlib import Path
import numpy as np
from repro.instances.biskup import biskup_instance
from repro.seqopt import compiled

cache, start = Path(sys.argv[1]), Path(sys.argv[2])
while not start.exists():
    time.sleep(0.001)
lib = compiled.load((cache,))
assert lib is not None
inst = biskup_instance(200, 0.4, 2)
seqs = np.argsort(np.random.default_rng(5).random((64, 200)), axis=1)
seqs = seqs.astype(np.int32)
out = compiled.cdd_objective(lib, seqs, inst.processing, inst.alpha,
                             inst.beta, inst.due_date)
print(" ".join(float(x).hex() for x in out))
"""


def _result_bytes(result) -> str:
    doc = result.to_dict()
    doc.pop("wall_time_s")
    return json.dumps(doc, sort_keys=True)


def _solves() -> list[str]:
    cdd = CDDSolver(biskup_instance(n=40, h=0.4, k=1))
    ucddcp = UCDDCPSolver(ucddcp_instance(30, 1))
    kw = dict(iterations=40, grid_size=2, block_size=32, seed=7,
              backend="vectorized")
    # parallel_dpso under every social attractor: the update kernel's
    # crossovers run compiled too.
    runs = [("parallel_sa", {})] + [
        ("parallel_dpso", {"coupling": coupling})
        for coupling in ("async", "ring", "coupled")
    ]
    # serial_ta estimates its start threshold like the SA's T0: random
    # permutations ranked in C, scored in C.
    serial = dict(iterations=40, seed=7, walkers=4)
    return [
        _result_bytes(solver.solve(method, **kw, **extra))
        for solver in (cdd, ucddcp)
        for method, extra in runs
    ] + [_result_bytes(solver.solve("serial_ta", **serial))
         for solver in (cdd, ucddcp)]


class TestLoader:
    def test_compiled_path_loaded_when_compiler_present(self):
        # CI must not fall back silently: a host with a compiler runs C.
        if compiled.find_compiler() is not None:
            assert compiled.LIB is not None

    @needs_compiler
    def test_concurrent_first_builds(self, tmp_path):
        cache, start = tmp_path / "cache", tmp_path / "start"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _BUILD_AND_EVAL, str(cache), str(start)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env,
            )
            for _ in range(2)
        ]
        start.touch()
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        assert outs[0][0] == outs[1][0] and outs[0][0].strip()
        # One published library, no temp files left behind.
        assert [p.suffix for p in cache.iterdir()] == [".so"]

    @needs_compiler
    def test_read_only_package_dir_falls_back_to_temp(self, tmp_path,
                                                      monkeypatch):
        package, fallback = tmp_path / "pkg", tmp_path / "user-tmp"
        package.mkdir()
        real_mkstemp = tempfile.mkstemp

        def mkstemp(*args, dir=None, **kwargs):
            if dir is not None and Path(dir) == package:  # read-only install
                raise OSError(errno.EROFS, "Read-only file system", dir)
            return real_mkstemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(compiled.tempfile, "mkstemp", mkstemp)
        monkeypatch.setattr(compiled, "cache_dirs",
                            lambda: (package, fallback))
        assert compiled.load() is not None
        assert list(package.iterdir()) == []
        assert [p.suffix for p in fallback.iterdir()] == [".so"]

    @needs_compiler
    def test_build_lacking_a_symbol_is_no_build(self, tmp_path):
        # A library with the fitness passes but not the crossovers.
        assert compiled._open(self._partial_build(
            tmp_path, "cdd_objective", "ucddcp_objective"
        )) is None

    @needs_compiler
    def test_build_lacking_the_rank_is_no_build(self, tmp_path):
        assert compiled._open(self._partial_build(
            tmp_path, "cdd_objective", "ucddcp_objective", "crossover"
        )) is None

    @staticmethod
    def _partial_build(tmp_path, *symbols):
        """A library that exports only ``symbols`` (each returning 0)."""
        source = tmp_path / "partial.c"
        source.write_text("".join(
            f"int {name}(void) {{ return 0; }}\n" for name in symbols
        ))
        target = tmp_path / "partial.so"
        subprocess.run(
            [compiled.find_compiler(), *compiled.FLAGS, "-o", str(target),
             str(source)],
            check=True, capture_output=True,
        )
        return target

    def test_world_writable_dir_is_refused(self, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        assert compiled.load((shared,)) is None
        assert list(shared.iterdir()) == []

    @needs_compiler
    def test_numpy_fallback_is_byte_identical(self, tmp_path, monkeypatch):
        with_c = _solves()
        monkeypatch.setattr(compiled, "find_compiler", lambda: None)
        lib = compiled.load((tmp_path,))
        assert lib is None
        monkeypatch.setattr(compiled, "LIB", lib)
        assert _solves() == with_c

    def test_compiled_matches_reference_at_scale(self):
        if compiled.LIB is None:
            pytest.skip("no compiled build on this host")
        from tests.test_batched import reference_cdd

        inst = biskup_instance(1000, 0.2, 3)
        seqs = np.argsort(np.random.default_rng(1).random((96, 1000)), axis=1)
        out = compiled.cdd_objective(
            compiled.LIB, seqs.astype(np.int32), inst.processing, inst.alpha,
            inst.beta, inst.due_date,
        )
        assert np.array_equal(out, reference_cdd(inst, seqs))
