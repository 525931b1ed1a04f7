"""Build, cache and load the compiled fitness evaluator (``_fitness.c``).

The C source holds the per-thread fitness program of the paper's kernel:
one O(n) pass per sequence, reading the int32 sequence matrix and the
per-job arrays directly.  This module compiles it once with the system C
compiler and loads it through :mod:`ctypes`:

* flags are fixed (:data:`FLAGS`): ``-O2 -shared -fPIC -ffp-contract=off``
  -- no ``-ffast-math`` or ``-march=native``, so every ISA computes the
  same bits;
* the shared library is cached in this package's ``__pycache__`` under a
  name keyed by a sha256 of the source and the flags, or in a per-user
  temp dir when the package dir cannot be written;
* a build writes to a temp name and ``os.replace``-s it into place, so
  concurrent first builds are safe;
* :data:`LIB` is loaded at import, so forked workers inherit the mapping
  and only the first interpreter ever pays the compile.

:data:`LIB` is ``None`` when no compiler is found or the build fails;
:mod:`repro.seqopt.batched` then runs its NumPy reference instead.  That is
the only selection, and it is made from what this module observes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "FLAGS",
    "LIB",
    "SOURCE",
    "cache_dirs",
    "cdd_objective",
    "find_compiler",
    "load",
    "ucddcp_objective",
]

SOURCE = Path(__file__).with_name("_fitness.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120.0
_BAD_INDEX = 1

_I32P = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_SIZE = ctypes.c_ssize_t


def find_compiler() -> str | None:
    """Path of the system C compiler, or ``None``."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dirs() -> tuple[Path, ...]:
    """Where the shared library is looked for and built, in order."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return (
        Path(__file__).with_name("__pycache__"),
        Path(tempfile.gettempdir()) / f"repro-fitness-{uid}",
    )


def _library_name() -> str:
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(FLAGS).encode())
    return f"_fitness-{digest.hexdigest()[:20]}.so"


def _trusted_dir(directory: Path) -> bool:
    """Create ``directory``; true if code loaded from it is safe to run.

    The temp-dir fallback lives in a shared, world-writable parent, so a
    directory someone else owns or anyone can write to is refused: its
    contents could have been planted.
    """
    try:
        directory.mkdir(mode=0o755, parents=True, exist_ok=True)
        st = directory.stat()
    except OSError:
        return False
    if hasattr(os, "getuid") and st.st_uid not in (0, os.getuid()):
        return False
    return not st.st_mode & 0o002


def _build(compiler: str, target: Path) -> bool | None:
    """Compile into ``target``; ``None`` if its directory is unwritable."""
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=target.name + ".", suffix=".tmp", dir=target.parent
        )
    except OSError:
        return None
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, timeout=_BUILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path) -> ctypes.CDLL | None:
    try:
        lib = ctypes.CDLL(str(path))
        cdd, ucddcp = lib.cdd_objective, lib.ucddcp_objective
    except (OSError, AttributeError):
        return None
    cdd.restype = ucddcp.restype = ctypes.c_int
    cdd.argtypes = [_I32P, _SIZE, _SIZE, _F64P, _F64P, _F64P,
                    ctypes.c_double, _F64P]
    ucddcp.argtypes = [_I32P, _SIZE, _SIZE, _F64P, _F64P, _F64P, _F64P,
                       _F64P, ctypes.c_double, _F64P]
    return lib


def load(dirs: Iterable[Path] | None = None) -> ctypes.CDLL | None:
    """Load the cached library, building it on a miss; ``None`` if neither.

    ``dirs`` defaults to :func:`cache_dirs`.  The first directory that holds
    (or can be made to hold) a loadable build wins.
    """
    try:
        name = _library_name()
    except OSError:
        return None
    compiler = find_compiler()
    for directory in cache_dirs() if dirs is None else dirs:
        if not _trusted_dir(directory):
            continue
        target = directory / name
        if target.exists():
            lib = _open(target)
            if lib is not None:
                return lib
        if compiler is None:
            continue
        built = _build(compiler, target)
        if built is None:
            continue  # unwritable: try the next directory
        return _open(target) if built else None
    return None


#: The compiled evaluator, or ``None`` when it could not be built.
LIB = load()


def _check(rc: int, seqs: np.ndarray) -> None:
    if rc == _BAD_INDEX:
        n = seqs.shape[1]
        raise IndexError(f"job index outside [0, {n}) in the sequence matrix")
    if rc != 0:
        raise MemoryError("compiled fitness evaluator could not allocate")


def _output(seqs: np.ndarray, per_job: tuple[np.ndarray, ...]) -> np.ndarray:
    """Check the shapes the C loop trusts; allocate the ``(S,)`` result."""
    s, n = seqs.shape
    if any(arr.shape != (n,) for arr in per_job):
        raise ValueError(f"per-job arrays must have shape ({n},)")
    return np.empty(s, dtype=np.float64)


def cdd_objective(lib: ctypes.CDLL, seqs: np.ndarray, p: np.ndarray,
                  a: np.ndarray, b: np.ndarray,
                  due_date: float) -> np.ndarray:
    """Optimal CDD objective of every row of the int32 matrix ``seqs``."""
    out = _output(seqs, (p, a, b))
    s, n = seqs.shape
    _check(lib.cdd_objective(seqs, s, n, p, a, b, float(due_date), out), seqs)
    return out


def ucddcp_objective(lib: ctypes.CDLL, seqs: np.ndarray, p: np.ndarray,
                     m: np.ndarray, a: np.ndarray, b: np.ndarray,
                     g: np.ndarray, due_date: float) -> np.ndarray:
    """Optimal UCDDCP objective of every row of the int32 matrix ``seqs``."""
    out = _output(seqs, (p, m, a, b, g))
    s, n = seqs.shape
    rc = lib.ucddcp_objective(seqs, s, n, p, m, a, b, g, float(due_date), out)
    _check(rc, seqs)
    return out
