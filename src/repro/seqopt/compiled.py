"""Build, cache and load the compiled kernel bodies (``_fitness.c``).

The C source holds two per-thread programs of the paper's kernels, each
one O(n) pass per row of an int32 ``(S, n)`` matrix, and one host pass:

* the fitness program: the optimal CDD/UCDDCP objective of a sequence,
  reading the per-job arrays directly (:func:`cdd_objective`,
  :func:`ucddcp_objective`);
* the DPSO update's permutation crossovers F2 and F3 as one pass with an
  n-byte "used" bitmap (:func:`crossover`; F2 keeps the segment from 0).
  It is a pure integer pass over cuts and gates drawn by the caller;
* the rank of uniform keys in ``[0, 1)``: ``np.argsort`` of each float64
  row as int32, by a 2n-bucket pass (:func:`rank_uniform`).  It draws the
  random permutations of :func:`repro.permutation.random_permutations`,
  so the SA start-temperature estimate can stream its 5000 samples.

This module compiles the source once with the system C compiler and loads
it through :mod:`ctypes`:

* flags are fixed (:data:`FLAGS`): ``-O2 -shared -fPIC -ffp-contract=off``
  -- no ``-ffast-math`` or ``-march=native``, so every ISA computes the
  same bits;
* the shared library is cached in this package's ``__pycache__`` under a
  name keyed by a sha256 of the source and the flags, or in a per-user
  temp dir when the package dir cannot be written;
* a build writes to a temp name and ``os.replace``-s it into place, so
  concurrent first builds are safe;
* :data:`LIB` is loaded at import, so forked workers inherit the mapping
  and only the first interpreter ever pays the compile;
* every symbol is bound at load or none is: a build that lacks one is
  treated as no build.

:data:`LIB` is ``None`` when no compiler is found or the build fails;
:mod:`repro.seqopt.batched` and :mod:`repro.permutation` then run their
NumPy references instead.  That is the only selection, and it is made from
what this module observes.
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
    "check_range",
    "crossover",
    "find_compiler",
    "index_matrix",
    "load",
    "rank_uniform",
    "ucddcp_objective",
]

SOURCE = Path(__file__).with_name("_fitness.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120.0
_BAD_INDEX = 1
_NOT_PERMUTATION = 3
_BAD_CUT = 4
_BAD_KEY = 5

_I32P = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_I64P = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
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
        cross, rank = lib.crossover, lib.rank_uniform
    except (OSError, AttributeError):
        return None
    cdd.restype = ucddcp.restype = cross.restype = rank.restype = ctypes.c_int
    cdd.argtypes = [_I32P, _SIZE, _SIZE, _F64P, _F64P, _F64P,
                    ctypes.c_double, _F64P]
    ucddcp.argtypes = [_I32P, _SIZE, _SIZE, _F64P, _F64P, _F64P, _F64P,
                       _F64P, ctypes.c_double, _F64P]
    cross.argtypes = [_I32P, _I32P, _I64P, _I64P, _U8P, _SIZE, _SIZE, _I32P]
    rank.argtypes = [_F64P, _SIZE, _SIZE, _I32P]
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


#: The compiled library, or ``None`` when it could not be built.
LIB = load()


def check_range(seqs: np.ndarray, n: int) -> None:
    """Raise :class:`IndexError` for a job index outside ``[0, n)``."""
    if seqs.size and (seqs.min() < 0 or seqs.max() >= n):
        raise IndexError(f"job index outside [0, {n}) in the sequence matrix")


def index_matrix(sequences: np.ndarray, n: int) -> np.ndarray:
    """``sequences`` as a validated, C-contiguous int32 ``(S, n)`` matrix."""
    seqs = np.asarray(sequences)
    if seqs.ndim != 2 or seqs.shape[1] != n:
        raise ValueError(f"sequences must have shape (S, {n}), got {seqs.shape}")
    if seqs.dtype.kind not in "iu":
        raise IndexError(f"job indices must be integers, got {seqs.dtype}")
    if seqs.dtype != np.int32:
        check_range(seqs, n)  # before narrowing, so no index can wrap
    return np.ascontiguousarray(seqs, dtype=np.int32)


def _check(rc: int, seqs: np.ndarray) -> None:
    n = seqs.shape[1]
    if rc == _BAD_INDEX:
        raise IndexError(f"job index outside [0, {n}) in the sequence matrix")
    if rc == _NOT_PERMUTATION:
        raise ValueError("a crossover parent row repeats a job")
    if rc == _BAD_CUT:
        raise ValueError(f"crossover cut outside 0 <= c1 <= c2 <= {n}")
    if rc != 0:
        raise MemoryError("compiled kernel body could not allocate")


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


def crossover(lib: ctypes.CDLL, x: np.ndarray, y: np.ndarray,
              lo: np.ndarray, hi: np.ndarray,
              mask: np.ndarray | None = None) -> np.ndarray:
    """F2/F3 on every row: ``x[lo:hi]`` in place, y's other jobs around it.

    The other positions are filled left to right with y's remaining jobs
    in y order; F2 (one-point) is ``lo = 0``.  Rows where ``mask`` is false
    copy ``x``.  Checks the shapes the C loop trusts; returns an int32
    matrix.
    """
    s, n = x.shape
    if y.shape != (s, n):
        raise ValueError(f"y must have shape {(s, n)}, got {y.shape}")
    if lo.shape != (s,) or hi.shape != (s,):
        raise ValueError(f"cuts must have shape ({s},)")
    if mask is None:
        gate = np.ones(s, dtype=np.uint8)
    elif mask.shape != (s,):
        raise ValueError(f"mask must have shape ({s},)")
    else:
        gate = np.ascontiguousarray(mask, dtype=bool).view(np.uint8)
    out = np.empty((s, n), dtype=np.int32)
    rc = lib.crossover(index_matrix(x, n), index_matrix(y, n),
                       np.ascontiguousarray(lo, dtype=np.int64),
                       np.ascontiguousarray(hi, dtype=np.int64),
                       gate, s, n, out)
    _check(rc, x)
    return out


def rank_uniform(lib: ctypes.CDLL, keys: np.ndarray) -> np.ndarray | None:
    """``np.argsort(keys, axis=1)`` as int32, for keys in ``[0, 1)``.

    ``keys`` is a float64 ``(S, n)`` matrix.  Returns ``None`` when a row
    holds a key outside ``[0, 1)`` (NaN included) or two equal keys: the
    caller then sorts with NumPy, whose order for ties this pass does not
    reproduce.
    """
    if keys.ndim != 2 or keys.dtype != np.float64:
        raise ValueError(f"keys must be a float64 (S, n) matrix, got "
                         f"{keys.dtype} {keys.shape}")
    s, n = keys.shape
    out = np.empty((s, n), dtype=np.int32)
    rc = lib.rank_uniform(np.ascontiguousarray(keys), s, n, out)
    if rc == _BAD_KEY:
        return None
    if rc != 0:
        raise MemoryError("compiled kernel body could not allocate")
    return out
