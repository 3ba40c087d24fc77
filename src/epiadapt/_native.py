"""The compiled kernels of ``_rk4.c``, their threads and the arrays kept off the malloc heap.

The package's one module that runs the compiler, reads /proc/cpuinfo, calls
into C, starts threads or maps memory. ``dynamics`` and ``de_core`` call
``kernel()`` here. It owns the one thread count that both kernel passes,
the batch evaluator's and the NSDE trial pass's, split their rows over:
:func:`thread_count`, which :func:`threads` sets for a block of code.
:func:`split_count` caps it for one pass, and :func:`split` runs a pass on
that many threads, which take their rows from a shared counter (see
``_rk4.c``).
"""
from __future__ import annotations

import ctypes
import math
import mmap
import os
import threading
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Rows per block where numpy code would otherwise make a (B, D) temporary
# (see unpooled_empty for why that matters).
ROW_BLOCK = 32
# Candidates rk4_batch runs side by side, and rows de_trials fills at once
# (LANES in _rk4.c).
LANES = 8
# Genes a split trial pass holds at least per thread. A smaller pass runs
# on one thread: handing rows to a helper costs more than it saves.
SPLIT_GENES = 1 << 18

SOURCE = Path(__file__).with_name("_rk4.c")
# The source as it was at import. The loader hashes and compiles these bytes,
# never the file, so a build always takes the argument lists set in build(),
# also in a process that outlives an edit of _rk4.c.
SOURCE_BYTES = SOURCE.read_bytes()
# Where the builds are cached.
CACHE = SOURCE.parent / "__pycache__"
CPUINFO = Path("/proc/cpuinfo")
# No -march=native, so a cached library stays valid on any host of its ISA
# level. No contraction into FMAs, so each step rounds as numpy's does, also
# where the level has FMA; no errno from sqrt, which only lets the compiler
# vectorize it. Lanes never reassociate a sum, so every level's build gives
# the same bytes.
CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")
# x86-64 levels v2 and v3 as /proc/cpuinfo names them (abm is lzcnt, pni sse3).
_V3_CPU_FLAGS = frozenset((
    "cx16", "lahf_lm", "popcnt", "pni", "sse4_1", "sse4_2", "ssse3",
    "avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave",
))
# Builds of _rk4.c, widest first: name, the cpuinfo flags the host must
# list, and the flags added to CFLAGS. The last needs nothing.
LEVELS = (
    ("v4", _V3_CPU_FLAGS | {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
     ("-march=x86-64-v4", "-mprefer-vector-width=512")),
    ("v3", _V3_CPU_FLAGS, ("-march=x86-64-v3",)),
    ("base", frozenset(), ()),
)


def unpooled_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array in a memory mapping of its own.

    The mapping goes back to the OS when the array is freed. An (NP, D)
    array from malloc goes back to its heap instead, where smaller
    allocations split the hole it leaves, so the peak RSS of identical runs
    came to differ by whole arrays. An optimizer run maps its large arrays
    here once per run or per visit and reuses them.
    """
    size = math.prod(shape)
    buf = mmap.mmap(-1, max(8 * size, 1))
    return np.frombuffer(buf, dtype=np.float64, count=size).reshape(shape)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the host's count without one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


# The count :func:`threads` set for the running block, or None outside one.
_thread_count: ContextVar[int | None] = ContextVar("thread_count", default=None)


def thread_count() -> int:
    """The threads a kernel pass may split over: as :func:`threads` set it, or the usable CPUs."""
    count = _thread_count.get()
    return usable_cpus() if count is None else count


@contextmanager
def threads(count: int) -> Iterator[None]:
    """Within the block, split this thread's kernel passes over at most ``count`` threads."""
    if count < 1:
        raise ValueError(f"threads must be at least 1, got {count}")
    token = _thread_count.set(count)
    try:
        yield
    finally:
        _thread_count.reset(token)


def split_count(rows: int, genes: int | None = None) -> int:
    """The threads a pass over ``rows`` rows splits over.

    One per thread of :func:`thread_count`, but never more than LANES-row
    groups in the pass and, with ``genes`` per row, as for the trial pass,
    never more than whole SPLIT_GENES in it; at least one.
    """
    parts = min(thread_count(), -(-rows // LANES))
    if genes is not None:
        parts = min(parts, rows * genes // SPLIT_GENES)
    return max(1, parts)


# (pid, pool) of the process's helper threads, made on first use.
_helpers: tuple[int, ThreadPoolExecutor] | None = None
_helpers_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor:
    """This process's pool of helper threads.

    A pool inherited through fork has no threads, and work submitted to it
    would never run, so a process uses only a pool it made itself. The pool
    starts a thread only when none of its threads is idle.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: only a split needs a pool
    global _helpers
    with _helpers_lock:
        if _helpers is None or _helpers[0] != os.getpid():
            _helpers = (os.getpid(), ThreadPoolExecutor(thread_name_prefix="rk4"))
        return _helpers[1]


def split(func, rows: int, *args, genes: int | None = None) -> list:
    """``func(*args, next_row)`` on :func:`split_count` threads: this one and helpers.

    ``func`` is a kernel entry that takes its rows LANES at a time from
    ``next_row``, a fresh counter that every thread shares; ctypes releases
    the interpreter lock while it runs, so the threads run at once. Returns
    their results once all have finished, even when one raises; the first
    exception of a helper is raised then.
    """
    from concurrent.futures import wait
    call = (*args, np.zeros(1, dtype=np.int64))
    count = split_count(rows, genes)
    helpers = _helper_pool() if count > 1 else None
    futures = [helpers.submit(func, *call) for _ in range(count - 1)]
    try:
        first = func(*call)
    finally:
        # The threads write into the caller's arrays: none may outlive this one.
        wait(futures)
    return [first] + [future.result() for future in futures]


def host_levels(cpuinfo: str, machine: str) -> list[str]:
    """Names of the kernel builds this host can run, widest first.

    ``cpuinfo`` is the text of /proc/cpuinfo; outside x86_64, or without a
    ``flags`` line, only the builds that need no flag remain.
    """
    flags: set[str] = set()
    if machine == "x86_64":
        for line in cpuinfo.splitlines():
            if line.startswith("flags"):
                flags = set(line.partition(":")[2].split())
                break
    return [name for name, needs, _ in LEVELS if needs <= flags]


def build(level: str) -> ctypes.CDLL:
    """Load the ``level`` build of ``_rk4.c``, compiling it on first use.

    It compiles SOURCE_BYTES, passed to cc on stdin, and is cached in
    CACHE as ``_rk4-<level>-<hash>.so``; one hash, over those bytes, every
    level's flags and the machine type, names all levels' builds. A build
    goes to its own temporary file and is renamed into place, so processes
    that build at once cannot tear it; a fresh build then deletes the
    ``_rk4-*.so`` files under other hashes. Raises OSError, with the
    compiler's last lines, on failure.
    """
    import hashlib  # here, so importing the package costs what it did before
    import platform

    machine = platform.machine()
    flags = " ".join(" ".join(CFLAGS + extra) for _, _, extra in LEVELS)
    key = SOURCE_BYTES + f"{flags} {machine}".encode()
    digest = hashlib.sha256(key).hexdigest()[:16]
    lib = CACHE / f"_rk4-{level}-{digest}.so"
    if not lib.exists():
        import subprocess  # here too: a cached build needs neither
        import tempfile

        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=CACHE)
        os.close(fd)
        extra = next(extra for name, _, extra in LEVELS if name == level)
        try:
            cc = subprocess.run(["cc", *CFLAGS, *extra, "-o", tmp, "-x", "c", "-", "-lm"],
                                input=SOURCE_BYTES, capture_output=True)
            if cc.returncode != 0:
                stderr = cc.stderr.decode(errors="replace")
                tail = " | ".join(stderr.strip().splitlines()[-3:])
                raise OSError(f"cc exited with status {cc.returncode}: {tail}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        # Builds of an earlier source or flags are never loaded again.
        for stale in CACHE.glob("_rk4-*.so"):
            if not stale.name.endswith(f"-{digest}.so"):
                try:
                    stale.unlink()
                except OSError:  # another process may have removed it first
                    pass
    built = ctypes.CDLL(str(lib))
    f64, i64, rows = (np.ctypeslib.ndpointer(dtype, ndim=ndim, flags="C_CONTIGUOUS")
                      for dtype, ndim in ((np.float64, 1), (np.int64, 1), (np.float64, 2)))
    n, real, words = ctypes.c_int64, ctypes.c_double, (ctypes.c_uint64,) * 4
    built.rk4_batch.argtypes = [n, n, n, n, rows, f64, i64, n, f64, i64, real, real, f64, real,
                                real, f64, f64, f64, i64]
    built.rk4_batch.restype = ctypes.c_int
    built.de_trials.argtypes = [n, n, rows, f64, i64, i64, f64, i64, real, *words, rows, i64]
    built.de_trials.restype = None
    return built


# Flat positions in _trials_match_numpy's default shape of the uniforms the
# load check pins exactly: one in each lane of the whole blocks (lane 4's
# first, 4, is row 0's forced gene) and the first of the second lane group,
# which its lanes draw from the state they jumped to.
PINNED = (0, 1, 2, 3, 12, 5, 6, 7, 40)


def _trials_match_numpy(built: ctypes.CDLL, seed=20190101, shape=(LANES + 1, 5), cr=0.5,
                        pins=()) -> bool:
    """Whether ``de_trials`` crosses over on ``Generator(PCG64(seed)).random``'s stream.

    With rows of ones, a best of zeros, F 1 and each row its own donors,
    every mutant is 0 and every kept gene 1: gene j is 1 exactly where its
    uniform exceeds ``cr``, but for the forced gene, each row's last. The
    default shape is a lane group of whole blocks, then a second group of
    one row, a tail alone, whose lanes start at the state 40 steps on. At
    cr 0.5 a gene shows its uniform's leading bit; the uniform at each flat
    position of ``pins`` is then pinned in every bit, by a call with cr at
    it and one with cr at the double just below it.
    """
    rows, genes = shape
    uniforms = np.random.default_rng(seed).random(shape)
    pinned = uniforms.flat[list(pins)]
    pcg = np.random.PCG64(seed).state["state"]
    own, trial = np.arange(rows), np.empty(shape)
    for at in (cr, *pinned, *np.nextafter(pinned, 0.0)):
        built.de_trials(rows, genes, np.ones(shape), np.zeros(genes), own, own, np.ones(rows),
                        np.full(rows, genes - 1), at, *divmod(pcg["state"], 1 << 64),
                        *divmod(pcg["inc"], 1 << 64), trial, np.zeros(1, dtype=np.int64))
        expected = uniforms > at
        expected[:, -1] = False
        if trial.tobytes() != expected.astype(np.float64).tobytes():
            return False
    return True


@lru_cache(maxsize=None)
def kernel() -> ctypes.CDLL | None:
    """The widest build of ``_rk4.c``, as imported, that this host runs, or None.

    It holds the RK4 batch kernel and the NSDE trial pass. The host's level
    comes from /proc/cpuinfo, read here on first use and never at import:
    x86-64-v4 (AVX-512), then v3 (AVX2), then the baseline build. A build
    that cannot be made or loaded passes to the next; the one that loads is
    dropped if it fails :func:`_trials_match_numpy` with the PINNED
    uniforms, with no narrower one tried, as all compile one source.
    Without a build the numpy code runs.
    The fallbacks of one process give one RuntimeWarning.
    """
    import platform

    try:
        cpuinfo = CPUINFO.read_text()
    except OSError:
        cpuinfo = ""
    failed, built = [], None
    for level in host_levels(cpuinfo, platform.machine()):
        try:
            built = build(level)
            break
        except OSError as exc:
            failed.append(f"{level}: {exc}")
    if built is not None and not _trials_match_numpy(built, pins=PINNED):
        built = None
        failed.append(f"{level}: de_trials' uniforms differ from numpy's PCG64 random()")
    if failed:
        outcome = (f"runs its {level} build" if built is not None else
                   "unavailable, the evaluator and the DE operators run their numpy loops")
        warnings.warn(f"RK4 kernel {outcome}: {'; '.join(failed)}", RuntimeWarning, stacklevel=3)
    return built
