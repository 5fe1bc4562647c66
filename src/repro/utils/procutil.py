"""Multiprocessing helpers shared by the process-parallel subsystems
(raylite process actors, SubprocVectorEnv) without coupling them to
each other."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import multiprocessing
import os
from typing import Iterator, Tuple


def default_start_method() -> str:
    """Prefer fork (cheap, closure-friendly factories) where available."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# Environment variables that size the native (BLAS / OpenMP) thread
# pools, and where to find each pool's runtime entry points once its
# library is loaded: (file-name fragment, setter, getter).  OpenBLAS
# builds decorate the names (numpy wheels: "scipy_" + name + "64_").
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_NATIVE_POOLS = (
    ("openblas", "openblas_set_num_threads", "openblas_get_num_threads"),
    ("libgomp", "omp_set_num_threads", "omp_get_max_threads"),
    ("libomp", "omp_set_num_threads", "omp_get_max_threads"),
    ("libiomp", "omp_set_num_threads", "omp_get_max_threads"),
    ("mkl_rt", "MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)


def _mapped_paths() -> set:
    """Paths of the shared objects mapped into this process (Linux;
    empty elsewhere)."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return set()
    return {f[5].strip() for f in fields if len(f) == 6}


@functools.lru_cache(maxsize=None)
def native_libraries() -> Tuple[Tuple[str, ctypes.CDLL], ...]:
    """``(path, handle)`` for every BLAS / OpenMP shared object mapped
    into this process, scanned once per process: parsing the memory map
    and opening the handles costs ~0.4 ms, against ~1 µs for resizing
    a pool.  NumPy is imported first so its BLAS is already mapped when
    the one scan runs; a fork child inherits the scan with the mapping."""
    import numpy  # noqa: F401
    return tuple(
        (path, ctypes.CDLL(path))  # already mapped: same handle
        for path in sorted(_mapped_paths())
        if any(fragment in os.path.basename(path)
               for fragment, _, _ in _NATIVE_POOLS))


@functools.lru_cache(maxsize=None)
def native_thread_pools() -> Tuple[tuple, ...]:
    """``((path, set_num_threads, get_num_threads), ...)`` for every
    BLAS / OpenMP shared object mapped into this process (Linux; empty
    elsewhere or when nothing recognisable is loaded); derived once
    from :func:`native_libraries`."""
    pools = []
    for path, lib in native_libraries():
        for fragment, setter, getter in _NATIVE_POOLS:
            if fragment not in os.path.basename(path):
                continue
            for prefix, suffix in itertools.product(
                    ("", "scipy_"), ("", "64_", "_64_")):
                try:
                    set_fn = getattr(lib, prefix + setter + suffix)
                    get_fn = getattr(lib, prefix + getter + suffix)
                except AttributeError:
                    continue
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                pools.append((path, set_fn, get_fn))
                break
    return tuple(pools)


def cap_native_threads() -> None:
    """One native compute thread for THIS process and its children.

    An actor process does small GEMMs next to a learner that needs the
    cores; a full-width BLAS pool per process only adds spinning helper
    threads (measured in docs/benchmarks.md, "Open measurements").  The
    environment covers spawn children and grandchildren; under fork the
    library is already loaded, so its pool is resized in place.  A user
    who set any of the variables keeps their configuration untouched.
    """
    if any(var in os.environ for var in _THREAD_ENV):
        return
    for var in _THREAD_ENV:
        os.environ[var] = "1"
    try:
        import threadpoolctl
    except ImportError:
        for _, set_num_threads, _ in native_thread_pools():
            set_num_threads(1)
    else:
        threadpoolctl.threadpool_limits(1)


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the
    platform exposes one, else the machine's core count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def native_threads_beside(busy_processes: int):
    """Size THIS process's native pools to the cores ``busy_processes``
    compute-bound sibling processes leave free — ``max(1, usable cores
    - busy_processes)`` — for a ``with`` block (see :func:`native_threads`).

    A full-width pool slows a driver whose process actors keep their
    cores busy: its helper threads fight the actors for those cores,
    and the learner's own GEMMs wait on them (docs/benchmarks.md,
    "Open measurements").  Scoped, not process-wide, because drivers without
    such siblings lose up to 30 % when capped.
    """
    return native_threads(max(1, usable_cores() - busy_processes))


def native_threads_among(callers: int):
    """Size THIS process's native pools to an equal share of the usable
    cores for each of ``callers`` threads that run GEMMs concurrently —
    ``max(1, usable cores // callers)`` — for a ``with`` block (see
    :func:`native_threads`).  Without it every caller's GEMM fans out
    to the full width, and the callers' helper threads oversubscribe
    the cores the other callers compute on."""
    return native_threads(max(1, usable_cores() // callers))


@contextlib.contextmanager
def native_threads(width: int) -> Iterator[int]:
    """Size THIS process's native pools to ``width`` for the block; the
    previous widths come back on exit, raise or not.  Yields the width;
    a no-op (nothing resized) where no pool is found."""
    pools = native_thread_pools()
    previous = [get_num_threads() for _, _, get_num_threads in pools]
    for _, set_num_threads, _ in pools:
        set_num_threads(width)
    try:
        yield width
    finally:
        for (_, set_num_threads, _), count in zip(pools, previous):
            set_num_threads(count)
