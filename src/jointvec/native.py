"""Calls into native libraries: numpy's bundled OpenBLAS and glibc's malloc.

Each is looked up once per process and is optional: where a library or
symbol is not found, a pin does nothing and a fact reads `unknown`.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

# glibc mallopt parameters, and the ceiling of glibc's own dynamic mmap
# threshold on 64-bit hosts (DEFAULT_MMAP_THRESHOLD_MAX)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


@functools.cache
def _openblas(name: str, restype, *argtypes):
    """Function `name` of numpy's bundled OpenBLAS through ctypes, or None where it is not found.

    Looked up once per process in the wheel's numpy.libs; the library is
    the one numpy has already loaded.
    """
    libs = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "libscipy_openblas*")
    try:
        func = getattr(ctypes.CDLL(sorted(glob.glob(libs))[0]), name)
    except (IndexError, OSError, AttributeError):
        return None
    func.argtypes, func.restype = argtypes, restype
    return func


def _openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None where it is not found."""
    get = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    set_ = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    return None if get is None or set_ is None else (get, set_)


@functools.cache
def platform_facts() -> tuple:
    """(key, value) pairs of what training's bits depend on beyond its inputs.

    numpy's version, the CPU dispatch targets numpy runs here (`none` if
    every one is off) and the kernel OpenBLAS picked for this CPU
    (`unknown` where the library is not found). Looked up once per process;
    meta.txt and manifest.txt record them.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    corename = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return (
        ("numpy", np.__version__),
        ("cpu_dispatch", ",".join(targets) or "none"),
        ("openblas_core", "unknown" if corename is None else corename().decode("ascii", "replace")),
    )


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the caller's count.

    The count is process-wide, so the block must not overlap BLAS calls of
    other threads. Does nothing where the library is not found.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


@functools.cache
def keep_freed_pages() -> None:
    """Pin glibc's mmap and trim thresholds where its dynamic rule tops out.

    Every minibatch, and every block of documents CLDC composes, allocates
    and frees float arrays of d columns, up to megabytes each: AdaGrad's
    rows of every word it touches, the sums of its sentences and words,
    and under BI its (tokens, d) inputs, activations and gradients. glibc
    serves a large array either from memory it kept or from fresh pages
    that fault on first touch, by thresholds that it raises whenever the
    process frees a larger mapped block. The same batches therefore ran
    up to 1.5x slower in one process than in another, depending on what
    each had freed before. With the thresholds fixed at 32 MB (mmap) and
    64 MB (trim), the values that rule reaches at its ceiling, freed pages
    serve the next batch in every process. Once per process, and only
    under glibc; a refused mallopt leaves glibc's own rule in place,
    which costs time, not correctness.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if glibc and glibc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)
