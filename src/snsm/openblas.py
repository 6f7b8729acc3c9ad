"""The OpenBLAS that numpy has loaded, looked up once per process.

:func:`_libraries` scans ``/proc/self/maps`` for mapped OpenBLAS files and
loads each through ``ctypes``, on the first call that needs one; nothing
here runs at import. snsm calls three kinds of routine in them:

- the thread-count calls, with which :mod:`snsm.parallel` holds OpenBLAS
  off its noise helper's CPU, and
- the worker-pool shutdown, with which it parks OpenBLAS's idle worker
  threads as the helper starts, both from :func:`thread_calls`;
- the LAPACK routines of :func:`svd_steps`, with which :mod:`snsm.linalg`
  builds an exact "svd" frame without the right singular vectors.

Every OpenBLAS symbol of snsm is named here, and only here is ``ctypes``
imported, inside the functions that need it.
"""

from __future__ import annotations

import functools

# the (get, set) thread-count calls of an OpenBLAS build, by symbol: the
# scipy-openblas wheels that numpy ships with, then a plain OpenBLAS
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# joins OpenBLAS's worker threads, which otherwise spin on their CPUs after
# each multi-threaded call whatever the thread count is set to; the next
# multi-threaded call starts them again. OpenBLAS's own pthread_atfork
# prepare handler calls it before every fork.
_PARK_SYMBOL = "blas_thread_shutdown_"

# DGEBRD, DBDSDC and DORMBR of the scipy-openblas ILP64 wheels (64-bit
# integers), each with its count of arguments passed by reference and of
# CHARACTER arguments, whose hidden lengths gfortran appends by value
_SVD_SYMBOLS = (("scipy_dgebrd_64_", 11, 0), ("scipy_dbdsdc_64_", 14, 2),
                ("scipy_dormbr_64_", 14, 3))


@functools.cache
def _libraries() -> tuple:
    """Every OpenBLAS file mapped into this process, loaded, in path order;
    empty on a numpy linked to another BLAS or a platform without
    ``/proc/self/maps``."""
    import ctypes  # loaded only by the first lookup

    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split(None, 5)  # the sixth is the mapped file
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        return ()
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


def _exporting(names: tuple):
    """The first loaded OpenBLAS that exports all of ``names``, or None."""
    for lib in _libraries():
        if all(hasattr(lib, name) for name in names):
            return lib
    return None


@functools.cache
def thread_calls():
    """``(get, set, park)`` of the loaded OpenBLAS, or None where no
    OpenBLAS with the thread-count calls is mapped. ``park`` joins the
    worker threads and leaves the count as it is; it is None where the
    library with those calls does not export it."""
    import ctypes

    for names in _THREAD_SYMBOLS:
        if (lib := _exporting(names)) is not None:
            get, set_ = (getattr(lib, name) for name in names)
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            park = getattr(lib, _PARK_SYMBOL, None)
            if park is not None:
                park.argtypes, park.restype = (), ctypes.c_int
            return get, set_, park
    return None


@functools.cache
def svd_steps():
    """``(dgebrd, dbdsdc, dormbr)`` of the loaded OpenBLAS, or None where no
    OpenBLAS exports them with 64-bit integers. Each takes its
    by-reference arguments as addresses (ints, or bytes for a CHARACTER),
    then one length per CHARACTER argument."""
    import ctypes

    names = tuple(name for name, _, _ in _SVD_SYMBOLS)
    if (lib := _exporting(names)) is None:
        return None
    steps = tuple(getattr(lib, name) for name in names)
    for fn, (_, refs, chars) in zip(steps, _SVD_SYMBOLS):
        fn.argtypes = (ctypes.c_void_p,) * refs + (ctypes.c_size_t,) * chars
        fn.restype = None
    return steps
