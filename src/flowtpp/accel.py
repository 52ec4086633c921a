"""Numba acceleration shim.

Hot kernels in :mod:`flowtpp.kernels` are compiled with numba when it is
installed (the ``numba`` extra) and run as plain Python otherwise; both
paths execute the same source and produce identical results.
"""

try:
    import numba as _numba

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False


def njit(**options):
    """``numba.njit(**options)`` when numba is installed, else a decorator
    that returns the function unchanged."""
    if NUMBA_ENABLED:
        return _numba.njit(**options)
    return lambda func: func


def python_impl(func):
    """Return the pure-Python implementation behind a (possibly jitted) kernel."""
    return getattr(func, "py_func", func)
