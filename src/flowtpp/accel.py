"""Names the benchmark still imports; ROADMAP item 5 removes those imports,
and then this module. Nothing is compiled: ``NUMBA_ENABLED`` is False and
``python_impl`` returns the kernel it is given."""

NUMBA_ENABLED = False


def python_impl(func):
    return func
