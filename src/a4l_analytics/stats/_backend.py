"""The numeric kernels the statistics call.

There is one implementation, in pure Python (``_pure``). Callers reach
it through ``kernels`` so the benchmark's tracer can count its calls.
"""

from . import _pure as kernels


def kernel_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "pure-python"
