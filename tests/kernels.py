"""The numerical kernels this process runs, for golden-hash failure messages.

numpy picks its SIMD loops and its bundled OpenBLAS picks its kernels at run
time, by CPU, and each choice may round differently. A golden ``log.csv``
hash or ``gen-data`` digest holds for one choice, so a failing one names it.
"""

import ctypes

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath


def openblas_core() -> str | None:
    """Name of the OpenBLAS core numpy's BLAS runs, or None when the BLAS
    exports no core-name call."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_"), ("scipy_", "")):
        call = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
        if call is not None:
            call.argtypes, call.restype = [], ctypes.c_char_p
            return call().decode()
    return None


def cpu_has(feature: str) -> bool:
    """Whether numpy found CPU feature ``feature`` (say ``AVX2``)."""
    return bool(_multiarray_umath.__cpu_features__.get(feature))


def runtime_kernels() -> tuple[str, list[str], str | None]:
    """numpy's version, the SIMD targets numpy found on this CPU (as
    ``numpy.show_runtime()`` lists them) and :func:`openblas_core`."""
    targets = [t for t in _multiarray_umath.__cpu_dispatch__ if cpu_has(t)]
    return np.__version__, targets, openblas_core()


def kernels_note() -> str:
    """:func:`runtime_kernels` as one line for an assertion message."""
    version, targets, core = runtime_kernels()
    return f"numpy {version}, SIMD found: {' '.join(targets) or 'none'}, OpenBLAS core: {core}"
