"""The numerical kernels this process runs, for golden-hash failure messages,
and the golden config's ``log.csv`` hash under each kernel class.

numpy picks its SIMD loops and its bundled OpenBLAS picks its kernels at run
time, by CPU, and each choice may round differently. A golden ``log.csv``
hash or ``gen-data`` digest holds for one choice, so a failing one names it.

Run as a script, it prints this machine's kernels and the row
:data:`GOLDEN_LOG_SHA256` needs for them, from the tests directory::

    cd tests && PYTHONPATH=../src python kernels.py
"""

import ctypes
import hashlib
import tempfile
from pathlib import Path

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


def kernel_class() -> tuple[tuple[str, ...], str | None]:
    """The SIMD targets numpy found and the OpenBLAS core: the key of
    :data:`GOLDEN_LOG_SHA256`."""
    _, targets, core = runtime_kernels()
    return tuple(targets), core


# The golden config's (test_engine.golden_cfg) log.csv SHA-256 by kernel
# class, recorded from an unchanged tree with numpy 2.4.6 (OpenBLAS 0.3.31)
# on an x86-64 CPU with AVX-512. A class is selected per process by
# OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES; an AVX2-only CPU picks
# X86_V3 with Haswell by default.
_AVX512 = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
GOLDEN_LOG_SHA256 = {
    (_AVX512, "SkylakeX"): "238e7deaa80a0492720fee2c78bbf940c26c211c766fb2bfae0917329e137262",
    (_AVX512, "Haswell"): "6f0914d37c689eab22be0a03acf33b3eae3d10e30e789162ebba78beacb7101a",
    (_AVX512, "Sandybridge"): "f4a59cc0b449905a0c9cca0067aaa5c10f2eaa6b5835c33634438626fb6bbff8",
    (("X86_V3",), "Haswell"): "8a2f7e306fb8c55fda9d14a3763b2e47f77d8ac1799ac22a0d4c60c8ef3997a6",
    (("X86_V3",), "SkylakeX"): "46fc8a73e97e34b396b40038155567f41f0258087bdd6438fbed390a7548956b",
}

# the CPU feature each OpenBLAS core's kernels execute
CORE_NEEDS = {"SkylakeX": "AVX512F", "Haswell": "AVX2", "Sandybridge": "AVX"}


def golden_log_sha256() -> str:
    """SHA-256 of the ``log.csv`` the golden config writes in this process."""
    from test_engine import golden_cfg

    from fedmm.engine import run_experiment

    with tempfile.TemporaryDirectory() as out:
        run_experiment(golden_cfg(out))
        return hashlib.sha256((Path(out) / "log.csv").read_bytes()).hexdigest()


if __name__ == "__main__":
    print(kernels_note())
    print(f"golden log.csv SHA-256: {kernel_class()!r}: {golden_log_sha256()!r}")
