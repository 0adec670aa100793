"""Environment fingerprint printed with every benchmark result.

Timings are comparable only between runs with the same interpreter, the
same numpy/scipy/OpenBLAS builds and the same BLAS thread setting, so each
result carries them.
"""

from __future__ import annotations

import ctypes
import os
import platform


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def _openblas_info() -> list[dict]:
    out = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _call(lib, ("scipy_openblas_get_config64_",
                             "openblas_get_config64_", "openblas_get_config"),
                       ctypes.c_char_p)
        threads = _call(lib, ("scipy_openblas_get_num_threads64_",
                              "openblas_get_num_threads64_",
                              "openblas_get_num_threads"), ctypes.c_int)
        out.append({"library": os.path.basename(path),
                    "config": config.decode() if config else None,
                    "threads": threads})
    return out


def fingerprint() -> dict:
    """Versions, BLAS builds with their thread counts in effect, the
    ``*_NUM_THREADS`` variables and the usable CPU count."""
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_info(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": nproc,
        "machine": platform.machine(),
    }
