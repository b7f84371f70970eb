"""Print, as JSON, the environment the benchmarked processes run in.

    python bench/envinfo.py

Reports the usable CPU count, the BLAS library numpy links and the number
of threads it will use, and the Python, numpy and scipy versions.
Numbers from different environments are not comparable.
"""

import ctypes
import glob
import json
import os
import platform
import sys

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads(numpy) -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    json.dump(environment(), sys.stdout, sort_keys=True)
    print()
