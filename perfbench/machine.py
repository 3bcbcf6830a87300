"""Machine facts for a benchmark report: cores, library versions, BLAS threads.

    python3 perfbench/machine.py

Prints one JSON object.  numpy and scipy each bundle their own OpenBLAS;
both are listed with the configuration string and the thread count they
would use.
"""

import ctypes
import glob
import json
import os
import platform
import sys


def _openblas(libdir, suffix):
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        if config is None or threads is None:
            continue
        config.restype = ctypes.c_char_p
        return {"library": os.path.basename(path), "config": config().decode(),
                "threads": int(threads())}
    return None


def facts():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    return {
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(os.path.join(site, "numpy.libs"), "64_"),
        "scipy_openblas": _openblas(os.path.join(site, "scipy.libs"), ""),
        "WEYLAB_THREADS": os.environ.get("WEYLAB_THREADS"),
    }


if __name__ == "__main__":
    json.dump(facts(), sys.stdout, indent=2)
    print()
