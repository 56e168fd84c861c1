"""The environment record attached to every benchmark result."""

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy


def _blas_threads():
    """Thread count each bundled OpenBLAS reports, by library file name."""
    found = {}
    for package in (np, scipy):
        libs_dir = Path(package.__file__).parent.parent / (package.__name__ + ".libs")
        for path in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def _cache_sizes():
    """Cache sizes of cpu0 by level, as sysfs reports them."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes["L%s" % level] = size
    return sizes


def environment(blas_threads_requested, a_bytes):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads_requested": blas_threads_requested,
        "blas_threads_in_effect": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "data_matrix_bytes": a_bytes,
        "bytes_note": "bytes moved are computed from array sizes, not measured",
    }
