"""Host metadata recorded with every run: CPU, caches, versions, BLAS."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def loadavg() -> str | None:
    return _read("/proc/loadavg")


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def l3_size() -> str | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(f"{index}/level") == "3":
            return _read(f"{index}/size")
    return None


def blas_info() -> dict:
    """numpy's OpenBLAS configuration string and live thread count."""
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def host() -> dict:
    import numpy
    import scipy
    return {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "l3": l3_size(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
