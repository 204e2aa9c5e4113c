"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import sys

MACHINE_SETTINGS_NOTE = (
    "the harness changes no machine settings: no cache dropping, no CPU pinning, "
    "no frequency or thread-count changes; it runs with the defaults it finds"
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_library() -> ctypes.CDLL | None:
    """The OpenBLAS library numpy loaded, found through this process's mappings."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_threads() -> dict:
    lib = _openblas_library()
    out = {"threads": None, "config": None}
    if lib is None:
        return out
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is None:
                continue
            threads.restype = ctypes.c_int
            out["threads"] = int(threads())
            if config is not None:
                config.restype = ctypes.c_char_p
                out["config"] = config().decode(errors="replace")
            return out
    return out


def record() -> dict:
    """numpy, BLAS/LAPACK, Python, CPU and numba facts for the current process."""
    import numpy as np

    blas_info: dict = {}
    try:
        cfg = np.show_config(mode="dicts")
        deps = cfg.get("Build Dependencies", {})
        blas_info = {k: {"name": deps.get(k, {}).get("name"),
                         "version": deps.get(k, {}).get("version")} for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    threads = _blas_threads()
    return {
        "numpy": np.__version__,
        "blas": blas_info.get("blas"),
        "lapack": blas_info.get("lapack"),
        "blas_threads": threads["threads"],
        "blas_config": threads["config"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": sys.platform,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine_settings": MACHINE_SETTINGS_NOTE,
    }
