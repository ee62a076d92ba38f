"""Print, as JSON, the interpreter and BLAS set-up a fresh batchselect process gets.

Run as a child with the same environment as the CLI runs, so the benchmark's
own process never loads BLAS and the record shows what the CLI sees.
"""
from __future__ import annotations

import ctypes
import json
import platform
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)


def openblas_info(path: str) -> dict:
    """Version string and default thread count of one loaded OpenBLAS."""
    lib = ctypes.CDLL(path)
    for prefix in ("openblas_", "scipy_openblas_"):
        for suffix in ("", "64_"):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return {"default_threads": threads(),
                        "config": config().decode(errors="replace").strip()}
    return {}


def main():
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line and ".so" in line}) if maps.exists() else []
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {Path(p).name: openblas_info(p) for p in libs},
    }))


if __name__ == "__main__":
    main()
