"""Facts about the machine and checkout a run was measured on.

Run as ``python3 perfbench/machine.py`` from the root of a checkout to print
them as JSON.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys

import numpy as np


def blas_threads() -> int | None:
    """OpenBLAS's thread count as loaded by NumPy (None if not OpenBLAS)."""
    np.linalg.eigvalsh(np.eye(2))
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_sizes() -> dict[str, str]:
    def read(index: str, name: str) -> str:
        with open(os.path.join(index, name), encoding="utf-8") as fh:
            return fh.read().strip()

    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = read(index, "level"), read(index, "type").lower()
        out[f"L{level}-{kind}"] = read(index, "size")
    return out


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def facts(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "caches": cache_sizes(),
        "src_lines": src_lines(root),
    }


if __name__ == "__main__":
    json.dump(facts(os.getcwd()), sys.stdout, indent=2)
    print()
