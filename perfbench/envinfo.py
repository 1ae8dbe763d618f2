"""Environment record and metric units for benchmark results."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level = _read(idx / "level").strip()
        kind = _read(idx / "type").strip()
        if kind in ("Data", "Unified"):
            out[f"L{level}"] = _read(idx / "size").strip()
    return out


def _ram_kib():
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1])
    return None


def _blas_threads() -> dict:
    """OpenBLAS libraries loaded in this process and their thread counts."""
    found = {}
    paths = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None  # an exported source tree has no history
    try:
        return subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def environment(root: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        from alphamod.symbol import _n_workers
        scan_threads = _n_workers()
    except ImportError:
        scan_threads = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "ram_kib": _ram_kib(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "ALPHAMOD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "alphamod_scan_threads": scan_threads,
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
    }


def units(metrics: dict) -> dict:
    """Unit of each metric, from its name."""
    out = {}
    for name in metrics:
        if name.endswith(("_s", ".s")):
            out[name] = "s"
        elif name.endswith("_mib"):
            out[name] = "MiB"
        elif name.endswith(("_bytes", "bytes_built")):
            out[name] = "bytes"
        elif name.endswith("_flops"):
            out[name] = "flop"
        elif name.endswith(("_ratio", "_frac", "_per_budget")):
            out[name] = "ratio"
        else:
            out[name] = "count"
    return out
