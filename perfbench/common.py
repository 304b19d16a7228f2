"""Shared plumbing: run metadata, peak memory, call timers, references."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import multiprocessing as mp
import os
import platform
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import THREAD_ENV

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = Path(__file__).resolve().with_name("references.json")


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly (no subprocess,
    never a parent directory's repository); None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the library sources: identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def platform_fingerprint() -> Dict[str, object]:
    """What float64 bit-identity depends on: NumPy, its BLAS build and
    the CPU features the kernels dispatch on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as feats
    except ImportError:  # NumPy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as feats
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_id,
        "cpu_features": sorted(k for k, v in feats.items() if v),
    }


def fingerprint_id() -> str:
    blob = json.dumps(platform_fingerprint(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_meta() -> Dict[str, object]:
    fp = platform_fingerprint()
    return {
        "cpus": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "numpy": fp["numpy"],
        "blas": fp["blas"],
        "python": platform.python_version(),
        "start_method": mp.get_start_method(allow_none=False),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "platform_id": fingerprint_id(),
    }


def peak_rss_mb() -> Dict[str, float]:
    """Peak resident set (MB) of this process and of its largest reaped
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"parent": own * 1024 / 1e6, "largest_child": kids * 1024 / 1e6}


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS (glibc
    ``malloc_trim``), so that every set-up and the measured phase start
    from the same heap and the peak RSS does not depend on which freed
    blocks happen to be reused."""
    gc.collect()
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: nothing to trim
        return
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)


def load_reference(workload: str, seed: int) -> Optional[object]:
    """The recorded reference for ``(workload, seed)`` on this platform,
    or None when the seed was not recorded or the platform differs (a
    different BLAS kernel may legitimately round differently)."""
    try:
        table = json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return None
    if table.get("platform_id") != fingerprint_id():
        return None
    return table.get(workload, {}).get(str(seed))


class CallTimer:
    """Durations (s) of every call through the wrapped bound methods.

    ``wrap(obj, "method")`` shadows the method with an instance
    attribute, so only the object the benchmark built and passed in is
    timed; the library's classes are never patched.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, List[float]] = {}

    def wrap(self, obj, method: str, key: Optional[str] = None,
             after: Optional[Callable] = None) -> None:
        inner = getattr(obj, method)
        durs = self.calls.setdefault(key or method, [])
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            out = inner(*args, **kwargs)
            t1 = clock()
            durs.append(t1 - t0)
            if after is not None:
                after(t0, t1, args, kwargs, out)
            return out

        setattr(obj, method, timed)

    def mean_ms(self, key: str) -> float:
        durs = self.calls.get(key) or []
        return 1e3 * sum(durs) / len(durs) if durs else 0.0


def median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))
