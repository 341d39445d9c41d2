"""Timing summaries and the provenance recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform

import numpy as np

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def summary(samples, scale: float = 1.0) -> dict:
    """Sample count, median and the highest listed percentile that has at
    least ten samples beyond it (omitted when none has)."""
    xs = np.asarray(samples, dtype=np.float64) * scale
    out = {"n": int(xs.size), "p50": float(np.median(xs))}
    for q in TAIL_PERCENTILES:
        if xs.size * (100.0 - q) / 100.0 >= MIN_BEYOND:
            out[f"p{q:g}"] = float(np.percentile(xs, q))
            break
    return out


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout's git repository, read from the files; None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest(src: str) -> str:
    """sha256 over the package sources, so a checkout without git is still identified."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".cfg")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def provenance(root: str, seed: int, threads: int) -> dict:
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src", "convrnnt")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "seed": seed,
    }
