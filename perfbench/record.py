"""The machine and environment a run measured on, stored next to its results."""

from __future__ import annotations

import glob
import hashlib
import os
import platform

import numpy as np


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": info.get("name"), "version": info.get("version")}


def _git_commit(root: str) -> str | None:
    """HEAD's commit read from ``.git``; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: str) -> str:
    """SHA-256 over the package sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "promptsum", "*"))):
        if os.path.isfile(path):
            digest.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def collect(root: str, seed: int, blas_vars: tuple[str, ...]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "seed": seed,
    }
