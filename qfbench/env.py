"""Environment record attached to every result.

Records the BLAS thread variables as found and never sets them: the
benchmark measures the program under whatever threading it inherits.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def source_digest(root: Path) -> str:
    """sha256 over the program's sources, an identity that also works
    in a checkout without git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_build() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version",
                                     "openblas configuration")
            if blas.get(k) is not None}


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "qf_env": {k: v for k, v in sorted(os.environ.items())
                   if k.startswith("QF_")},
    }
