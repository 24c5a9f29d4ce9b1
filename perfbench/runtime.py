"""Process set-up shared by the benchmark's entry points.

`prepare` must run before numpy is imported anywhere in the process: it pins
the BLAS thread pools to one thread through the environment (inherited by
child processes) and puts the checkout's ``src`` first on ``sys.path``, so
the package under test is the one built from this checkout's source.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# OpenBLAS at its default thread count made adaptive_block_length on a
# 100x100 panel take ~0.15 s instead of ~0.002 s on a 2-core machine (see
# NOTES.md); every workload therefore runs single-threaded BLAS.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SetupError(Exception):
    """The checkout does not hold a usable copy of the package."""


def prepare() -> None:
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread pin was set")
    os.environ.update(BLAS_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_package():
    """Import panelcpt and check that it comes from this checkout."""
    try:
        import panelcpt
    except ImportError as exc:
        raise SetupError(f"cannot import panelcpt from {SRC}: {exc}") from exc
    where = Path(panelcpt.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"panelcpt was imported from {where}, not from {SRC}")
    return panelcpt


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))
