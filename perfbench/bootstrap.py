"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: it pins BLAS to one thread
(the benchmark generates all load from one process) and puts the
checkout's own ``src/`` first on the import path, so the package under
test is the one built from this checkout's source.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # scratch files; listed in .gitignore
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def prepare():
    """Pin BLAS threads and the import path; exit 1 if src/ is missing."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "synergy_es" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'synergy_es'}; "
                 "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
