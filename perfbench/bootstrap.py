"""Process set-up shared by the benchmark's entry points.

Import this before numpy: it pins BLAS to one thread (two threads made the
same D = 625 right-hand-side call range from 0.35 s to 1.1 s across
processes, and stalled the first call), and puts the checkout's ``src/`` on
``sys.path`` so the program measured is the one next to the benchmark.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "catteleport" / "__init__.py").is_file():
    sys.exit(f"perfbench: no catteleport sources under {SRC}")
sys.path.insert(0, str(SRC))
