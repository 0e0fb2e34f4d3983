"""The pinned results must not depend on the BLAS kernel.

`tests/test_identity.py` and `TestScoringBitIdentity` are run again in a
subprocess with OpenBLAS forced to two other kernels, one thread each.
Some kernels give a GEMM row different bits at a different row position,
so a change that reorders the rows of a product can pass both on the
default kernel and fail here.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GATED = ["tests/test_identity.py",
         "tests/test_evaluation.py::TestScoringBitIdentity"]


def dynamic_openblas() -> bool:
    """Whether numpy runs an OpenBLAS built with every kernel, so that
    `OPENBLAS_CORETYPE` selects one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 has no mode="dicts"
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not dynamic_openblas(),
                    reason="numpy's BLAS is not an OpenBLAS with selectable "
                           "kernels (DYNAMIC_ARCH)")
@pytest.mark.parametrize("coretype", ["Sandybridge", "Prescott"])
def test_pins_hold_under_other_openblas_kernels(coretype):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               OPENBLAS_CORETYPE=coretype)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *GATED], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
