"""avbinder prints and writes the bytes that ``same_bytes.json`` records on
perfbench's inputs, under 1 and 2 BLAS threads.

The manifest names the OpenBLAS kernel it was written on, and the check
runs in a child process with ``OPENBLAS_CORETYPE`` set to it, since GEMM
bits differ between kernels. A change that moves bytes on purpose rewrites
the manifest with ``python3 tests/same_bytes.py --out tests/same_bytes.json
--train 1 --search 1 --crop 1`` and lists every changed entry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "same_bytes.json"


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_outputs_match_the_manifest(blas_threads):
    kernel = json.loads(MANIFEST.read_text())["openblas_kernel"]
    argv = [sys.executable, str(HERE / "same_bytes.py"), "--check", str(MANIFEST), "--blas-threads", str(blas_threads)]
    done = subprocess.run(argv, env={**os.environ, "OPENBLAS_CORETYPE": kernel}, capture_output=True, text=True)
    if done.returncode == 2 and "nothing compared" in done.stderr:
        pytest.skip(done.stderr.strip())
    # stdout names every entry that differs
    assert done.returncode == 0, done.stdout + done.stderr
