"""avbinder prints and writes the bytes that the same-bytes manifests record
on perfbench's inputs, under 1 and 2 BLAS threads.

Each manifest names the OpenBLAS kernel it was written on, and the check
runs in a child process with ``OPENBLAS_CORETYPE`` set to it, since GEMM
bits differ between kernels. ``same_bytes.json`` holds seed 1 of each
workload on the SkylakeX kernel; ``same_bytes.Haswell.json`` holds seed 1 of
train and search on the Haswell kernel (crop runs no BLAS). A change that
moves bytes on purpose rewrites them with ``python3 tests/same_bytes.py
--out tests/same_bytes.json --train 1 --search 1 --crop 1`` and
``OPENBLAS_CORETYPE=Haswell python3 tests/same_bytes.py --out
tests/same_bytes.Haswell.json --train 1 --search 1 --crop``, and lists
every changed entry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

# Under the Haswell kernel a GEMM's bits move with the BLAS thread count
# (ROADMAP item 9): with 2 threads the checkpoint, the loss history and the
# three retrieve stdouts differ on every run.
HASWELL_THREAD_COUNT = pytest.mark.xfail(strict=True, reason="Haswell GEMM bits depend on the BLAS thread count")


@pytest.mark.parametrize("manifest, blas_threads", [
    pytest.param("same_bytes.json", 1, id="1"),
    pytest.param("same_bytes.json", 2, id="2"),
    pytest.param("same_bytes.Haswell.json", 1, id="Haswell-1"),
    pytest.param("same_bytes.Haswell.json", 2, id="Haswell-2", marks=HASWELL_THREAD_COUNT),
])
def test_outputs_match_the_manifest(manifest, blas_threads):
    manifest = HERE / manifest
    kernel = json.loads(manifest.read_text())["openblas_kernel"]
    argv = [sys.executable, str(HERE / "same_bytes.py"), "--check", str(manifest), "--blas-threads", str(blas_threads)]
    done = subprocess.run(argv, env={**os.environ, "OPENBLAS_CORETYPE": kernel}, capture_output=True, text=True)
    if done.returncode == 2 and "nothing compared" in done.stderr:
        pytest.skip(done.stderr.strip())
    # stdout names every entry that differs
    assert done.returncode == 0, done.stdout + done.stderr
