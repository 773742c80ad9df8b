"""avbinder benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {train,search,crop} --seed N \
        --seconds S --trace {0,1} [--blas-threads T]

Run from the root of a source checkout; avbinder is imported from ``src/``.
The inputs are generated from ``--seed`` by ``perfbench/gen.py`` in a child
process. After set-up, whole rounds of the workload's operations repeat for
``--seconds``; then every output is checked against ``perfbench/oracles.py``.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` an untraced pass is followed by a
traced pass of the same length, and the JSON holds the per-layer metrics,
including the tracing overhead. The full run record (machine probe, BLAS
config, source digest, spans) goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
IMPORT_REPS = 3
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import avbinder, avbinder.cli; print(time.perf_counter() - start)"
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="avbinder benchmark")
    parser.add_argument("--workload", choices=("train", "search", "crop"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    return parser.parse_args()


def import_seconds(src: Path) -> float:
    """Median time a fresh interpreter takes to import avbinder and its CLI,
    numpy included: the import every user of the command pays."""
    times = sorted(
        float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)], check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(IMPORT_REPS)
    )
    return times[IMPORT_REPS // 2]


def main() -> int:
    args = parse_args()
    # the BLAS pool is sized when numpy loads, so this precedes every import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    src = Path.cwd() / "src"
    if not (src / "avbinder" / "__init__.py").is_file():
        print(f"perfbench: no avbinder sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    import_s = import_seconds(src)
    sys.path.insert(0, str(src))
    import avbinder
    import avbinder.cli  # noqa: F401

    if Path(avbinder.__file__).resolve().parent != (src / "avbinder").resolve():
        print(f"perfbench: imported avbinder from {avbinder.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import bench

    return bench.run(args, avbinder, import_s)


if __name__ == "__main__":
    sys.exit(main())
