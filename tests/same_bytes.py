"""Record or check the bytes avbinder prints and writes on perfbench's inputs.

    python3 tests/same_bytes.py --out hashes.json [--train 1] [--search 1 2 3] [--crop 1 2 3]
    python3 tests/same_bytes.py --check hashes.json

For each seed, ``perfbench/gen.py`` generates the workload's inputs in a
child process, and the commands below run in this process on the
``src/`` tree beside this script:

* train: perfbench's ``train`` argv; the checkpoint, the loss history and
  both held-out files are hashed;
* search: perfbench's ``eval`` argv in both directions, its ``retrieve --k
  10`` argv in both directions and once with ``--query-id`` (the first CLI
  query); each stdout is hashed;
* crop: ``crop --out`` on every clip; its stdout and every written frame
  are hashed.

The SHA-256 of each output, with each command's exit code, goes to the
``--out`` JSON under ``runs``, beside the name of the kernel numpy's
bundled OpenBLAS ran (``openblas_kernel``; GEMM bits differ between
kernels). ``--check FILE`` reruns the workloads and seeds that FILE
records, names every output that differs, and exits 1 if any does; it
exits 2, comparing nothing, when OpenBLAS runs another kernel than FILE
records (``OPENBLAS_CORETYPE`` forces one). Pytest does not collect this
file, and it changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the hashes to this JSON file")
    mode.add_argument("--check", help="compare with the hashes recorded in this JSON file")
    parser.add_argument("--train", type=int, nargs="*", default=[1], metavar="SEED")
    parser.add_argument("--search", type=int, nargs="*", default=[1, 2, 3], metavar="SEED")
    parser.add_argument("--crop", type=int, nargs="*", default=[1, 2, 3], metavar="SEED")
    parser.add_argument("--blas-threads", type=int, default=1)
    return parser.parse_args()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def openblas_kernel() -> str | None:
    """The kernel name numpy's bundled OpenBLAS reports, or None without
    that library. Call it once numpy has loaded, so the loaded library
    answers."""
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def run(av, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = av.cli.run_cli(argv)
    return code, out.getvalue()


def generate(workload: str, seed: int, work: Path) -> dict:
    subprocess.run([sys.executable, str(PERFBENCH / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(work)], check=True)
    return json.loads((work / "truth.json").read_text())


def hash_train(av, workloads, work: Path, truth: dict, seed: int) -> dict:
    argv = workloads.Train(av, work, truth, seed).argv
    code, out = run(av, argv)
    hashes = {"train exit": code, "train stdout": sha256(out.encode())}
    for name in ("model.mvbm", "loss.tsv", "val_video.mvbe", "val_audio.mvbe"):
        path = work / name
        hashes[name] = sha256(path.read_bytes()) if path.exists() else None
    return hashes


def hash_search(av, workloads, work: Path, truth: dict, seed: int) -> dict:
    search = workloads.Search(av, work, truth, seed)
    first_query = av.embedio.load_embeddings(work / "cli_queries.mvbe").ids[0]
    argvs = {f"eval {d}": argv for d, argv in search.eval_argv.items()}
    argvs["retrieve v2a"] = search.retrieve_argv
    argvs["retrieve a2v"] = [*search.retrieve_argv, "--direction", "a2v"]
    argvs["retrieve --query-id"] = [*search.retrieve_argv, "--query-id", first_query]
    hashes = {}
    for label, argv in argvs.items():
        code, out = run(av, argv)
        hashes[f"{label} exit"], hashes[f"{label} stdout"] = code, sha256(out.encode())
    return hashes


def hash_crop(av, workloads, work: Path, truth: dict, seed: int) -> dict:
    hashes = {}
    for clip in truth["clips"]:
        out_dir = work / "out" / clip["name"]
        code, out = run(av, ["crop", *clip["files"], "--out", str(out_dir)])
        hashes[f"{clip['name']} exit"], hashes[f"{clip['name']} stdout"] = code, sha256(out.encode())
        for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
            hashes[f"{clip['name']}/{path.name}"] = sha256(path.read_bytes())
    return hashes


HASHERS = {"train": hash_train, "search": hash_search, "crop": hash_crop}


def record(av, workloads, runs: list[tuple[str, int]]) -> dict:
    recorded = {}
    for workload, seed in runs:
        with tempfile.TemporaryDirectory(prefix=f"same-bytes-{workload}-{seed}-") as tmp:
            work = Path(tmp)
            truth = generate(workload, seed, work)
            recorded[f"{workload}/{seed}"] = HASHERS[workload](av, workloads, work, truth, seed)
        print(f"same_bytes: {workload} seed {seed} done", file=sys.stderr)
    return recorded


def main() -> int:
    args = parse_args()
    # the BLAS pool is sized when numpy loads, so this precedes every import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    import avbinder as av
    import avbinder.cli  # noqa: F401
    import workloads

    kernel = openblas_kernel()
    if args.check:
        manifest = json.loads(Path(args.check).read_text())
        if manifest["openblas_kernel"] != kernel:
            print(f"same_bytes: {args.check} was recorded on the {manifest['openblas_kernel']} kernel, "
                  f"OpenBLAS runs {kernel}; nothing compared", file=sys.stderr)
            return 2
        want = manifest["runs"]
        runs = [(key.split("/")[0], int(key.split("/")[1])) for key in want]
    else:
        runs = [(w, s) for w in HASHERS for s in getattr(args, w)]
    got = record(av, workloads, runs)
    if not args.check:
        manifest = {"openblas_kernel": kernel, "runs": got}
        Path(args.out).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"same_bytes: wrote {sum(map(len, got.values()))} entries ({kernel} kernel) to {args.out}",
              file=sys.stderr)
        return 0
    differences = [
        f"{run_key}: {label}: recorded {want[run_key].get(label)}, got {got[run_key].get(label)}"
        for run_key in want
        for label in sorted(set(want[run_key]) | set(got[run_key]))
        if want[run_key].get(label) != got[run_key].get(label)
    ]
    for line in differences:
        print(line)
    print(f"same_bytes: {len(differences)} differences in {sum(map(len, want.values()))} entries", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
