"""Record or check the bytes avbinder prints and writes on perfbench's inputs,
under every OpenBLAS kernel family numpy's bundled library ships.

    python3 tests/same_bytes.py --out tests/same_bytes.json [--train 1] [--search 1] [--crop 1]
    python3 tests/same_bytes.py --check tests/same_bytes.json [--train SEED ...] [--search SEED ...] [--crop SEED ...]

For each seed, ``perfbench/gen.py`` generates the workload's inputs, and
these commands run on the ``src/`` tree beside this script:

* train: perfbench's ``train`` argv; the checkpoint, the loss history and
  both held-out files are hashed;
* search: perfbench's ``eval`` argv in both directions, its ``retrieve --k
  10`` argv in both directions and once with ``--query-id`` (the first CLI
  query); each stdout is hashed;
* crop: ``crop --out`` on every clip; its stdout and every written frame
  are hashed.

GEMM bits differ between kernels, so the JSON holds one section of train
and search runs per kernel family (``kernels``, keyed by the name that
``scipy_openblas_get_corename64_`` reports) and one ``crop`` section, since
crop runs no BLAS. Each run maps every output to its SHA-256, beside each
command's exit code.

``--out FILE`` writes the whole file in one command. It runs crop in this
process and each family of ``FAMILIES`` in a child process with
``OPENBLAS_CORETYPE`` set; a family is left out only when OpenBLAS reports
another kernel than the one forced (a CPU that lacks the family's
instructions). Each seed list defaults to seed 1.

``--check FILE`` runs in this process on the kernel OpenBLAS picks
(``OPENBLAS_CORETYPE`` forces one). It reruns the crop runs and the runs of
that kernel's section, names every output that differs, and exits 1 if any
does. A seed list, when given, chooses which recorded runs to rerun, and an
empty one (``--crop`` alone) none. It exits 2, comparing nothing, when FILE
has no section for the running kernel, records no run a seed list names, or
nothing is chosen.

Both modes run the BLAS under ``--blas-threads`` threads (default 1).
Pytest does not collect this file, and it changes nothing under
``perfbench/``.
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

# one OPENBLAS_CORETYPE per GEMM kernel family of the DYNAMIC_ARCH build,
# each the name OpenBLAS reports back for it
FAMILIES = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Katmai")
BLAS_WORKLOADS = ("train", "search")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the hashes of every kernel family to this JSON file")
    mode.add_argument("--check", help="compare with the hashes recorded in this JSON file")
    for workload in ("train", "search", "crop"):
        parser.add_argument(f"--{workload}", type=int, nargs="*", metavar="SEED",
                            help="default: 1 with --out, every recorded seed with --check")
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


def record(runs: list[str]) -> dict:
    """Each run key (``"workload/seed"``) mapped to its outputs' hashes. Set
    the BLAS environment first: this imports avbinder, and with it numpy."""
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    import avbinder as av
    import avbinder.cli  # noqa: F401
    import gen
    import workloads

    recorded = {}
    for run_key in runs:
        workload, seed = run_key.split("/")
        with tempfile.TemporaryDirectory(prefix=f"same-bytes-{workload}-{seed}-") as tmp:
            work = Path(tmp)
            truth = gen.GENERATORS[workload](int(seed), work)
            recorded[run_key] = HASHERS[workload](av, workloads, work, truth, int(seed))
        print(f"same_bytes: {run_key} done", file=sys.stderr)
    return recorded


def record_in_child(family: str, runs: list[str]) -> tuple[str | None, dict]:
    """(the kernel OpenBLAS reports, the runs' hashes) from a child process
    with ``OPENBLAS_CORETYPE`` set to ``family``; the hashes are empty when
    it reports another kernel."""
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        out = Path(tmp) / "section.json"
        child = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import same_bytes; same_bytes.child()"
        subprocess.run([sys.executable, "-c", child, str(out), family, *runs],
                       env={**os.environ, "OPENBLAS_CORETYPE": family}, check=True)
        section = json.loads(out.read_text())
    return section["kernel"], section["runs"]


def child() -> None:
    """The child of :func:`record_in_child`: argv holds the output path, the
    family and the run keys."""
    out, family, *runs = sys.argv[1:]
    kernel = openblas_kernel()
    hashes = record(runs) if kernel == family else {}
    Path(out).write_text(json.dumps({"kernel": kernel, "runs": hashes}))


def write_manifest(args: argparse.Namespace) -> int:
    def runs(workloads):
        return [f"{w}/{s}" for w in workloads for s in ([1] if getattr(args, w) is None else getattr(args, w))]

    manifest = {"crop": record(runs(["crop"])), "kernels": {}}
    for family in FAMILIES:
        kernel, hashes = record_in_child(family, runs(BLAS_WORKLOADS))
        if kernel != family:
            print(f"same_bytes: OPENBLAS_CORETYPE={family} runs the {kernel} kernel; {family} left out",
                  file=sys.stderr)
            continue
        manifest["kernels"][family] = hashes
    Path(args.out).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    sections = [manifest["crop"], *manifest["kernels"].values()]
    print(f"same_bytes: wrote {sum(len(r) for s in sections for r in s.values())} entries "
          f"(crop and {', '.join(manifest['kernels'])}) to {args.out}", file=sys.stderr)
    return 0


def nothing_compared(why: str) -> int:
    print(f"same_bytes: {why}; nothing compared", file=sys.stderr)
    return 2


def check_manifest(args: argparse.Namespace) -> int:
    kernel = openblas_kernel()
    print(f"same_bytes: OpenBLAS runs the {kernel} kernel with {args.blas_threads} BLAS threads", file=sys.stderr)
    manifest = json.loads(Path(args.check).read_text())
    sections = {"crop": manifest["crop"], **dict.fromkeys(BLAS_WORKLOADS, manifest["kernels"].get(kernel))}
    want = {}
    for workload, section in sections.items():
        seeds = getattr(args, workload)
        if seeds == []:
            continue
        if section is None:
            return nothing_compared(f"{args.check} has no {kernel} section (it has {', '.join(manifest['kernels'])})")
        keys = [k for k in section if k.startswith(f"{workload}/")] if seeds is None else [f"{workload}/{s}" for s in seeds]
        missing = [k for k in keys if k not in section]
        if missing:
            return nothing_compared(f"{args.check} records no {', '.join(missing)} for this kernel")
        want.update((k, section[k]) for k in keys)
    if not want:
        return nothing_compared("no run chosen")
    got = record(list(want))
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


def main() -> int:
    args = parse_args()
    # the BLAS pool is sized when numpy loads, so this precedes every import;
    # the children of --out inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    return write_manifest(args) if args.out else check_manifest(args)


if __name__ == "__main__":
    sys.exit(main())
