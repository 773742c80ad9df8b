"""One benchmark run: inputs, set-up, timed rounds, checks, run record.

Loaded by ``run.py`` once the BLAS thread count is fixed and avbinder is
imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s", "op_ms_p50": "ms"}
DETAIL_UNITS = {
    "train_pairs_per_s": "1/s", "eval_queries_per_s": "1/s", "retrieve_queries_per_s": "1/s",
    "recommend_ms_p50": "ms", "recommend_ms_p99": "ms", "crop_frames_per_s": "1/s",
}
LAYER_UNITS = {"count": ("training.steps", "retrieval.queries", "borders.candidates", "borders.kept",
                         "borders.frames_gated"),
               "ratio": ("borders.kept_per_candidate",), "%": ("trace.overhead_pct",)}


def machine_probe() -> dict[str, float]:
    """A fixed numpy GEMM and memory copy: a reference for host speed."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    src, dst = np.ones(1 << 20), np.empty(1 << 20)  # 8 MB each
    gemm, copy = [], []
    for _ in range(20):
        start = time.perf_counter()
        a @ a
        gemm.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.copyto(dst, src)
        copy.append(time.perf_counter() - start)
    return {"gemm256_ms": statistics.median(gemm) * 1e3, "copy8mb_gbps": 8 * 2**20 / statistics.median(copy) / 1e9}


def source_identity(root: Path) -> dict[str, str | None]:
    """The git commit if the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "avbinder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def measure(wl: workloads.Workload, seconds: float, tracer: spans.Tracer | None = None):
    """Set up ``wl.setup_reps`` times, then run whole rounds until the next
    one would end past ``seconds`` (always at least one)."""

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    setups = []
    for _ in range(wl.setup_reps):
        with span("bench.setup"):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
    rounds, began = [], time.perf_counter()
    while True:
        start = time.perf_counter()
        with span("bench.round"):
            rounds.append(wl.round())
        now = time.perf_counter()
        if now - began + (now - start) > seconds:
            return setups, rounds


def run(args, av, import_s: float) -> int:
    root = Path.cwd()
    out_dir = root / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--out", str(work)],
            check=True, timeout=150,
        )
        truth = json.loads((work / "truth.json").read_text())
        probe_start = machine_probe()
        wl = workloads.WORKLOADS[args.workload](av, work, truth, args.seed)
        setups, rounds = measure(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary = workloads.summarize(rounds)
        end_to_end = {
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "items_per_s": summary["items_per_s"],
            "op_ms_p50": summary["op_ms_p50"],
        }
        all_rounds, layers = list(rounds), None
        if args.trace:
            tracer = spans.Tracer(args.workload)
            wl.tracer = tracer
            wl.trace(tracer)
            try:
                _, traced = measure(wl, args.seconds, tracer)
            finally:
                tracer.restore()
                wl.tracer = None
            layers = tracer.layer_metrics()
            traced_rate = workloads.summarize(traced)["items_per_s"]
            layers["trace.overhead_pct"] = 100.0 * (summary["items_per_s"] - traced_rate) / summary["items_per_s"]
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
            all_rounds += traced
        problems, failed = wl.check(all_rounds)
        attempted = sum(r["attempted"] for r in all_rounds)
        probe_end = machine_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    details = {name: summary[name] for name in DETAIL_UNITS if name in summary}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **source_identity(root),
        "python": sys.version.split()[0], "numpy": np.__version__, "platform": platform.platform(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "nproc": os.cpu_count(), "blas_threads": args.blas_threads, "numba_kernels": av.kernels.NUMBA_ENABLED,
        "probe_start": probe_start, "probe_end": probe_end,
        "import_s": import_s, "setup_reps_s": setups, "rounds": len(rounds),
        "item_seconds_per_round": [r["item_s"] for r in rounds], "ops_timed": summary["ops_timed"],
        "end_to_end": end_to_end, "details": details, "per_layer": layers,
        "attempted": attempted, "failed": failed, "problems": problems, "findings": wl.findings,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    for name, value in end_to_end.items():
        print(f"{name}\t{value:.6g}\t{END_TO_END_UNITS[name]}")
    for name, value in details.items():
        print(f"{name}\t{value:.6g}\t{DETAIL_UNITS[name]}")
    print(f"operations\tattempted {attempted}\tfailed {failed}")
    for problem in problems:
        print(f"INCORRECT\t{problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    for unit, names in LAYER_UNITS.items():
        if name in names:
            return unit
    return "ms"
