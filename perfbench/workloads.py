"""The three workloads: train, search and crop.

Each drives one group of avbinder modules through the user's entry points
(``avbinder.cli.run_cli`` with stdout captured, plus ``retrieve_topk`` for
single queries) and leaves the others idle. A workload offers:

* ``setup()``: everything its path does before the first step, query or
  frame, through the same public functions the CLI calls;
* ``round()``: one pass over its fixed operations, returning the timings
  and outputs of that pass;
* ``check(rounds)``: the list of correctness failures and the number of
  operations that failed, judged by :mod:`oracles`;
* ``trace(tracer)``: the call sites wrapped in a traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles


def run_command(av, argv: list[str]) -> tuple[int, str, float]:
    """One `avbinder` subcommand in-process: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = av.cli.run_cli(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


class Workload:
    setup_reps = 3

    def __init__(self, av, work: Path, truth: dict, seed: int) -> None:
        self.av = av
        self.work = work
        self.truth = truth
        self.seed = seed
        # the benchmark's own call sites into the library, wrapped when traced
        self.api = SimpleNamespace(
            load_embeddings=av.embedio.load_embeddings,
            pair_by_id=av.embedio.pair_by_id,
            split_dataset=av.embedio.split_dataset,
            init_head=av.projection.init_head,
            load_checkpoint=av.training.load_checkpoint,
            project_video=av.binder.project_video,
            project_audio=av.binder.project_audio,
            build_index=av.retrieval.build_index,
            retrieve_topk=av.retrieval.retrieve_topk,
            read_image=av.pnm.read_image,
        )
        self.tracer = None
        self.findings: dict[str, object] = {}  # figures the checks computed, for the run record

    def command_span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


# --- train -------------------------------------------------------------------
# Far above chance: the trained heads must rank the true partner in the top
# 10 at least this many times as often as a random ranking would.
TRAIN_RECALL_FACTOR = 5.0


class Train(Workload):
    setup_reps = 5

    def __init__(self, *args) -> None:
        super().__init__(*args)
        t = self.truth
        self.n_train = t["pairs"] - t["n_val"]
        self.steps = t["epochs"] * (self.n_train // t["batch"])
        w = self.work
        self.argv = [
            "train", "--video", str(w / "video.mvbe"), "--audio", str(w / "audio.mvbe"),
            "--out", str(w / "model.mvbm"), "--history", str(w / "loss.tsv"),
            "--n-val", str(t["n_val"]), "--val-video-out", str(w / "val_video.mvbe"),
            "--val-audio-out", str(w / "val_audio.mvbe"), "--batch", str(t["batch"]),
            "--epochs", str(t["epochs"]), "--seed", str(self.seed),
        ]

    def setup(self) -> None:
        av, api, t = self.av, self.api, self.truth
        video = api.load_embeddings(self.work / "video.mvbe")
        audio = api.load_embeddings(self.work / "audio.mvbe")
        dataset = api.pair_by_id(video, audio)
        spec = av.embedio.SplitSpec(n_val=t["n_val"], seed=av.seeding.derive_seed(self.seed, "split"))
        train, _val = api.split_dataset(dataset, spec)
        model = av.binder.BindModel(
            video_head=api.init_head(av.seeding.derive_seed(self.seed, "video-head"), d_in=train.video.dim),
            audio_head=api.init_head(av.seeding.derive_seed(self.seed, "audio-head"), d_in=train.audio.dim),
        )
        av.training.TrainState.for_model(model, seed=self.seed)

    def round(self) -> dict:
        code, _out, seconds = run_command(self.av, self.argv)
        ckpt = self.work / "model.mvbm"
        digest = hashlib.sha256(ckpt.read_bytes()).hexdigest() if code == 0 else None
        history = (self.work / "loss.tsv").read_text() if code == 0 else ""
        pairs = self.steps * self.truth["batch"]
        return {
            "code": code, "digest": digest, "history": history,
            "items": pairs, "item_s": seconds, "ops_ms": [seconds * 1e3],
            "attempted": self.steps, "detail": {"train_pairs_per_s": (pairs, seconds)},
        }

    def check(self, rounds: list[dict]) -> tuple[list[str], int]:
        t, w = self.truth, self.work
        failed = sum(self.steps for r in rounds if r["code"] != 0)
        if failed:
            return [f"`avbinder train` exited {[r['code'] for r in rounds]}"], failed
        problems = []
        if len({r["digest"] for r in rounds}) != 1 or len({r["history"] for r in rounds}) != 1:
            problems.append("repeated `avbinder train` runs wrote different checkpoints or histories")
        losses = [float(line.split("\t")[1]) for line in rounds[0]["history"].splitlines()]
        if len(losses) != self.steps:
            problems.append(f"{len(losses)} losses in the history, want {self.steps}")
        elif not all(math.isfinite(x) for x in losses):
            problems.append("a loss is not finite")
        else:
            per_epoch = len(losses) // t["epochs"]
            first, last = np.mean(losses[:per_epoch]), np.mean(losses[-per_epoch:])
            if not last < first:
                problems.append(f"last-epoch mean loss {last:.4f} is not below the first {first:.4f}")
        ck = oracles.read_mvbm(w / "model.mvbm")
        if ck["dims"] != (t["dim"], t["dim"], t["hid"], t["out"]):
            problems.append(f"checkpoint dims {ck['dims']}")
        if ck["step"] != self.steps:
            problems.append(f"checkpoint step {ck['step']}, want {self.steps}")
        # held-out pairs must be real pairs of the generated data
        ids_v, all_v = oracles.read_mvbe(w / "video.mvbe")
        row = {item_id: i for i, item_id in enumerate(ids_v)}
        val_ids, val_v = oracles.read_mvbe(w / "val_video.mvbe")
        val_ids_a, val_a = oracles.read_mvbe(w / "val_audio.mvbe")
        if val_ids != val_ids_a or len(val_ids) != t["n_val"]:
            problems.append("held-out files are not aligned pairs of the requested size")
        elif not np.array_equal(val_v, all_v[[row[i] for i in val_ids]]):
            problems.append("held-out video rows differ from the generated rows")
        else:
            eps_v = ck["meta"]["video_head"]["bn_eps"]
            eps_a = ck["meta"]["audio_head"]["bn_eps"]
            scores = oracles.cosine_scores(
                oracles.eval_forward(ck["video"], val_v, eps_v), oracles.eval_forward(ck["audio"], val_a, eps_a)
            )
            low, _high = oracles.recall_bounds(scores, val_ids, [10])[10]
            chance = 10 / len(val_ids)
            self.findings["heldout_recall_at_10"] = low
            if low < TRAIN_RECALL_FACTOR * chance:
                problems.append(f"held-out Recall@10 {low:.3f} is not far above chance {chance:.3f}")
        return problems, 0

    def trace(self, tracer) -> None:
        av = self.av
        tracer.wrap(av.training, "train_step", "training.train_step")
        tracer.wrap(av.training, "head_forward", "projection.head_forward.train")
        tracer.wrap(av.training, "head_backward", "projection.head_backward")
        tracer.wrap(av.training, "apply_update", "projection.apply_update")
        tracer.wrap(av.training, "row_dots", "binder.row_dots.train")
        tracer.wrap(av.training, "l2_normalize_rows", "binder.l2_normalize_rows")
        tracer.wrap(av.training, "normalize_backward", "binder.normalize_backward")
        tracer.wrap(av.training, "info_nce_loss", "binder.info_nce_loss")
        tracer.wrap(av.training, "info_nce_backward", "binder.info_nce_backward")
        tracer.wrap(av.cli, "save_checkpoint", "training.save_checkpoint")
        for owner in (self.api, av.cli):
            tracer.wrap(owner, "load_embeddings", "embedio.load_embeddings")
            tracer.wrap(owner, "pair_by_id", "embedio.pair_by_id")
            tracer.wrap(owner, "split_dataset", "embedio.split_dataset")


# --- search ------------------------------------------------------------------
class Search(Workload):
    KS = (1, 5, 10)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        w = self.work
        self.ckpt = str(w / "model.mvbm")
        self.eval_argv = {
            d: ["eval", "--checkpoint", self.ckpt, "--video", str(w / "eval_video.mvbe"),
                "--audio", str(w / "eval_audio.mvbe"), "--k", ",".join(map(str, self.KS)), "--direction", d]
            for d in ("v2a", "a2v")
        }
        self.retrieve_argv = [
            "retrieve", "--checkpoint", self.ckpt, "--queries", str(w / "cli_queries.mvbe"),
            "--candidates", str(w / "library_audio.mvbe"), "--k", "10",
        ]

    def setup(self) -> None:
        av, api = self.av, self.api
        model, _state = api.load_checkpoint(self.ckpt)
        library = api.load_embeddings(self.work / "library_audio.mvbe")
        y_lib = api.project_audio(model, library.data)
        # the index is built exactly as `avbinder retrieve` builds it
        index = api.build_index(av.embedio.EmbeddingMatrix(ids=library.ids, data=y_lib.astype(np.float32)))
        queries = api.load_embeddings(self.work / "single_queries.mvbe")
        self.index, self.query_ids, self.y_queries = index, queries.ids, api.project_video(model, queries.data)

    def round(self) -> dict:
        t = self.truth
        codes, texts, cli_s = [], {}, {}
        for d, argv in self.eval_argv.items():
            code, texts[d], cli_s[d] = run_command(self.av, argv)
            codes.append(code)
        with self.command_span("cli.retrieve"):
            code, texts["retrieve"], cli_s["retrieve"] = run_command(self.av, self.retrieve_argv)
        codes.append(code)
        results, ops_ms = [], []
        topk = self.api.retrieve_topk
        for i, query_id in enumerate(self.query_ids):
            start = time.perf_counter()
            result = topk(self.index, self.y_queries[i], 10, query_id=query_id)
            ops_ms.append((time.perf_counter() - start) * 1e3)
            results.append(result)
        eval_rows, eval_s = 2 * t["eval_pairs"], cli_s["v2a"] + cli_s["a2v"]
        return {
            "codes": codes, "texts": texts, "results": [(r.query_id, r.items) for r in results],
            "items": eval_rows + t["cli_queries"], "item_s": eval_s + cli_s["retrieve"], "ops_ms": ops_ms,
            "attempted": eval_rows + t["cli_queries"] + len(results),
            "detail": {
                "eval_queries_per_s": (eval_rows, eval_s),
                "retrieve_queries_per_s": (t["cli_queries"], cli_s["retrieve"]),
            },
        }

    def check(self, rounds: list[dict]) -> tuple[list[str], int]:
        t, w = self.truth, self.work
        if any(code != 0 for r in rounds for code in r["codes"]):
            return [f"a search command exited non-zero: {[r['codes'] for r in rounds]}"], sum(
                r["attempted"] for r in rounds
            )
        first = rounds[0]
        problems = []
        if any(r["texts"] != first["texts"] or r["results"] != first["results"] for r in rounds[1:]):
            problems.append("repeated rounds gave different outputs")
        ck = oracles.read_mvbm(w / "model.mvbm")

        def project(side: str, name: str):
            ids, x = oracles.read_mvbe(w / name)
            return ids, oracles.eval_forward(ck[side], x, ck["meta"][f"{side}_head"]["bn_eps"])

        val_ids, yv = project("video", "eval_video.mvbe")
        _, ya = project("audio", "eval_audio.mvbe")
        for d, scores in (("v2a", oracles.cosine_scores(yv, ya)), ("a2v", oracles.cosine_scores(ya, yv))):
            bounds = oracles.recall_bounds(scores, val_ids, list(self.KS))
            rows = dict(line.split("\t") for line in first["texts"][d].splitlines())
            printed = [float(rows.get(str(k), "nan")) for k in self.KS]
            if any(a > b for a, b in zip(printed, printed[1:])):
                problems.append(f"eval {d}: Recall@K decreases in K: {printed}")
            for k, got in zip(self.KS, printed):
                low, high = (float(f"{b * 100:.1f}") for b in bounds[k])
                if not low <= got <= high:
                    problems.append(f"eval {d}: R@{k} = {got}, brute force gives {low}..{high}")
            self.findings[f"eval_{d}_recall_pct"] = printed

        lib_ids, y_lib = project("audio", "library_audio.mvbe")
        lib_rank = oracles.id_ranks(lib_ids)
        cli_ids, y_cli = project("video", "cli_queries.mvbe")
        listed = oracles.parse_retrieve(first["texts"]["retrieve"])
        if list(listed) != cli_ids:
            problems.append("`avbinder retrieve` did not answer every query row once, in order")
        scores = oracles.cosine_scores(y_cli, y_lib)
        for i, query_id in enumerate(cli_ids):
            want = oracles.topk_full_sort(lib_rank, scores[i], 10)
            why = oracles.check_ranking(listed.get(query_id, []), want, lib_ids, scores[i], oracles.SCORE_TOL)
            if why:
                problems.append(f"retrieve {query_id}: {why}")
                break
        single_ids, y_single = project("video", "single_queries.mvbe")
        scores = oracles.cosine_scores(y_single, y_lib)
        for i, (query_id, items) in enumerate(first["results"]):
            want = oracles.topk_full_sort(lib_rank, scores[i], 10)
            why = oracles.check_ranking(list(items), want, lib_ids, scores[i], oracles.TIE_TOL)
            if query_id != single_ids[i] or why:
                problems.append(f"retrieve_topk {query_id}: {why or 'query id mismatch'}")
                break
        return problems, 0

    def trace(self, tracer) -> None:
        av = self.av
        tracer.wrap(self.api, "load_checkpoint", "training.load_checkpoint")
        tracer.wrap(av.cli, "load_checkpoint", "training.load_checkpoint")
        for owner in (self.api, av.cli):
            tracer.wrap(owner, "load_embeddings", "embedio.load_embeddings")
            tracer.wrap(owner, "build_index", "retrieval.build_index")
            tracer.wrap(owner, "retrieve_topk", "retrieval.retrieve_topk")
        tracer.wrap(av.cli, "pair_by_id", "embedio.pair_by_id")
        tracer.wrap(av.binder, "head_forward", "projection.head_forward.eval")
        tracer.wrap(av.retrieval, "recall_from_projections", "retrieval.recall_from_projections")
        tracer.wrap(av.retrieval, "row_dots", "retrieval.row_dots")


# --- crop --------------------------------------------------------------------
class Crop(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.clips = self.truth["clips"]
        self.frames = sum(len(c["files"]) for c in self.clips)

    def setup(self) -> None:
        read = self.api.read_image
        for clip in self.clips:
            for f in clip["files"]:
                read(f)

    def round(self) -> dict:
        codes, texts, ops_ms = [], [], []
        for clip in self.clips:
            argv = ["crop", *clip["files"], "--out", str(self.work / "out" / clip["name"])]
            code, text, seconds = run_command(self.av, argv)
            codes.append(code)
            texts.append(text)
            ops_ms.append(seconds * 1e3)
        total_s = sum(ops_ms) / 1e3
        return {
            "codes": codes, "texts": texts, "items": self.frames, "item_s": total_s, "ops_ms": ops_ms,
            "attempted": len(self.clips), "detail": {"crop_frames_per_s": (self.frames, total_s)},
        }

    def want_rect(self, clip: dict) -> tuple[int, int, int, int]:
        if clip["layout"] == "borderless":
            return 0, 0, self.truth["width"], self.truth["height"]
        return tuple(clip["rect"])

    def check(self, rounds: list[dict]) -> tuple[list[str], int]:
        problems, failed = [], 0
        if any(r["texts"] != rounds[0]["texts"] for r in rounds[1:]):
            problems.append("repeated rounds gave different crop rectangles")
        for r in rounds:
            for clip, code, text in zip(self.clips, r["codes"], r["texts"]):
                ok = code == 0 and oracles.parse_crop_rect(text) == self.want_rect(clip)
                if ok:
                    continue
                failed += 1
                if clip["name"] != self.truth["gap_clip"]:
                    problems.append(f"clip {clip['name']}: exit {code}, printed {text!r}, drew {self.want_rect(clip)}")
        for clip, code, text in zip(self.clips, rounds[-1]["codes"], rounds[-1]["texts"]):
            if code != 0:
                continue
            rect = oracles.parse_crop_rect(text)
            for f in clip["files"]:
                written = self.work / "out" / clip["name"] / Path(f).name
                if oracles.read_pnm(written) != oracles.expected_crop(f, rect):
                    problems.append(f"clip {clip['name']}: {written.name} is not the input cut to {rect}")
                    break
        return problems[:5], failed

    def trace(self, tracer) -> None:
        av = self.av

        def gated(tr, std):
            tr.count("borders.frames_gated", int(std < av.borders.BorderParams.hist_std_threshold))

        tracer.wrap(self.api, "read_image", "pnm.read_image")
        tracer.wrap(av.pnm, "read_image", "pnm.read_image")
        tracer.wrap(av.pnm, "write_image", "pnm.write_image")
        tracer.wrap(av.borders, "rgb_to_gray", "borders.rgb_to_gray")
        tracer.wrap(av.borders, "histogram_std", "borders.histogram_std", gated)
        tracer.wrap(av.borders, "otsu_threshold", "borders.otsu_threshold")
        tracer.wrap(av.borders, "binarize", "borders.binarize")
        tracer.wrap(av.borders, "sobel_gradients", "kernels.sobel_gradients")
        tracer.wrap(av.borders, "extract_edge_candidates", "borders.extract_edge_candidates",
                    lambda tr, cands: tr.count("borders.candidates", len(cands)))
        tracer.wrap(av.borders, "fold_filter", "borders.fold_filter",
                    lambda tr, kept: tr.count("borders.kept", len(kept)))
        tracer.wrap(av.borders, "nms_unify", "borders.nms_unify")
        tracer.wrap(av.borders, "apply_crop", "borders.apply_crop")


WORKLOADS = {"train": Train, "search": Search, "crop": Crop}


def summarize(rounds: list[dict]) -> dict[str, float]:
    """End-to-end figures of one pass, plus the named per-path details.

    Rates are medians over rounds, so one round caught in a slow phase of a
    shared host does not move the figure."""
    ops = [ms for r in rounds for ms in r["ops_ms"]]
    out = {
        "items_per_s": statistics.median(r["items"] / r["item_s"] for r in rounds),
        "op_ms_p50": statistics.median(ops),
    }
    for name in rounds[0]["detail"]:
        out[name] = statistics.median(r["detail"][name][0] / r["detail"][name][1] for r in rounds)
    if "eval_queries_per_s" in out:
        out["recommend_ms_p50"] = out["op_ms_p50"]
        if len(ops) >= 1000:  # at least ten samples beyond the 99th percentile
            out["recommend_ms_p99"] = float(np.percentile(ops, 99))
    out["ops_timed"] = len(ops)
    return out
