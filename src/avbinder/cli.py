"""Command-line entry point.

Subcommands: gen-synthetic, train, eval, retrieve, crop. Tables go to
stdout as TSV, diagnostics to stderr. Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import borders, pnm
from .binder import BindModel, project_audio, project_video
from .embedio import (
    EmbeddingMatrix,
    SplitSpec,
    load_embeddings,
    pair_by_id,
    save_embeddings,
    split_dataset,
)
from .errors import DataFormatError, DivergenceError
from .projection import init_head
from .retrieval import (
    DIRECTION_A2V,
    DIRECTION_V2A,
    build_index,
    recall_at_k,
    retrieve_topk,
    retrieve_topk_batch,
)
from .seeding import derive_seed
from .training import (
    TrainConfig,
    TrainState,
    gen_synthetic,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

_DIRECTIONS = {"v2a": DIRECTION_V2A, "a2v": DIRECTION_A2V}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return value


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad K list {text!r}")
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError(f"bad K list {text!r}")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="avbinder", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="emit paired synthetic embedding files")
    p.add_argument("--pairs", type=_positive_int, default=2500)
    p.add_argument("--latent-dim", type=_positive_int, default=32)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--dim", type=_positive_int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-video", required=True)
    p.add_argument("--out-audio", required=True)

    p = sub.add_parser("train", help="train projection heads on paired embeddings")
    p.add_argument("--video", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="loss history TSV path")
    p.add_argument("--n-val", type=_non_negative_int, default=0, help="pairs to hold out")
    p.add_argument("--val-video-out", help="where to write the held-out video side")
    p.add_argument("--val-audio-out", help="where to write the held-out audio side")
    p.add_argument("--batch", type=_int_at_least(2), default=128)
    p.add_argument("--epochs", type=_positive_int, default=50)
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    p.add_argument("--tau", type=_positive_float, default=0.07)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--eval-every", type=_non_negative_int, default=0, help="epochs between held-out evals")
    p.add_argument("--k", type=_parse_k_list, default=[1, 5, 10])

    p = sub.add_parser("eval", help="print a Recall@K table for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--k", type=_parse_k_list, default=[1, 5, 10])
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), default="v2a")
    p.add_argument("--format", choices=["tsv", "line"], default="tsv")

    p = sub.add_parser("retrieve", help="top-K candidates for one or all queries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", required=True, help="query-side embedding file")
    p.add_argument("--candidates", required=True, help="candidate-side embedding file")
    p.add_argument("--query-id", help="run a single query instead of all rows")
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), default="v2a")

    p = sub.add_parser("crop", help="detect black borders and crop frames")
    p.add_argument("frames", nargs="+", help="ordered PGM/PPM frame files")
    p.add_argument("--out", help="directory for cropped frames")
    p.add_argument("--hist-std-threshold", type=float, default=borders.BorderParams.hist_std_threshold)
    p.add_argument("--edge-magnitude", type=int, default=borders.BorderParams.edge_magnitude)
    p.add_argument("--edge-fraction", type=float, default=borders.BorderParams.edge_fraction)
    p.add_argument("--black-threshold", type=float, default=borders.BorderParams.black_threshold)
    p.add_argument("--contrast-margin", type=float, default=borders.BorderParams.contrast_margin)
    p.add_argument("--nms-radius", type=int, default=borders.BorderParams.nms_radius)
    return parser


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {p}")
    return p


def _cmd_gen_synthetic(args) -> int:
    dataset = gen_synthetic(
        n_pairs=args.pairs,
        latent_dim=args.latent_dim,
        noise=args.noise,
        seed=args.seed,
        dim=args.dim,
    )
    save_embeddings(dataset.video, args.out_video)
    save_embeddings(dataset.audio, args.out_audio)
    print(f"wrote {dataset.count} pairs to {args.out_video} / {args.out_audio}", file=sys.stderr)
    return EXIT_OK


def _cmd_train(args) -> int:
    video = load_embeddings(_require_file(args.video))
    audio = load_embeddings(_require_file(args.audio))
    dataset = pair_by_id(video, audio)

    val = None
    if args.n_val > 0:
        spec = SplitSpec(n_val=args.n_val, seed=derive_seed(args.seed, "split"))
        dataset, val = split_dataset(dataset, spec)
        if args.val_video_out:
            save_embeddings(val.video, args.val_video_out)
        if args.val_audio_out:
            save_embeddings(val.audio, args.val_audio_out)

    cfg = TrainConfig(
        batch_size=args.batch,
        epochs=args.epochs,
        lr=args.lr,
        temperature=args.tau,
        seed=args.seed,
        shuffle=not args.no_shuffle,
        eval_every=args.eval_every,
    )
    model = BindModel(
        video_head=init_head(derive_seed(args.seed, "video-head"), d_in=dataset.video.dim),
        audio_head=init_head(derive_seed(args.seed, "audio-head"), d_in=dataset.audio.dim),
        temperature=cfg.temperature,
    )
    state = TrainState.for_model(model, seed=args.seed, config=cfg.as_dict())

    eval_fn = None
    if val is not None and cfg.eval_every > 0:
        held_out = val

        def eval_fn(m: BindModel):
            report = recall_at_k(m, held_out, ks=args.k)
            print(report.to_line(), file=sys.stderr)
            return report

    history = train(model, dataset, cfg, state=state, eval_fn=eval_fn)
    save_checkpoint(model, state, args.out)
    if args.history:
        with open(args.history, "w", encoding="utf-8") as fh:
            for step, loss in enumerate(history.losses, start=1):
                fh.write(f"{step}\t{np.format_float_positional(loss, unique=True)}\n")
    print(
        f"trained {len(history.losses)} steps on {dataset.count} pairs,"
        f" final loss {history.losses[-1]:.6f}, checkpoint {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, _ = load_checkpoint(_require_file(args.checkpoint))
    video = load_embeddings(_require_file(args.video))
    audio = load_embeddings(_require_file(args.audio))
    val = pair_by_id(video, audio)
    report = recall_at_k(model, val, ks=args.k, direction=_DIRECTIONS[args.direction])
    if args.format == "line":
        print(report.to_line())
    else:
        sys.stdout.write(report.to_tsv())
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    model, _ = load_checkpoint(_require_file(args.checkpoint))
    queries = load_embeddings(_require_file(args.queries))
    candidates = load_embeddings(_require_file(args.candidates))
    if args.direction == "v2a":
        y_query = project_video(model, queries.data)
        y_cand = project_audio(model, candidates.data)
    else:
        y_query = project_audio(model, queries.data)
        y_cand = project_video(model, candidates.data)
    index = build_index(
        EmbeddingMatrix(ids=candidates.ids, data=y_cand.astype(np.float32))
    )
    if args.query_id is not None:
        if args.query_id not in queries.ids:
            raise DataFormatError(f"query id {args.query_id!r} not in {args.queries}")
        i = queries.ids.index(args.query_id)
        results = [retrieve_topk(index, y_query[i], args.k, query_id=args.query_id)]
    else:
        results = retrieve_topk_batch(index, y_query, args.k, queries.ids)
    for result in results:
        for rank, (cand_id, score) in enumerate(result.items, start=1):
            print(f"{result.query_id}\t{rank}\t{cand_id}\t{score:.6f}")
    return EXIT_OK


def _cmd_crop(args) -> int:
    frames = [pnm.read_image(_require_file(f)) for f in args.frames]
    params = borders.BorderParams(
        hist_std_threshold=args.hist_std_threshold,
        edge_magnitude=args.edge_magnitude,
        edge_fraction=args.edge_fraction,
        black_threshold=args.black_threshold,
        contrast_margin=args.contrast_margin,
        nms_radius=args.nms_radius,
    )
    rect = borders.detect_crop_rect(frames, params)
    print(f"left\t{rect.left}")
    print(f"top\t{rect.top}")
    print(f"right\t{rect.right}")
    print(f"bottom\t{rect.bottom}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, frame in zip(args.frames, frames):
            pnm.write_image(out_dir / Path(path).name, borders.apply_crop(frame, rect))
        print(f"wrote {len(frames)} cropped frames to {out_dir}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "retrieve": _cmd_retrieve,
    "crop": _cmd_crop,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits 0 through here
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"avbinder: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataFormatError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"avbinder: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run_cli())
