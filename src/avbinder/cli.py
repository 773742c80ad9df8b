"""Command-line entry point.

Subcommands: gen-synthetic, train, eval, retrieve, crop. Tables go to
stdout as TSV, diagnostics to stderr. Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import borders, pnm
from .binder import BindModel, project_audio, project_video
from .embedio import (
    EmbeddingMatrix,
    PairedDataset,
    SplitSpec,
    load_embeddings,
    pair_by_id,
    save_embeddings,
    split_dataset,
    write_atomic,
)
from .errors import DataFormatError, DivergenceError
from .projection import init_head, worker_thread
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

# --direction: the Recall@K label, the query side and the candidate side
_DIRECTIONS = {"v2a": (DIRECTION_V2A, "video", "audio"), "a2v": (DIRECTION_A2V, "audio", "video")}
_DEFAULT_KS = (1, 5, 10)  # Recall@K cutoffs of train --eval-every and eval


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _number(parse, low=-math.inf, high=math.inf, low_open=False):
    """argparse type: ``parse`` the text, then require a finite value in
    [low, high], or in (low, high] when ``low_open``. An integer is plain
    ASCII decimal digits: no sign, space, underscore or other script's
    digits, all of which Python's ``int`` accepts."""
    kind = "an integer" if parse is int else "a number"
    interval = f"{'(' if low_open else '['}{low}, {high}]"

    def check(text: str):
        if parse is int and not (text.isascii() and text.isdigit()):
            raise argparse.ArgumentTypeError(f"not plain decimal digits: {text!r}")
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}")
        # comparisons, not math.isfinite, which overflows on a huge int
        if not (-math.inf < value < math.inf and (low < value if low_open else low <= value) and value <= high):
            raise argparse.ArgumentTypeError(f"must be finite and in {interval}: {text!r}")
        return value

    return check


_positive_int = _number(int, 1)
_non_negative_int = _number(int, 0)
_seed = _number(int, 0, 2**64 - 1)  # checkpoints store the seed as uint64
_finite_float = _number(float)


def _positive_float32(text: str) -> float:
    """argparse type of --lr and --tau: a number that stays positive and finite
    when rounded to float32, the dtype of the heads and the checkpoint's tau."""
    value = _finite_float(text)
    with np.errstate(over="ignore", under="ignore"):
        if not 0.0 < np.float32(value) < math.inf:
            raise argparse.ArgumentTypeError(f"must stay positive and finite as a float32: {text!r}")
    return value


def _parse_k_list(text: str) -> list[int]:
    ks = [_positive_int(part) for part in text.split(",") if part]
    if not ks:
        raise argparse.ArgumentTypeError(f"bad K list {text!r}")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="avbinder", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="emit paired synthetic embedding files")
    p.add_argument("--pairs", type=_positive_int, default=2500)
    p.add_argument("--latent-dim", type=_positive_int, default=32)
    p.add_argument("--noise", type=_number(float, 0.0), default=0.1)
    p.add_argument("--dim", type=_positive_int, default=1024)
    p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--batch", type=_number(int, 2), default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=_positive_int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=_positive_float32, default=TrainConfig.lr)
    p.add_argument("--tau", type=_positive_float32, default=TrainConfig.temperature)
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--eval-every", type=_non_negative_int, default=TrainConfig.eval_every,
                   help="epochs between held-out evals")
    p.add_argument("--k", type=_parse_k_list, default=None,
                   help=f"Recall@K cutoffs of --eval-every (default {','.join(map(str, _DEFAULT_KS))})")

    p = sub.add_parser("eval", help="print a Recall@K table for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--k", type=_parse_k_list, default=_DEFAULT_KS)
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
    p.add_argument("--hist-std-threshold", type=_finite_float, default=borders.BorderParams.hist_std_threshold)
    p.add_argument("--edge-fraction", type=_number(float, 0.0, 1.0), default=borders.BorderParams.edge_fraction)
    p.add_argument("--black-threshold", type=_finite_float, default=borders.BorderParams.black_threshold)
    p.add_argument("--contrast-margin", type=_finite_float, default=borders.BorderParams.contrast_margin)
    p.add_argument("--nms-radius", type=_non_negative_int, default=borders.BorderParams.nms_radius)
    return parser


def _cmd_gen_synthetic(args) -> int:
    _check_output_files(args, "out_video", "out_audio")
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


def _check_held_out_flags(args) -> None:
    """Each held-out flag of train needs a split, a split needs a flag that
    uses it, --k needs an eval, and an eval needs an epoch to run after."""
    flags = ("--val-video-out", "--val-audio-out", "--eval-every")
    given = (args.val_video_out, args.val_audio_out, args.eval_every > 0)
    users = [flag for flag, used in zip(flags, given) if used]
    if args.n_val == 0 and users:
        raise _UsageError(
            f"avbinder train: --n-val is 0, so there is no held-out split for {', '.join(users)}"
        )
    if args.n_val > 0 and not users:
        raise _UsageError(
            f"avbinder train: --n-val {args.n_val} holds pairs out,"
            f" but none of {', '.join(flags)} uses them"
        )
    if args.k is not None and args.eval_every == 0:
        raise _UsageError("avbinder train: --k sets the Recall@K cutoffs of --eval-every, which is 0")
    if args.eval_every > args.epochs:
        raise _UsageError(
            f"avbinder train: --eval-every {args.eval_every} exceeds --epochs {args.epochs},"
            " so no held-out eval would run"
        )


def _check_output_files(args, *dests) -> None:
    """Exit 2 before any work if an output file's path is empty, its parent
    is not a directory or the path names something other than a regular
    file (a directory, a FIFO, a device), rather than after the work. A
    ``dest`` whose flag was not given (``None``) is skipped."""
    for dest in dests:
        path = getattr(args, dest)
        if path is None:
            continue
        if path == "":
            raise OSError(f"--{dest.replace('_', '-')}: empty output path")
        target = Path(path).resolve()  # as write_atomic resolves it
        if target.exists() and not target.is_file():
            raise OSError(f"{path}: not a regular file, so not an output file")
        if not target.parent.is_dir():
            raise OSError(f"{path}: {target.parent} is not a directory")


def _cmd_train(args) -> int:
    _check_held_out_flags(args)
    _check_output_files(args, "out", "history", "val_video_out", "val_audio_out")
    video = load_embeddings(args.video)
    audio = load_embeddings(args.audio)
    dataset = pair_by_id(video, audio)

    val = None
    if args.n_val > 0:
        spec = SplitSpec(n_val=args.n_val, seed=derive_seed(args.seed, "split"))
        dataset, val = split_dataset(dataset, spec)

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
        held_out, ks = val, args.k or _DEFAULT_KS

        def eval_fn(m: BindModel) -> None:
            pairs = PairedDataset(_projected(m, held_out.video, "video", args.video),
                                  _projected(m, held_out.audio, "audio", args.audio))
            print(recall_at_k(pairs, ks=ks).to_line(), file=sys.stderr)

    losses = train(model, dataset, cfg, state=state, eval_fn=eval_fn)
    save_checkpoint(model, state, args.out)
    if args.history:
        lines = (f"{step}\t{np.format_float_positional(loss, unique=True)}\n".encode("utf-8")
                 for step, loss in enumerate(losses, start=1))
        write_atomic(args.history, lines)
    # written with the other outputs, so a run that fails in training leaves none
    if args.val_video_out:
        save_embeddings(val.video, args.val_video_out)
    if args.val_audio_out:
        save_embeddings(val.audio, args.val_audio_out)
    print(
        f"trained {len(losses)} steps on {dataset.count} pairs,"
        f" final loss {losses[-1]:.6f}, checkpoint {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _projected(model: BindModel, rows: EmbeddingMatrix, side: str, path) -> EmbeddingMatrix:
    """``rows``, read from ``path``, after the eval-mode projection of the
    ``side`` head, whose input width they must have."""
    head, project = (model.video_head, project_video) if side == "video" else (model.audio_head, project_audio)
    if rows.dim != head.d_in:
        raise DataFormatError(f"{path}: rows are {rows.dim}-d, but the checkpoint's {side} head takes {head.d_in}-d")
    return EmbeddingMatrix(ids=rows.ids, data=project(model, rows.data))


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint, with_optimizer=False)[0]  # the Adam moments are checked, not kept
    # each file is projected as it is read, so only projected rows are paired;
    # one worker thread serves both projections, as one serves a train run
    with worker_thread():
        video = _projected(model, load_embeddings(args.video), "video", args.video)
        audio = _projected(model, load_embeddings(args.audio), "audio", args.audio)
    report = recall_at_k(pair_by_id(video, audio), ks=args.k, direction=_DIRECTIONS[args.direction][0])
    if args.format == "line":
        print(report.to_line())
    else:
        sys.stdout.write(report.to_tsv())
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    model = load_checkpoint(args.checkpoint, with_optimizer=False)[0]  # the Adam moments are checked, not kept
    _, query_side, cand_side = _DIRECTIONS[args.direction]
    queries = load_embeddings(args.queries)
    if args.query_id is not None:  # only the asked row is projected
        if args.query_id not in queries.ids:
            raise DataFormatError(f"query id {args.query_id!r} not in {args.queries}")
        queries = queries.take([queries.ids.index(args.query_id)])
    with worker_thread():  # one worker thread serves both projections
        queries = _projected(model, queries, query_side, args.queries)
        candidates = _projected(model, load_embeddings(args.candidates), cand_side, args.candidates)
    if candidates.count == 0:
        raise DataFormatError(f"{args.candidates}: no candidate rows to search")
    index = build_index(candidates)
    if args.query_id is not None:
        results = [retrieve_topk(index, queries.data[0], args.k, query_id=args.query_id)]
    else:
        results = retrieve_topk_batch(index, queries.data, args.k, queries.ids)
    for result in results:
        for rank, (cand_id, score) in enumerate(result.items, start=1):
            print(f"{result.query_id}\t{rank}\t{cand_id}\t{score:.6f}")
    return EXIT_OK


def _cmd_crop(args) -> int:
    if args.out == "":  # as _check_output_files rejects an empty file path
        raise OSError("--out: empty output path")
    if args.out:  # each cropped frame is written under its input's file name
        names = Counter(Path(path).name for path in args.frames)
        clash = [path for path in args.frames if names[Path(path).name] > 1]
        if clash:
            raise _UsageError(f"avbinder crop: {', '.join(clash)} share a file name; --out would keep one of them")
    # each tuning flag's dest is the BorderParams field it sets
    params = borders.BorderParams(**{f.name: getattr(args, f.name) for f in fields(borders.BorderParams)})
    shapes = []  # each frame's shape as pass 1 read it, for pass 2 to check

    def read_frames():
        for path in args.frames:
            frame = pnm.read_image(path)
            shapes.append(frame.shape)
            yield frame

    # pass 1 reads the frames one at a time, as detection takes them
    rect = borders.detect_crop_rect(read_frames(), params)
    if args.out:  # made before the rectangle is printed, so a path that cannot be one prints nothing
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    print(f"left\t{rect.left}")
    print(f"top\t{rect.top}")
    print(f"right\t{rect.right}")
    print(f"bottom\t{rect.bottom}")
    if args.out:  # pass 2 reads each frame again to crop it
        for path, shape in zip(args.frames, shapes):
            frame = pnm.read_image(path)
            if frame.shape != shape:
                raise DataFormatError(f"{path}: shape changed from {shape} to {frame.shape} between the passes")
            pnm.write_image(out_dir / Path(path).name, borders.apply_crop(frame, rect))
        print(f"wrote {len(args.frames)} cropped frames to {out_dir}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "retrieve": _cmd_retrieve,
    "crop": _cmd_crop,
}


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits 0 through here
        return int(exc.code or 0)
    except DivergenceError as exc:
        print(f"avbinder: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError) as exc:  # DataFormatError is a ValueError
        print(f"avbinder: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run_cli())
