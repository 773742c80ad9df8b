"""Input generators for the benchmark, with writers that do not use avbinder.

Every input is a pure function of (workload, seed) and is written with the
writers below (MVBE embeddings, MVBM checkpoints, PGM/PPM frames), so the
program under test only ever sees files. Each generator also writes
``truth.json`` holding what the oracles need to know about the inputs.

Run as a separate process, so the generator's memory does not count in the
workload's peak resident size:

    python3 perfbench/gen.py --workload search --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import struct
from pathlib import Path

import numpy as np

# --- train: paired embeddings from a shared latent --------------------------
TRAIN_PAIRS = 2304  # 2048 training pairs after the held-out split
TRAIN_N_VAL = 256
TRAIN_BATCH = 128
TRAIN_EPOCHS = 3  # 3 x 16 = 48 steps per `avbinder train` command
TRAIN_LATENT = 32
TRAIN_NOISE = 1.0
DIM = 1024

# --- search: a library the size of SVM-10K, bound by known weights ---------
LIBRARY_TRACKS = 10_000
CLI_QUERIES = 256  # rows ranked by one `avbinder retrieve` command
SINGLE_QUERIES = 256  # rows sent one at a time to retrieve_topk per round
EVAL_PAIRS = 1000  # held-out pairs behind each `avbinder eval` command
HID = 512
OUT = 256
SEARCH_NOISE = 2.0  # latent-space noise; puts Recall@1 well inside (0, 1)
TEMPERATURE = 0.07

# --- crop: 1080p clips -------------------------------------------------------
HEIGHT, WIDTH = 1080, 1920
FRAMES_PER_CLIP = 4
# The detector gap: full-range-ish noise next to a 140-px letterbox. Its
# inputs never depend on --seed, so it fails in every run.
GAP_SEED = 20240515
GAP_BAR = 140
GAP_LOW, GAP_HIGH = 40, 254
# name, file format, layout, content
CLIPS = (
    ("letterbox-gray", "pgm", "letterbox", "smooth"),
    ("pillarbox-gray", "pgm", "pillarbox", "smooth"),
    ("windowbox-rgb", "ppm", "windowbox", "smooth"),
    ("letterbox-rgb", "ppm", "letterbox", "smooth"),
    ("borderless-rgb", "ppm", "borderless", "smooth"),
    ("borderless-noise-gray", "pgm", "borderless", "noise"),
    ("gap-letterbox-noise-gray", "pgm", "gap", "gap-noise"),
)
GAP_CLIP = "gap-letterbox-noise-gray"


# --- writers -----------------------------------------------------------------
def write_mvbe(path, ids, data) -> None:
    """MVBE v1: magic, version, dim, count, u16-prefixed ids, f32 rows."""
    data = np.ascontiguousarray(data, dtype="<f4")
    parts = [struct.pack("<4sIIQ", b"MVBE", 1, data.shape[1], data.shape[0])]
    for item_id in ids:
        raw = item_id.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
    parts.append(data.tobytes())
    Path(path).write_bytes(b"".join(parts))


HEAD_BLOCKS = ("w1", "b1", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var", "w2", "b2")
ADAM_BLOCKS = ("w1", "b1", "bn_gamma", "bn_beta", "w2", "b2")


def write_mvbm(path, video: dict, audio: dict, tau: float, step: int, seed: int, meta: dict) -> None:
    """MVBM v1 as documented in the README: header, both heads' blocks, zero
    Adam moments (first then second), step, seed, JSON metadata."""
    d_in_v, d_hid = video["w1"].shape
    d_in_a = audio["w1"].shape[0]
    d_out = video["w2"].shape[1]
    parts = [struct.pack("<4sIfIIII", b"MVBM", 1, tau, d_in_v, d_in_a, d_hid, d_out)]
    for head in (video, audio):
        parts += [np.ascontiguousarray(head[name], dtype="<f4").tobytes() for name in HEAD_BLOCKS]
    for _moment in ("m", "v"):
        for head in (video, audio):
            parts += [np.zeros(head[name].shape, "<f4").tobytes() for name in ADAM_BLOCKS]
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts += [struct.pack("<QQ", step, seed), struct.pack("<I", len(blob)), blob]
    Path(path).write_bytes(b"".join(parts))


def write_pnm(path, img: np.ndarray) -> None:
    """Binary PGM (H, W) or PPM (H, W, 3), maxval 255."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    magic = b"P5" if img.ndim == 2 else b"P6"
    header = magic + f"\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())


# --- train -------------------------------------------------------------------
def gen_train(seed: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    z = rng.standard_normal((TRAIN_PAIRS, TRAIN_LATENT))
    video = z @ rng.standard_normal((TRAIN_LATENT, DIM)) + TRAIN_NOISE * rng.standard_normal((TRAIN_PAIRS, DIM))
    audio = z @ rng.standard_normal((TRAIN_LATENT, DIM)) + TRAIN_NOISE * rng.standard_normal((TRAIN_PAIRS, DIM))
    ids = [f"pair-{i:05d}" for i in range(TRAIN_PAIRS)]
    # the audio file lists the pairs in another order, so pairing is real work
    perm = rng.permutation(TRAIN_PAIRS)
    write_mvbe(out / "video.mvbe", ids, video.astype(np.float32))
    write_mvbe(out / "audio.mvbe", [ids[i] for i in perm], audio[perm].astype(np.float32))
    return {
        "pairs": TRAIN_PAIRS,
        "n_val": TRAIN_N_VAL,
        "batch": TRAIN_BATCH,
        "epochs": TRAIN_EPOCHS,
        "dim": DIM,
        "hid": HID,
        "out": OUT,
        "train_seed": seed,
    }


# --- search ------------------------------------------------------------------
def _orthonormal_columns(rng, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def known_head(q: np.ndarray, rot: np.ndarray) -> dict:
    """Eval-mode head that maps x = z @ q.T + noise to rot-rotated z.

    w1 = [q, -q] splits the latent into its positive and negative parts,
    ReLU keeps each, and w2 = [rot; -rot] recombines them; batch norm runs
    on identity statistics.
    """
    zeros_h = np.zeros(HID, np.float32)
    ones_h = np.ones(HID, np.float32)
    return {
        "w1": np.hstack([q, -q]).astype(np.float32),
        "b1": zeros_h,
        "bn_gamma": ones_h,
        "bn_beta": zeros_h,
        "bn_running_mean": zeros_h,
        "bn_running_var": ones_h,
        "w2": np.vstack([rot, -rot]).astype(np.float32),
        "b2": np.zeros(OUT, np.float32),
    }


def gen_search(seed: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    q_video = _orthonormal_columns(rng, DIM, OUT)
    q_audio = _orthonormal_columns(rng, DIM, OUT)
    rot = _orthonormal_columns(rng, OUT, OUT)
    head_meta = {"bn_eps": 1e-5, "bn_momentum": 0.1, "dropout_p": 0.5}
    write_mvbm(
        out / "model.mvbm",
        known_head(q_video, rot),
        known_head(q_audio, rot),
        tau=TEMPERATURE,
        step=0,
        seed=seed,
        meta={"audio_head": head_meta, "config": {}, "video_head": head_meta},
    )

    def features(z: np.ndarray, q: np.ndarray) -> np.ndarray:
        # latent noise in the head's subspace plus off-subspace clutter
        x = (z + SEARCH_NOISE * rng.standard_normal(z.shape)) @ q.T
        return (x + 0.5 * rng.standard_normal(x.shape)).astype(np.float32)

    z_lib = rng.standard_normal((LIBRARY_TRACKS, OUT))
    track_ids = [f"trk-{i:05d}" for i in range(LIBRARY_TRACKS)]
    write_mvbe(out / "library_audio.mvbe", track_ids, features(z_lib, q_audio))

    picks = rng.choice(LIBRARY_TRACKS, size=CLI_QUERIES + SINGLE_QUERIES, replace=False)
    cli_rows, single_rows = picks[:CLI_QUERIES], picks[CLI_QUERIES:]
    write_mvbe(out / "cli_queries.mvbe", [track_ids[i] for i in cli_rows], features(z_lib[cli_rows], q_video))
    write_mvbe(
        out / "single_queries.mvbe", [track_ids[i] for i in single_rows], features(z_lib[single_rows], q_video)
    )

    z_val = rng.standard_normal((EVAL_PAIRS, OUT))
    val_ids = [f"val-{i:04d}" for i in range(EVAL_PAIRS)]
    write_mvbe(out / "eval_video.mvbe", val_ids, features(z_val, q_video))
    write_mvbe(out / "eval_audio.mvbe", val_ids, features(z_val, q_audio))
    return {
        "library": LIBRARY_TRACKS,
        "cli_queries": CLI_QUERIES,
        "single_queries": SINGLE_QUERIES,
        "eval_pairs": EVAL_PAIRS,
        "noise": SEARCH_NOISE,
    }


# --- crop --------------------------------------------------------------------
def smooth_content(rng, height: int, width: int, channels: int) -> np.ndarray:
    """Band-limited content quantized to 16 levels, luma well above black.

    Its Otsu binarization next to a black border is one flat region, so only
    the border boundaries produce full-length edges. RGB content is one
    tinted wave, so its luma keeps 16 levels too: with three independent
    waves the luma histogram spreads enough that the detector's histogram
    gate passes some letterboxed frames as borderless (see CHANGES.md).
    """
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    fx, fy = rng.uniform(0.004, 0.03, 2)
    px, py = rng.uniform(0.0, 2 * np.pi, 2)
    wave = np.sin(xx * fx + px) + np.cos(yy * fy + py)
    levels = 5 * np.floor((wave + 2.0) / 4.0 * 16).clip(0, 15)
    planes = [int(rng.integers(90, 121)) + levels for _ in range(channels)]
    img = np.stack(planes, axis=-1) if channels == 3 else planes[0]
    return img.astype(np.uint8)


def layout_rect(rng, layout: str, height: int, width: int) -> tuple[int, int, int, int]:
    """(left, top, right, bottom) of the content, exclusive right/bottom.

    Bars are symmetric up to 2 px, as the detector's centre-fold filter
    expects of letterboxing.
    """
    left, top, right, bottom = 0, 0, width, height
    if layout in ("letterbox", "windowbox"):
        bar = int(rng.integers(height // 12, height // 6 + 1))
        top, bottom = bar, height - bar - int(rng.integers(-2, 3))
    if layout in ("pillarbox", "windowbox"):
        bar = int(rng.integers(width // 12, width // 6 + 1))
        left, right = bar, width - bar - int(rng.integers(-2, 3))
    if layout == "gap":
        top, bottom = GAP_BAR, height - GAP_BAR
    return left, top, right, bottom


def make_frame(rng, layout: str, content: str, channels: int, rect, height: int, width: int) -> np.ndarray:
    left, top, right, bottom = rect
    shape = (height, width, channels) if channels == 3 else (height, width)
    # near-black bars; the gap clip's are pure black, so its frames pass the
    # histogram gate and reach the Otsu stage that loses them
    if layout == "gap":
        img = np.zeros(shape, np.uint8)
    else:
        img = rng.integers(0, 4, shape, dtype=np.uint8)
    ch, cw = bottom - top, right - left
    if content == "smooth":
        inner = smooth_content(rng, ch, cw, channels)
    else:  # uniform noise, the same in every channel so luma keeps its spread
        low, high = (0, 255) if content == "noise" else (GAP_LOW, GAP_HIGH)
        gray = rng.integers(low, high + 1, (ch, cw), dtype=np.uint8)
        inner = np.repeat(gray[..., None], 3, axis=-1) if channels == 3 else gray
    img[top:bottom, left:right] = inner
    return img


def gen_crop(seed: int, out: Path, height: int = HEIGHT, width: int = WIDTH) -> dict:
    clips = []
    for k, (name, fmt, layout, content) in enumerate(CLIPS):
        rng = np.random.default_rng([GAP_SEED] if layout == "gap" else [seed, 3, k])
        rect = layout_rect(rng, layout, height, width)
        channels = 3 if fmt == "ppm" else 1
        clip_dir = out / name
        clip_dir.mkdir(parents=True, exist_ok=True)
        files = []
        for i in range(FRAMES_PER_CLIP):
            path = clip_dir / f"frame{i:02d}.{fmt}"
            write_pnm(path, make_frame(rng, layout, content, channels, rect, height, width))
            files.append(str(path))
        clips.append({"name": name, "layout": layout, "content": content, "rect": list(rect), "files": files})
    return {"clips": clips, "gap_clip": GAP_CLIP, "height": height, "width": width}


GENERATORS = {"train": gen_train, "search": gen_search, "crop": gen_crop}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = GENERATORS[args.workload](args.seed, out)
    (out / "truth.json").write_text(json.dumps(truth, indent=1))


if __name__ == "__main__":
    main()
