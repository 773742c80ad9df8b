"""Readers and brute-force references that share no code with avbinder.

Scores are float64 GEMMs over rows normalized here, rankings are full sorts
by (-score, id), and crop checks compare against the rectangle the frame
generator drew. Two scores closer than ``TIE_TOL`` count as tied: the
program's per-element dot products and a BLAS GEMM agree to about 1e-15,
and `avbinder retrieve` indexes float32 copies of the projections (relative
rounding 6e-8), which moves a cosine by about 1e-7 -- both well inside it.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from gen import ADAM_BLOCKS, HEAD_BLOCKS

TIE_TOL = 1e-6
SCORE_TOL = 1e-6  # printed scores carry six decimals


# --- readers -----------------------------------------------------------------
def read_mvbe(path) -> tuple[list[str], np.ndarray]:
    blob = Path(path).read_bytes()
    magic, version, dim, count = struct.unpack_from("<4sIIQ", blob, 0)
    if magic != b"MVBE" or version != 1:
        raise ValueError(f"{path}: not an MVBE v1 file")
    offset, ids = 20, []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, offset)
        ids.append(blob[offset + 2 : offset + 2 + n].decode("utf-8"))
        offset += 2 + n
    if len(blob) - offset != count * dim * 4:
        raise ValueError(f"{path}: payload size mismatch")
    data = np.frombuffer(blob, "<f4", count * dim, offset).reshape(count, dim)
    return ids, data


def read_mvbm(path) -> dict:
    """Parse a checkpoint: header, heads, Adam moments, step, seed, metadata."""
    blob = Path(path).read_bytes()
    magic, version, tau, d_in_v, d_in_a, d_hid, d_out = struct.unpack_from("<4sIfIIII", blob, 0)
    if magic != b"MVBM" or version != 1:
        raise ValueError(f"{path}: not an MVBM v1 file")
    offset = 28

    def take(shape):
        nonlocal offset
        n = int(np.prod(shape))
        arr = np.frombuffer(blob, "<f4", n, offset).reshape(shape)
        offset += 4 * n
        return arr

    def shapes(d_in):
        return {
            "w1": (d_in, d_hid), "b1": (d_hid,), "bn_gamma": (d_hid,), "bn_beta": (d_hid,),
            "bn_running_mean": (d_hid,), "bn_running_var": (d_hid,), "w2": (d_hid, d_out), "b2": (d_out,),
        }

    heads = [{name: take(shapes(d)[name]) for name in HEAD_BLOCKS} for d in (d_in_v, d_in_a)]
    for _moment in ("m", "v"):
        for d in (d_in_v, d_in_a):
            for name in ADAM_BLOCKS:
                take(shapes(d)[name])
    step, seed = struct.unpack_from("<QQ", blob, offset)
    (meta_len,) = struct.unpack_from("<I", blob, offset + 16)
    meta = json.loads(blob[offset + 20 : offset + 20 + meta_len].decode("utf-8"))
    if offset + 20 + meta_len != len(blob):
        raise ValueError(f"{path}: trailing bytes")
    return {
        "tau": tau, "dims": (d_in_v, d_in_a, d_hid, d_out), "video": heads[0], "audio": heads[1],
        "step": step, "seed": seed, "meta": meta,
    }


def read_pnm(path) -> tuple[int, int, int, bytes]:
    """(channels, width, height, raster bytes) of a binary PGM/PPM file."""
    blob = Path(path).read_bytes()
    tokens, offset = [], 2
    while len(tokens) < 3:
        while blob[offset : offset + 1].isspace():
            offset += 1
        if blob[offset : offset + 1] == b"#":
            offset = blob.index(b"\n", offset)
            continue
        end = offset
        while not blob[end : end + 1].isspace():
            end += 1
        tokens.append(int(blob[offset:end]))
        offset = end
    channels = {b"P5": 1, b"P6": 3}[blob[:2]]
    width, height, _maxval = tokens
    return channels, width, height, blob[offset + 1 :]


# --- retrieval ---------------------------------------------------------------
def eval_forward(head: dict, x: np.ndarray, eps: float) -> np.ndarray:
    """Eval-mode projection in float64: linear, running-stat batch norm,
    ReLU, linear (dropout is the identity at evaluation)."""
    f = {k: np.asarray(v, np.float64) for k, v in head.items()}
    pre = np.asarray(x, np.float64) @ f["w1"] + f["b1"]
    z = f["bn_gamma"] * (pre - f["bn_running_mean"]) / np.sqrt(f["bn_running_var"] + eps) + f["bn_beta"]
    return np.maximum(z, 0.0) @ f["w2"] + f["b2"]


def unit_rows(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, np.float64)
    return y / np.sqrt((y * y).sum(axis=1, keepdims=True))


def cosine_scores(yq: np.ndarray, yc: np.ndarray) -> np.ndarray:
    return np.clip(unit_rows(yq) @ unit_rows(yc).T, -1.0, 1.0)


def id_ranks(ids: list[str]) -> np.ndarray:
    """Position of each id in string order: a sort key equal to the id's."""
    ranks = np.empty(len(ids), np.int64)
    ranks[np.argsort(np.array(ids), kind="stable")] = np.arange(len(ids))
    return ranks


def topk_full_sort(id_rank: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best candidates: full sort by (-score, id)."""
    return np.lexsort((id_rank, -scores))[:k]


def recall_bounds(scores: np.ndarray, ids: list[str], ks: list[int]) -> dict[int, tuple[float, float]]:
    """Recall@K of a square score matrix whose diagonal holds the true
    pairs, as (low, high): a near-tie with the true partner may fall either
    way, every other comparison is decided."""
    own = np.diag(scores)[:, None]
    sure = (scores > own + TIE_TOL).sum(axis=1)
    near = ((np.abs(scores - own) <= TIE_TOL) & ~np.eye(len(ids), dtype=bool)).sum(axis=1)
    best_rank, worst_rank = 1 + sure, 1 + sure + near
    return {k: (float((worst_rank <= k).mean()), float((best_rank <= k).mean())) for k in ks}


def check_ranking(got: list[tuple[str, float]], want_idx: np.ndarray, ids: list[str], scores: np.ndarray,
                  score_tol: float) -> str | None:
    """None when ``got`` is the brute-force top list up to near-ties, else why not."""
    pos = {item_id: i for i, item_id in enumerate(ids)}
    if len(got) != len(want_idx):
        return f"{len(got)} items, want {len(want_idx)}"
    if len({g for g, _ in got}) != len(got):
        return "duplicate ids in a result list"
    for rank, ((gid, gscore), widx) in enumerate(zip(got, want_idx), start=1):
        if gid not in pos:
            return f"unknown id {gid!r}"
        true = scores[pos[gid]]
        if abs(gscore - true) > score_tol:
            return f"rank {rank}: score {gscore} for {gid}, independent cosine {true}"
        if gid != ids[widx] and abs(true - scores[widx]) > TIE_TOL:
            return f"rank {rank}: {gid} ({true}) where the full sort has {ids[widx]} ({scores[widx]})"
    return None


def parse_retrieve(text: str) -> dict[str, list[tuple[str, float]]]:
    """`avbinder retrieve` TSV rows: query, rank, candidate, score."""
    out: dict[str, list[tuple[str, float]]] = {}
    for line in text.splitlines():
        query, rank, cand, score = line.split("\t")
        items = out.setdefault(query, [])
        if int(rank) != len(items) + 1:
            raise ValueError(f"rank {rank} out of order for {query}")
        items.append((cand, float(score)))
    return out


# --- crop --------------------------------------------------------------------
def parse_crop_rect(text: str) -> tuple[int, int, int, int]:
    fields = dict(line.split("\t") for line in text.splitlines() if line)
    return int(fields["left"]), int(fields["top"]), int(fields["right"]), int(fields["bottom"])


def expected_crop(path, rect) -> tuple[int, int, int, bytes]:
    """The input frame cut to ``rect`` by this module's own slicing."""
    channels, width, height, raster = read_pnm(path)
    shape = (height, width, channels) if channels == 3 else (height, width)
    img = np.frombuffer(raster, np.uint8).reshape(shape)
    left, top, right, bottom = rect
    cut = np.ascontiguousarray(img[top:bottom, left:right])
    return channels, right - left, bottom - top, cut.tobytes()
