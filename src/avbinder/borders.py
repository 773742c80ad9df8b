"""Black-border detection and removal for video frames.

Frames flow through seven stages: (1) frames whose intensity-histogram
spread is tiny are classified borderless and skipped; otherwise (2) the
frame is binarized at the Otsu threshold of the same histogram (each frame
is histogrammed once, for both stages) into a bool mask, (3) the mask's
int8 Sobel gradients are taken, (4) rows/columns whose gradient response is
nonzero across most of their length become border-line candidates annotated
with strip statistics from the original frame, (5) candidates whose outer
strip is not near-black, has no near-black mirror across the frame center,
or does not contrast with the interior are dropped, (6) surviving
candidate depths are unified across frames by non-maximum suppression, and
(7) the winning depths form the crop rectangle (falling back to the full
frame when the result would keep less than ``MIN_AREA_FRACTION`` of the
area).

A candidate carries its ``side`` (one of ``SIDES``) and its ``depth``, the
border's thickness in rows or columns from that side's frame edge, both
fixed by the scan that finds it. It also carries three strip means of the
original frame, each over ``depth`` rows or columns: the outer strip (the
border itself), the inner strip just inside it, and the mirror strip at the
opposite edge.

Images are 2-D uint8 arrays; RGB frames are reduced to Rec.601 luma first.
Every stage takes its thresholds from one ``BorderParams``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .kernels import hist256, sobel_gradients

SIDES = ("top", "bottom", "left", "right")
SEARCH_FRACTION = 0.35  # candidates live in the outer such band of each axis
MIN_AREA_FRACTION = 0.25  # sanity floor for the cropped area


@dataclass(frozen=True)
class BorderParams:
    hist_std_threshold: float = 0.01  # below this, a frame counts as borderless
    edge_fraction: float = 0.6  # a line needs this fraction of edge pixels
    black_threshold: float = 16.0  # outer strips at or below this mean are "black"
    contrast_margin: float = 24.0  # required inner-minus-outer mean difference
    nms_radius: int = 4  # clustering / fold-pairing radius in pixels


@dataclass(frozen=True)
class EdgeCandidate:
    side: str  # one of SIDES
    depth: int  # border thickness in rows/columns, counted from the side's edge
    edge_fraction: float
    outer_mean: float  # the border strip
    inner_mean: float  # the same-thickness strip just inside it
    mirror_mean: float  # the same-thickness strip at the opposite edge


@dataclass(frozen=True)
class CropRect:
    left: int
    top: int
    right: int  # exclusive
    bottom: int  # exclusive

    def __post_init__(self) -> None:
        if not (0 <= self.left < self.right and 0 <= self.top < self.bottom):
            raise ValueError(f"degenerate crop rect {self}")

    @property
    def width(self) -> int:
        return self.right - self.left

    @property
    def height(self) -> int:
        return self.bottom - self.top


_LUMA_WEIGHTS = np.array([299, 587, 114], np.float32)  # Rec.601, times 1000
_LUMA_BLOCK_ROWS = 64  # rows per pass of the float32 luma sum


def _check_frame(img: np.ndarray) -> np.ndarray:
    """A uint8 gray (H, W) or RGB (H, W, 3) frame, else ValueError."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError(f"expected a uint8 image, got dtype {img.dtype}")
    if img.ndim != 2 and (img.ndim != 3 or img.shape[2] != 3):
        raise ValueError(f"expected (H, W) or (H, W, 3) image, got {img.shape}")
    return img


def rgb_to_gray(img: np.ndarray) -> np.ndarray:
    """Rec.601 luma ``floor(0.299*R + 0.587*G + 0.114*B + 0.5)`` as uint8,
    the float64 expression bit for bit.

    That expression's weights are not exact in float64, so an exact .5 tie
    may land just below it and round down: (17, 91, 0) has luma 58.5 and
    gives 58. Away from ties it equals ``q = floor(s / 1000)`` with the
    integer ``s = 299*R + 587*G + 114*B + 500``. Every product and partial
    sum of ``s`` is an integer below 2^24, so ``s`` is exact in float32 in
    any summation order (it is a BLAS product over the channels), and ``floor(s * 0.001)`` in float32 is ``q``: the
    float32 0.001 lies above 1/1000, and a non-tie's fraction is at least
    0.001. The ties are where ``q * 1000 == s``; only those pixels are
    recomputed with the float64 expression. The sum runs over blocks of
    rows in reused float32 buffers.

    Gray frames pass through; any dtype but uint8 is rejected rather than
    cast (a [0, 1] float frame would become all zeros).
    """
    img = _check_frame(img)
    if img.ndim == 2:
        return img
    height, width = img.shape[:2]
    gray = np.empty((height, width), np.uint8)
    rows = min(_LUMA_BLOCK_ROWS, height)
    channels = np.empty((rows, width, 3), np.float32)
    total = np.empty((rows, width), np.float32)
    scaled = np.empty((rows, width), np.float32)
    tie = np.empty((rows, width), np.bool_)
    for start in range(0, height, rows):
        block = img[start : start + rows]
        out = gray[start : start + rows]
        n = block.shape[0]
        s, q, t = total[:n], scaled[:n], tie[:n]
        np.copyto(channels[:n], block)
        np.matmul(channels[:n], _LUMA_WEIGHTS, out=s)
        s += np.float32(500)
        np.multiply(s, np.float32(0.001), out=q)
        np.floor(q, out=q)
        np.copyto(out, q, casting="unsafe")
        q *= np.float32(1000)
        if np.equal(q, s, out=t).any():
            px = block[t]
            luma = px[:, 0] * 0.299 + px[:, 1] * 0.587 + px[:, 2] * 0.114
            out[t] = np.floor(luma + 0.5)
    return gray


def _check_gray(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"expected a non-empty (H, W) image, got shape {img.shape}")
    return img


def _check_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts)
    if counts.shape != (256,) or counts.sum() == 0:
        raise ValueError(f"expected the 256 counts of a non-empty image, got shape {counts.shape}")
    return counts


def histogram_std(counts: np.ndarray) -> float:
    """Population standard deviation of the 256 intensity frequencies, from
    the ``hist256`` counts of the image."""
    counts = _check_counts(counts)
    freq = counts / counts.sum()
    return float(np.sqrt(((freq - freq.mean()) ** 2).mean()))


def otsu_threshold(counts: np.ndarray) -> int:
    """Threshold maximizing between-class variance w0*w1*(mu0-mu1)^2 with
    class 0 = pixels <= t; ties resolved to the smallest t. Takes the
    ``hist256`` counts of the image.

    The maximization runs in exact integer arithmetic (the variance is the
    rational (s0*n1 - s1*n0)^2 / (N^2*n0*n1) with integer cumulative pixel
    counts/sums), so no float rounding can flip the argmax.
    """
    counts = _check_counts(counts).tolist()
    weighted = [c * i for i, c in enumerate(counts)]
    total = sum(counts)
    total_sum = sum(weighted)

    best_t = 0
    best_num = 0  # best variance as num/den, compared by cross-multiplication
    best_den = 1
    n0 = 0
    s0 = 0
    for t in range(256):
        n0 += counts[t]
        s0 += weighted[t]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        num = (s0 * n1 - (total_sum - s0) * n0) ** 2
        den = n0 * n1
        if num * best_den > best_num * den:
            best_num = num
            best_den = den
            best_t = t
    return best_t


def binarize(img: np.ndarray, threshold: int) -> np.ndarray:
    """The bool mask ``pixel > threshold``."""
    return _check_gray(img) > threshold


def sobel_edges(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed Sobel gradient maps (Gx, Gy), replicate-padded, same shape:
    int8 in [-4, 4] for a bool mask, int16 for any other image (``sobel_gradients``)."""
    img = _check_gray(img)
    if img.shape[0] < 3 or img.shape[1] < 3:
        raise ValueError(f"image too small for 3x3 Sobel: {img.shape}")
    return sobel_gradients(img)


def _runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as (first, last) index pairs."""
    idx = np.flatnonzero(flags)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [(int(idx[a]), int(idx[b])) for a, b in zip(starts, ends)]


def _axis_candidates(
    fractions: np.ndarray, values: np.ndarray, sides: tuple[str, str], frac_threshold: float
) -> list[EdgeCandidate]:
    """Candidates along one axis. ``fractions[i]`` is the edge fraction of
    line i, ``values`` the original image collapsed so that axis 0 matches,
    ``sides`` the names of the axis's near and far side.

    The far side is scanned as the near side of the reversed axis, so a
    run's content-side end is the depth on either side. Depths stay within
    ``SEARCH_FRACTION`` of the extent, so the inner and mirror strips are
    never empty and never overlap the outer one. Strip means are sums of
    8-bit integers, exact in float64 in any order, so the reversal changes
    no bit. The output runs along the axis: near-side candidates by
    ascending depth, then far-side ones by descending depth.
    """
    extent = fractions.shape[0]
    window = int(np.floor(SEARCH_FRACTION * extent))
    out: list[EdgeCandidate] = []
    for side, step in zip(sides, (1, -1)):
        fracs, vals = fractions[::step], values[::step]
        found = [
            EdgeCandidate(
                side=side,
                depth=depth,
                edge_fraction=float(fracs[first : depth + 1].max()),
                outer_mean=float(vals[:depth].mean()),
                inner_mean=float(vals[depth : 2 * depth].mean()),
                mirror_mean=float(vals[extent - depth :].mean()),
            )
            for first, depth in _runs(fracs[: window + 1] >= frac_threshold)
            if depth >= 1
        ]
        out += found[::step]
    return out


def extract_edge_candidates(
    gx: np.ndarray,
    gy: np.ndarray,
    img: np.ndarray,
    params: BorderParams = BorderParams(),
) -> list[EdgeCandidate]:
    """Rows/columns of mostly nonzero gradient response, with strip statistics.

    A row qualifies when at least ``params.edge_fraction`` of its pixels
    are edge pixels, those with a nonzero Gy (columns use Gx); consecutive
    qualifying lines collapse into one candidate at the content-side
    boundary. Only the outer ``SEARCH_FRACTION`` of each dimension is
    searched. The strip means come from the original image (see the module
    docstring). They read the 8-bit image directly: its integer partial
    sums are exact in float64, so no summation order can change them.
    """
    img = _check_gray(img)
    if gx.shape != img.shape or gy.shape != img.shape:
        raise ValueError("gradient maps must match the image shape")
    # an edge count over the line length is the float64 mean of the edge
    # flags, bit for bit; the count's type is the narrowest that holds it
    height, width = img.shape
    row_frac = (gy != 0).sum(axis=1, dtype=np.min_scalar_type(width)) / width
    col_frac = (gx != 0).sum(axis=0, dtype=np.min_scalar_type(height)) / height
    cands = _axis_candidates(row_frac, img, ("top", "bottom"), params.edge_fraction)
    cands += _axis_candidates(col_frac, img.T, ("left", "right"), params.edge_fraction)
    return cands


_OPPOSITE = {"top": "bottom", "bottom": "top", "left": "right", "right": "left"}


def fold_filter(
    cands: list[EdgeCandidate], params: BorderParams = BorderParams()
) -> list[EdgeCandidate]:
    """Keep a candidate only if its outer strip is near-black, its mirror
    strip is near-black too (or an opposite-side candidate's depth is within
    ``params.nms_radius`` of its own), and the interior is clearly brighter
    than the border (so solid-color frames produce nothing)."""
    kept: list[EdgeCandidate] = []
    for cand in cands:
        if cand.outer_mean > params.black_threshold:
            continue
        if cand.inner_mean - cand.outer_mean < params.contrast_margin:
            continue
        paired = any(
            other.side == _OPPOSITE[cand.side] and abs(other.depth - cand.depth) <= params.nms_radius
            for other in cands
        )
        if cand.mirror_mean <= params.black_threshold or paired:
            kept.append(cand)
    return kept


def _support(entries: list[tuple[int, EdgeCandidate]]) -> tuple[int, float]:
    """(distinct supporting frames, mean edge fraction) of some candidates."""
    return len({f for f, _ in entries}), float(np.mean([c.edge_fraction for _, c in entries]))


def nms_unify(
    per_frame: list[list[EdgeCandidate]], params: BorderParams = BorderParams()
) -> dict[str, int]:
    """Suppress all but the best-supported candidate cluster per side and
    return ``{side: depth}`` for the sides that have candidates.

    Depths within ``params.nms_radius`` of each other (single linkage) form
    one cluster. A cluster's representative is its depth with the most
    supporting frames, then the highest mean edge fraction, then the
    smallest depth; clusters are ranked the same way (with the
    representative's depth), and the winner's representative becomes the
    side's unified depth. Representatives of distinct clusters differ, so
    the ranking has no ties.
    """
    by_side: dict[str, list[tuple[int, EdgeCandidate]]] = {}
    for frame_idx, cands in enumerate(per_frame):
        for cand in cands:
            by_side.setdefault(cand.side, []).append((frame_idx, cand))

    unified: dict[str, int] = {}
    for side, entries in by_side.items():
        entries.sort(key=lambda e: e[1].depth)
        clusters: list[list[tuple[int, EdgeCandidate]]] = [[entries[0]]]
        for entry in entries[1:]:
            if entry[1].depth - clusters[-1][-1][1].depth <= params.nms_radius:
                clusters[-1].append(entry)
            else:
                clusters.append([entry])

        ranked = []
        for cluster in clusters:
            at: dict[int, list[tuple[int, EdgeCandidate]]] = {}
            for item in cluster:
                at.setdefault(item[1].depth, []).append(item)
            rep = max(at, key=lambda d: (*_support(at[d]), -d))
            ranked.append(((*_support(cluster), -rep), rep))
        unified[side] = max(ranked)[1]
    return unified


def detect_crop_rect(
    frames: Iterable[np.ndarray], params: BorderParams = BorderParams()
) -> CropRect:
    """Run the full pipeline over a clip's frames and return the crop.

    ``frames`` is any iterable, such as a generator that reads each frame
    from its file. Each frame's dtype and shape are checked as it arrives;
    then it is converted to gray and reduced to its candidate list before
    the next one is taken, so the memory the call holds does not grow with
    the number of frames. Sides with no surviving unified depth stay at the frame boundary;
    a crop that would retain less than ``MIN_AREA_FRACTION`` of the frame
    (or is inconsistent) falls back to the full frame.
    """
    shape = None
    per_frame: list[list[EdgeCandidate]] = []
    for frame in frames:
        frame = _check_frame(frame)
        if shape is None:
            shape = frame.shape[:2]
        elif frame.shape[:2] != shape:
            raise ValueError("frames must share dimensions")
        if min(shape) >= 3:
            per_frame.append(_frame_candidates(frame, params))
    if shape is None:
        raise ValueError("empty frame list")
    height, width = shape

    depth = dict.fromkeys(SIDES, 0) | nms_unify(per_frame, params)
    left, top = depth["left"], depth["top"]
    right, bottom = width - depth["right"], height - depth["bottom"]

    full = CropRect(0, 0, width, height)
    if not (left < right and top < bottom):
        return full
    if (right - left) * (bottom - top) < MIN_AREA_FRACTION * width * height:
        return full
    return CropRect(left=left, top=top, right=right, bottom=bottom)


def _frame_candidates(frame: np.ndarray, params: BorderParams) -> list[EdgeCandidate]:
    """Stages 1-5 on one checked frame: its fold-filtered candidates, or
    none when the histogram gate finds it borderless."""
    gray = rgb_to_gray(frame)
    counts = hist256(gray)  # shared by the gate and Otsu
    if histogram_std(counts) < params.hist_std_threshold:
        return []
    gx, gy = sobel_edges(binarize(gray, otsu_threshold(counts)))
    return fold_filter(extract_edge_candidates(gx, gy, gray, params), params)


def apply_crop(img: np.ndarray, rect: CropRect) -> np.ndarray:
    """The rectangle of a gray or RGB image, as a view of ``img``: no copy
    is made here, so a writer that needs contiguous rows copies only a
    rectangle that narrows the rows."""
    img = np.asarray(img)
    if img.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D image, got shape {img.shape}")
    height, width = img.shape[:2]
    if rect.right > width or rect.bottom > height:
        raise ValueError(f"crop rect {rect} exceeds image bounds {width}x{height}")
    return img[rect.top : rect.bottom, rect.left : rect.right]
