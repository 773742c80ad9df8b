"""Black-border detection and removal for video frames.

Frames flow through seven stages: (1) frames whose intensity-histogram
spread is tiny are classified borderless and skipped; otherwise (2) the
frame is binarized at the Otsu threshold of the same histogram (each frame
is histogrammed once, for both stages), (3) Sobel gradients of the binary
image are taken, (4) rows/columns whose gradient response is strong across
most of their length become border-line candidates annotated with strip
statistics from the original frame, (5) candidates whose outer strip is not
near-black, has no near-black mirror across the frame center, or does not
contrast with the interior are dropped, (6) surviving candidate positions
are unified across frames by non-maximum suppression, and (7) the winning
lines form the crop rectangle (falling back to the full frame when the
result would keep less than ``MIN_AREA_FRACTION`` of the area).

A candidate's ``position`` is the crop line itself: for the top/left side
the first content row/column, for the bottom/right side the first border
row/column (i.e. the exclusive bound of the content).

Images are 2-D uint8 arrays; RGB frames are reduced to Rec.601 luma first.
Every stage takes its thresholds from one ``BorderParams``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import hist256, sobel_gradients

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
SIDES = ("top", "bottom", "left", "right")
SEARCH_FRACTION = 0.35  # candidates live in the outer such band of each axis
MIN_AREA_FRACTION = 0.25  # sanity floor for the cropped area


@dataclass(frozen=True)
class BorderParams:
    hist_std_threshold: float = 0.01  # below this, a frame counts as borderless
    edge_magnitude: int = 128  # |gradient| at or above this marks an edge pixel
    edge_fraction: float = 0.6  # a line needs this fraction of edge pixels
    black_threshold: float = 16.0  # outer strips at or below this mean are "black"
    contrast_margin: float = 24.0  # required inner-minus-outer mean difference
    nms_radius: int = 4  # clustering / fold-pairing radius in pixels


@dataclass(frozen=True)
class EdgeCandidate:
    orientation: str  # HORIZONTAL (a row boundary) or VERTICAL (a column one)
    position: int  # crop line, see module docstring
    edge_fraction: float
    outer_mean: float
    inner_mean: float


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


@dataclass(frozen=True)
class BorderLines:
    top: int | None = None
    bottom: int | None = None
    left: int | None = None
    right: int | None = None


def rgb_to_gray(img: np.ndarray) -> np.ndarray:
    """Rec.601 luma ``floor(0.299*R + 0.587*G + 0.114*B + 0.5)`` as uint8.

    The sum is formed in float64, where the weights are not exact, so an
    exact .5 tie may land just below it and round down: (17, 91, 0) has luma
    58.5 and gives 58. Gray frames pass through; any dtype but uint8 is
    rejected rather than cast (a [0, 1] float frame would become all zeros).
    """
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError(f"expected a uint8 image, got dtype {img.dtype}")
    if img.ndim == 2:
        return img
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W) or (H, W, 3) image, got {img.shape}")
    luma = img[..., 0] * 0.299 + img[..., 1] * 0.587 + img[..., 2] * 0.114
    return np.floor(luma + 0.5).astype(np.uint8)


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
    """pixel > threshold -> 255 else 0."""
    img = _check_gray(img)
    return np.where(img > threshold, np.uint8(255), np.uint8(0))


def sobel_edges(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed Sobel gradient maps (Gx, Gy), replicate-padded, same shape."""
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
    fractions: np.ndarray, values: np.ndarray, orientation: str, frac_threshold: float
) -> list[EdgeCandidate]:
    """Candidates along one axis. ``fractions[i]`` is the edge fraction of
    line i, ``values`` the original image collapsed so that axis 0 matches.

    The far side is scanned as the near side of the reversed axis. Strip
    means are sums of 8-bit integers, exact in float64 in any order, so the
    reversal changes no bit; each side's runs come out in ascending position.
    """
    extent = fractions.shape[0]
    window = int(np.floor(SEARCH_FRACTION * extent))
    out: list[EdgeCandidate] = []
    for step in (1, -1):
        fracs, vals = fractions[::step], values[::step]
        side: list[EdgeCandidate] = []
        for first, last in _runs(fracs[: window + 1] >= frac_threshold):
            line = last  # content-side end of the response run
            if line < 1:
                continue
            outer = vals[:line]
            inner = vals[line : min(2 * line, extent)]
            side.append(
                EdgeCandidate(
                    orientation=orientation,
                    position=line if step == 1 else extent - line,
                    edge_fraction=float(fracs[first : last + 1].max()),
                    outer_mean=float(outer.mean()),
                    inner_mean=float(inner.mean()) if inner.size else float(outer.mean()),
                )
            )
        out += side[::step]
    return out


def extract_edge_candidates(
    gx: np.ndarray,
    gy: np.ndarray,
    img: np.ndarray,
    params: BorderParams = BorderParams(),
) -> list[EdgeCandidate]:
    """Rows/columns of strong gradient response, with strip statistics.

    A row qualifies when at least ``params.edge_fraction`` of its pixels
    have |Gy| >= ``params.edge_magnitude`` (columns use |Gx|); consecutive
    qualifying lines collapse into one candidate at the content-side
    boundary. Only the outer ``SEARCH_FRACTION`` of each dimension is
    searched. Outer and inner strip means come from the original image, on
    the band between the line and the nearer frame edge and on a
    same-thickness band just inside.
    The means read the 8-bit image directly: its integer partial sums are
    exact in float64, so no summation order can change them.
    """
    img = _check_gray(img)
    if gx.shape != img.shape or gy.shape != img.shape:
        raise ValueError("gradient maps must match the image shape")
    row_frac = (np.abs(gy) >= params.edge_magnitude).mean(axis=1)
    col_frac = (np.abs(gx) >= params.edge_magnitude).mean(axis=0)
    cands = _axis_candidates(row_frac, img, HORIZONTAL, params.edge_fraction)
    cands += _axis_candidates(col_frac, img.T, VERTICAL, params.edge_fraction)
    return cands


def _side_of(cand: EdgeCandidate, height: int, width: int) -> str:
    if cand.orientation == HORIZONTAL:
        return "top" if 2 * cand.position < height else "bottom"
    return "left" if 2 * cand.position < width else "right"


def _strip_mean(img: np.ndarray, side: str, line: int) -> float:
    height, width = img.shape
    if side == "top":
        strip = img[:line, :]
    elif side == "bottom":
        strip = img[line:, :]
    elif side == "left":
        strip = img[:, :line]
    else:
        strip = img[:, line:]
    return float(strip.mean()) if strip.size else 255.0


_OPPOSITE = {"top": "bottom", "bottom": "top", "left": "right", "right": "left"}


def fold_filter(
    cands: list[EdgeCandidate],
    img: np.ndarray,
    params: BorderParams = BorderParams(),
) -> list[EdgeCandidate]:
    """Keep a candidate only if its outer strip is near-black, the strip
    mirrored across the frame center is near-black too (or an opposite-side
    candidate sits within ``params.nms_radius``), and the interior is
    clearly brighter than the border (so solid-color frames produce
    nothing)."""
    img = _check_gray(img)
    height, width = img.shape

    kept: list[EdgeCandidate] = []
    for cand in cands:
        if cand.outer_mean > params.black_threshold:
            continue
        if cand.inner_mean - cand.outer_mean < params.contrast_margin:
            continue
        side = _side_of(cand, height, width)
        extent = height if cand.orientation == HORIZONTAL else width
        mirror_line = extent - cand.position
        mirror_mean = _strip_mean(img, _OPPOSITE[side], mirror_line)
        paired = any(
            other.orientation == cand.orientation
            and _side_of(other, height, width) == _OPPOSITE[side]
            and abs(other.position - mirror_line) <= params.nms_radius
            for other in cands
        )
        if mirror_mean <= params.black_threshold or paired:
            kept.append(cand)
    return kept


def _edge_distance(side: str, position: int, height: int, width: int) -> int:
    if side == "top":
        return position
    if side == "bottom":
        return height - position
    if side == "left":
        return position
    return width - position


def _support(entries: list[tuple[int, EdgeCandidate]]) -> tuple[int, float]:
    """(distinct supporting frames, mean edge fraction) of some candidates."""
    return len({f for f, _ in entries}), float(np.mean([c.edge_fraction for _, c in entries]))


def nms_unify(
    per_frame: list[list[EdgeCandidate]],
    frame_shape: tuple[int, int],
    params: BorderParams = BorderParams(),
) -> BorderLines:
    """Suppress all but the best-supported candidate cluster per side.

    Positions within ``params.nms_radius`` of each other (single linkage)
    form one cluster. A cluster's representative is its position with the
    most supporting frames, then the highest mean edge fraction, then the
    nearest to the frame edge; clusters are ranked the same way (with the
    representative's distance), and the winner's representative becomes
    the side's unified line.
    """
    height, width = frame_shape
    unified: dict[str, int | None] = {side: None for side in SIDES}
    by_side: dict[str, list[tuple[int, EdgeCandidate]]] = {side: [] for side in SIDES}
    for frame_idx, cands in enumerate(per_frame):
        for cand in cands:
            by_side[_side_of(cand, height, width)].append((frame_idx, cand))

    for side, entries in by_side.items():
        if not entries:
            continue
        entries.sort(key=lambda e: e[1].position)
        clusters: list[list[tuple[int, EdgeCandidate]]] = [[entries[0]]]
        for entry in entries[1:]:
            if entry[1].position - clusters[-1][-1][1].position <= params.nms_radius:
                clusters[-1].append(entry)
            else:
                clusters.append([entry])

        best_score = None
        for cluster in clusters:
            at: dict[int, list[tuple[int, EdgeCandidate]]] = {}
            for item in cluster:
                at.setdefault(item[1].position, []).append(item)
            rep = max(at, key=lambda p: (*_support(at[p]), -_edge_distance(side, p, height, width)))
            score = (*_support(cluster), -_edge_distance(side, rep, height, width))
            if best_score is None or score > best_score:  # ties keep the first cluster
                best_score, unified[side] = score, rep
    return BorderLines(**unified)


def detect_crop_rect(
    frames: list[np.ndarray], params: BorderParams = BorderParams()
) -> CropRect:
    """Run the full pipeline over a clip's frames and return the crop.

    Sides with no surviving unified line stay at the frame boundary; a crop
    that would retain less than ``MIN_AREA_FRACTION`` of the frame (or is
    inconsistent) falls back to the full frame.
    """
    if not frames:
        raise ValueError("empty frame list")
    grays = [rgb_to_gray(f) for f in frames]
    shape = grays[0].shape
    if any(g.shape != shape for g in grays):
        raise ValueError("frames must share dimensions")
    height, width = shape

    per_frame: list[list[EdgeCandidate]] = []
    for gray in grays:
        if height < 3 or width < 3:
            per_frame.append([])
            continue
        counts = hist256(gray)  # shared by the gate and Otsu
        if histogram_std(counts) < params.hist_std_threshold:
            per_frame.append([])  # borderless frame, contributes nothing
            continue
        binary = binarize(gray, otsu_threshold(counts))
        gx, gy = sobel_edges(binary)
        cands = extract_edge_candidates(gx, gy, gray, params)
        per_frame.append(fold_filter(cands, gray, params))

    lines = nms_unify(per_frame, shape, params)
    left = lines.left if lines.left is not None else 0
    top = lines.top if lines.top is not None else 0
    right = lines.right if lines.right is not None else width
    bottom = lines.bottom if lines.bottom is not None else height

    full = CropRect(0, 0, width, height)
    if not (left < right and top < bottom):
        return full
    if (right - left) * (bottom - top) < MIN_AREA_FRACTION * width * height:
        return full
    return CropRect(left=left, top=top, right=right, bottom=bottom)


def apply_crop(img: np.ndarray, rect: CropRect) -> np.ndarray:
    """Copy the rectangle out of a gray or RGB image."""
    img = np.asarray(img)
    if img.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D image, got shape {img.shape}")
    height, width = img.shape[:2]
    if rect.right > width or rect.bottom > height:
        raise ValueError(f"crop rect {rect} exceeds image bounds {width}x{height}")
    return img[rect.top : rect.bottom, rect.left : rect.right].copy()
