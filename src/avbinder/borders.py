"""Black-border detection and removal for video frames.

Frames flow through seven stages: (1) frames whose intensity-histogram
spread is tiny are classified borderless and skipped; otherwise (2) the
frame is binarized at the Otsu threshold, (3) Sobel gradients of the binary
image are taken, (4) rows/columns whose gradient response is strong across
most of their length become border-line candidates annotated with strip
statistics from the original frame, (5) candidates whose outer strip is not
near-black, has no near-black mirror across the frame center, or does not
contrast with the interior are dropped, (6) surviving candidate positions
are unified across frames by non-maximum suppression, and (7) the winning
lines form the crop rectangle (falling back to the full frame when the
result would keep less than a quarter of the area).

A candidate's ``position`` is the crop line itself: for the top/left side
the first content row/column, for the bottom/right side the first border
row/column (i.e. the exclusive bound of the content).

Images are 2-D uint8 arrays; RGB frames are reduced to Rec.601 luma first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import hist256, sobel_gradients

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
SIDES = ("top", "bottom", "left", "right")


@dataclass(frozen=True)
class BorderParams:
    hist_std_threshold: float = 0.01  # below this, a frame counts as borderless
    edge_magnitude: int = 128  # |gradient| at or above this marks an edge pixel
    edge_fraction: float = 0.6  # a line needs this fraction of edge pixels
    black_threshold: float = 16.0  # outer strips at or below this mean are "black"
    contrast_margin: float = 24.0  # required inner-minus-outer mean difference
    nms_radius: int = 4  # clustering / fold-pairing radius in pixels
    search_fraction: float = 0.35  # candidates live in the outer such band
    min_area_fraction: float = 0.25  # sanity floor for the cropped area


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
    """Rec.601 luma (0.299, 0.587, 0.114), rounded half-up to uint8."""
    img = np.asarray(img)
    if img.ndim == 2:
        return img.astype(np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W) or (H, W, 3) image, got {img.shape}")
    luma = img[..., 0] * 0.299 + img[..., 1] * 0.587 + img[..., 2] * 0.114
    return np.floor(luma + 0.5).astype(np.uint8)


def _check_gray(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"expected a non-empty (H, W) image, got shape {img.shape}")
    return img


def histogram_std(img: np.ndarray) -> float:
    """Population standard deviation of the 256 intensity frequencies."""
    img = _check_gray(img)
    freq = hist256(img) / img.size
    return float(np.sqrt(((freq - freq.mean()) ** 2).mean()))


def otsu_threshold(img: np.ndarray) -> int:
    """Threshold maximizing between-class variance w0*w1*(mu0-mu1)^2 with
    class 0 = pixels <= t; ties resolved to the smallest t.

    The maximization runs in exact integer arithmetic (the variance is the
    rational (s0*n1 - s1*n0)^2 / (N^2*n0*n1) with integer cumulative pixel
    counts/sums), so no float rounding can flip the argmax.
    """
    img = _check_gray(img)
    counts = hist256(img).tolist()
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
    fractions: np.ndarray,
    values: np.ndarray,
    orientation: str,
    frac_threshold: float,
    search_fraction: float,
) -> list[EdgeCandidate]:
    """Candidates along one axis. ``fractions[i]`` is the edge fraction of
    line i, ``values`` the original image collapsed so that axis 0 matches."""
    extent = fractions.shape[0]
    window = int(np.floor(search_fraction * extent))
    qualifies = fractions >= frac_threshold
    out: list[EdgeCandidate] = []

    near = qualifies.copy()
    near[window + 1 :] = False
    for first, last in _runs(near):
        line = last  # content-side end of the response run
        if line < 1:
            continue
        outer = values[:line]
        inner = values[line : min(2 * line, extent)]
        out.append(
            EdgeCandidate(
                orientation=orientation,
                position=line,
                edge_fraction=float(fractions[first : last + 1].max()),
                outer_mean=float(outer.mean()),
                inner_mean=float(inner.mean()) if inner.size else float(outer.mean()),
            )
        )

    far = qualifies.copy()
    far[: extent - 1 - window] = False
    for first, last in _runs(far):
        line = first + 1  # first border row/column past the content
        if line > extent - 1:
            continue
        outer = values[line:]
        inner = values[max(2 * line - extent, 0) : line]
        out.append(
            EdgeCandidate(
                orientation=orientation,
                position=line,
                edge_fraction=float(fractions[first : last + 1].max()),
                outer_mean=float(outer.mean()),
                inner_mean=float(inner.mean()) if inner.size else float(outer.mean()),
            )
        )
    return out


def extract_edge_candidates(
    gx: np.ndarray,
    gy: np.ndarray,
    img: np.ndarray,
    mag_threshold: float = BorderParams.edge_magnitude,
    frac_threshold: float = BorderParams.edge_fraction,
    search_fraction: float = BorderParams.search_fraction,
) -> list[EdgeCandidate]:
    """Rows/columns of strong gradient response, with strip statistics.

    A row qualifies when at least ``frac_threshold`` of its pixels have
    |Gy| >= ``mag_threshold`` (columns use |Gx|); consecutive qualifying
    lines collapse into one candidate at the content-side boundary. Only
    the outer ``search_fraction`` of each dimension is searched. Outer and
    inner strip means come from the original image, on the band between the
    line and the nearer frame edge and on a same-thickness band just inside.
    The means read the 8-bit image directly: its integer partial sums are
    exact in float64, so no summation order can change them.
    """
    img = _check_gray(img)
    if gx.shape != img.shape or gy.shape != img.shape:
        raise ValueError("gradient maps must match the image shape")
    row_frac = (np.abs(gy) >= mag_threshold).mean(axis=1)
    col_frac = (np.abs(gx) >= mag_threshold).mean(axis=0)
    cands = _axis_candidates(row_frac, img, HORIZONTAL, frac_threshold, search_fraction)
    cands += _axis_candidates(col_frac, img.T, VERTICAL, frac_threshold, search_fraction)
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
    black_threshold: float = BorderParams.black_threshold,
    contrast_margin: float = BorderParams.contrast_margin,
    pairing_radius: int = BorderParams.nms_radius,
) -> list[EdgeCandidate]:
    """Keep a candidate only if its outer strip is near-black, the strip
    mirrored across the frame center is near-black too (or an opposite-side
    candidate sits within the pairing radius), and the interior is clearly
    brighter than the border (so solid-color frames produce nothing)."""
    img = _check_gray(img)
    height, width = img.shape

    kept: list[EdgeCandidate] = []
    for cand in cands:
        if cand.outer_mean > black_threshold:
            continue
        if cand.inner_mean - cand.outer_mean < contrast_margin:
            continue
        side = _side_of(cand, height, width)
        extent = height if cand.orientation == HORIZONTAL else width
        mirror_line = extent - cand.position
        mirror_mean = _strip_mean(img, _OPPOSITE[side], mirror_line)
        paired = any(
            other.orientation == cand.orientation
            and _side_of(other, height, width) == _OPPOSITE[side]
            and abs(other.position - mirror_line) <= pairing_radius
            for other in cands
        )
        if mirror_mean <= black_threshold or paired:
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


def nms_unify(
    per_frame: list[list[EdgeCandidate]],
    frame_shape: tuple[int, int],
    radius: int = BorderParams.nms_radius,
) -> BorderLines:
    """Suppress all but the best-supported candidate cluster per side.

    Positions within ``radius`` of each other (single linkage) form one
    cluster; clusters are scored by how many frames support them, then by
    mean edge fraction, then by proximity to the frame edge. The winning
    cluster's most frequent position becomes the side's unified line.
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
            if entry[1].position - clusters[-1][-1][1].position <= radius:
                clusters[-1].append(entry)
            else:
                clusters.append([entry])

        def cluster_rep(cluster: list[tuple[int, EdgeCandidate]]) -> int:
            positions: dict[int, list[tuple[int, EdgeCandidate]]] = {}
            for item in cluster:
                positions.setdefault(item[1].position, []).append(item)
            return max(
                positions,
                key=lambda p: (
                    len({f for f, _ in positions[p]}),
                    float(np.mean([c.edge_fraction for _, c in positions[p]])),
                    -_edge_distance(side, p, height, width),
                ),
            )

        def cluster_score(cluster: list[tuple[int, EdgeCandidate]]):
            frames = len({f for f, _ in cluster})
            mean_frac = float(np.mean([c.edge_fraction for _, c in cluster]))
            rep = cluster_rep(cluster)
            return (frames, mean_frac, -_edge_distance(side, rep, height, width))

        best = max(clusters, key=cluster_score)
        unified[side] = cluster_rep(best)
    return BorderLines(**unified)


def detect_crop_rect(
    frames: list[np.ndarray], params: BorderParams = BorderParams()
) -> CropRect:
    """Run the full pipeline over a clip's frames and return the crop.

    Sides with no surviving unified line stay at the frame boundary; a crop
    that would retain less than ``min_area_fraction`` of the frame (or is
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
        if histogram_std(gray) < params.hist_std_threshold:
            per_frame.append([])  # borderless frame, contributes nothing
            continue
        binary = binarize(gray, otsu_threshold(gray))
        gx, gy = sobel_edges(binary)
        cands = extract_edge_candidates(
            gx,
            gy,
            gray,
            mag_threshold=params.edge_magnitude,
            frac_threshold=params.edge_fraction,
            search_fraction=params.search_fraction,
        )
        per_frame.append(
            fold_filter(
                cands,
                gray,
                black_threshold=params.black_threshold,
                contrast_margin=params.contrast_margin,
                pairing_radius=params.nms_radius,
            )
        )

    lines = nms_unify(per_frame, shape, radius=params.nms_radius)
    left = lines.left if lines.left is not None else 0
    top = lines.top if lines.top is not None else 0
    right = lines.right if lines.right is not None else width
    bottom = lines.bottom if lines.bottom is not None else height

    full = CropRect(0, 0, width, height)
    if not (left < right and top < bottom):
        return full
    if (right - left) * (bottom - top) < params.min_area_fraction * width * height:
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
