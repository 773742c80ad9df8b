import hashlib

import numpy as np
import pytest

from helpers import (
    make_bordered_frame,
    make_clip,
    otsu_exhaustive,
    sobel_naive,
    uniform_histogram_frame,
)

from avbinder.borders import (
    BorderParams,
    CropRect,
    EdgeCandidate,
    apply_crop,
    binarize,
    detect_crop_rect,
    extract_edge_candidates,
    fold_filter,
    histogram_std,
    nms_unify,
    otsu_threshold,
    rgb_to_gray,
    sobel_edges,
)


def black_top_frame(height=100, width=100, band=10, fill=128):
    img = np.full((height, width), fill, np.uint8)
    img[:band] = 0
    return img


class TestHistogramStd:
    def test_uniform_histogram_is_zero(self):
        assert histogram_std(uniform_histogram_frame()) == 0.0

    def test_constant_image_is_maximal(self):
        img = np.full((50, 40), 77, np.uint8)
        assert histogram_std(img) == pytest.approx(np.sqrt(255.0) / 256.0, rel=1e-12)

    def test_two_level_checker_matches_hand_formula(self):
        img = np.zeros((16, 16), np.uint8)
        img[::2, ::2] = 200
        img[1::2, 1::2] = 200  # exactly half the pixels at 200, half at 0
        mean = 1.0 / 256.0
        var = (2 * (0.5 - mean) ** 2 + 254 * mean**2) / 256.0
        assert histogram_std(img) == pytest.approx(np.sqrt(var), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_std(np.zeros((0, 4), np.uint8))


class TestOtsu:
    def test_constant_image_returns_zero(self):
        assert otsu_threshold(np.full((8, 8), 93, np.uint8)) == 0

    def test_balanced_black_white_ties_to_zero(self):
        img = np.zeros((10, 10), np.uint8)
        img[:, 5:] = 255
        assert otsu_threshold(img) == 0

    def test_matches_exhaustive_search_on_random_images(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            assert otsu_threshold(img) == otsu_exhaustive(img)

    def test_bimodal_image_splits_the_gap(self):
        rng = np.random.default_rng(1)
        img = np.where(
            rng.random((32, 32)) < 0.4,
            rng.integers(0, 30, (32, 32)),
            rng.integers(180, 250, (32, 32)),
        ).astype(np.uint8)
        t = otsu_threshold(img)
        assert 29 <= t < 180

    def test_binarize_rule(self):
        img = np.array([[10, 20], [21, 255]], np.uint8)
        assert np.array_equal(
            binarize(img, 20), np.array([[0, 0], [255, 255]], np.uint8)
        )


class TestSobel:
    def test_constant_image_has_zero_gradients(self):
        gx, gy = sobel_edges(np.full((7, 9), 55, np.uint8))
        assert not gx.any() and not gy.any()

    def test_vertical_step_response(self):
        img = np.zeros((10, 12), np.uint8)
        img[:, 6:] = 255
        gx, gy = sobel_edges(img)
        assert not gy.any()  # rows are identical, replicate padding included
        assert (np.abs(gx[:, [5, 6]]) == 1020).all()
        assert not gx[:, :4].any() and not gx[:, 8:].any()

    def test_matches_naive_correlation_exactly(self):
        rng = np.random.default_rng(3)
        shapes = [(9, 9)] * 10 + [(3, 3), (3, 17), (17, 3), (3, 40), (40, 3), (5, 23), (31, 8)]
        lo = hi = 0
        for i, shape in enumerate(shapes * 2):
            img = rng.integers(0, 256, shape).astype(np.uint8)
            if i >= len(shapes):  # binarized frames, where responses reach +-1020
                img = np.where(rng.random(shape) < 0.5, 255, 0).astype(np.uint8)
                img[:, : shape[1] // 2] = 0
                img[: shape[0] // 2, :] = 255
            gx, gy = sobel_edges(img)
            ex, ey = sobel_naive(img)
            assert np.array_equal(gx.astype(np.int64), ex)
            assert np.array_equal(gy.astype(np.int64), ey)
            lo, hi = min(lo, ex.min(), ey.min()), max(hi, ex.max(), ey.max())
        assert (lo, hi) == (-1020, 1020)

    def test_small_images_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            sobel_edges(np.zeros((2, 5), np.uint8))


class TestExtractCandidates:
    def test_zero_gradients_give_no_candidates(self):
        img = np.full((20, 20), 90, np.uint8)
        zeros = np.zeros((20, 20), np.int16)
        assert extract_edge_candidates(zeros, zeros, img) == []

    def test_black_top_band_yields_single_candidate(self):
        img = black_top_frame()
        binary = binarize(img, otsu_threshold(img))
        gx, gy = sobel_edges(binary)
        cands = extract_edge_candidates(gx, gy, img)
        assert len(cands) == 1
        cand = cands[0]
        assert cand.orientation == "horizontal"
        assert cand.position == 10
        assert cand.edge_fraction == 1.0
        assert cand.outer_mean == 0.0  # verified: rows 0..9 are exactly black
        assert cand.inner_mean == 128.0

    def test_positions_invariant_under_horizontal_mirror(self):
        img = black_top_frame(band=7, fill=150)
        binary = binarize(img, otsu_threshold(img))
        gx, gy = sobel_edges(binary)
        mirrored = np.fliplr(binary).copy()
        mgx, mgy = sobel_edges(mirrored)
        pos = [c.position for c in extract_edge_candidates(gx, gy, img) if c.orientation == "horizontal"]
        mpos = [
            c.position
            for c in extract_edge_candidates(mgx, mgy, np.fliplr(img).copy())
            if c.orientation == "horizontal"
        ]
        assert pos == mpos


class TestFoldFilter:
    def test_symmetric_bands_are_kept(self):
        img = np.full((100, 100), 128, np.uint8)
        img[:10] = 0
        img[-10:] = 0
        binary = binarize(img, otsu_threshold(img))
        gx, gy = sobel_edges(binary)
        cands = extract_edge_candidates(gx, gy, img)
        kept = fold_filter(cands, img)
        assert sorted(c.position for c in kept) == [10, 90]

    def test_solid_black_frame_drops_everything(self):
        img = np.zeros((60, 60), np.uint8)
        cands = [
            EdgeCandidate("horizontal", 10, 1.0, 0.0, 0.0),
            EdgeCandidate("vertical", 50, 1.0, 0.0, 0.0),
        ]
        assert fold_filter(cands, img) == []  # no inner/outer contrast

    def test_bright_outer_strip_dropped(self):
        img = np.full((60, 60), 128, np.uint8)
        cands = [EdgeCandidate("horizontal", 10, 1.0, 200.0, 128.0)]
        assert fold_filter(cands, img) == []

    def test_one_sided_band_without_mirror_dropped(self):
        img = np.full((100, 100), 128, np.uint8)
        img[:10] = 0  # top band only; the mirrored bottom strip is bright
        binary = binarize(img, otsu_threshold(img))
        gx, gy = sobel_edges(binary)
        cands = extract_edge_candidates(gx, gy, img)
        assert fold_filter(cands, img) == []


class TestNms:
    def test_majority_cluster_wins(self):
        per_frame = [
            [EdgeCandidate("horizontal", 10, 1.0, 0.0, 128.0)],
            [EdgeCandidate("horizontal", 11, 1.0, 0.0, 128.0)],
            [EdgeCandidate("horizontal", 10, 1.0, 0.0, 128.0)],
        ]
        lines = nms_unify(per_frame, (100, 100), radius=4)
        assert lines.top == 10
        assert lines.bottom is None and lines.left is None and lines.right is None

    def test_single_candidate_passes_through(self):
        per_frame = [[EdgeCandidate("vertical", 93, 0.8, 2.0, 120.0)]]
        lines = nms_unify(per_frame, (100, 100), radius=4)
        assert lines.right == 93

    def test_empty_input_gives_no_lines(self):
        lines = nms_unify([[], [], []], (100, 100), radius=4)
        assert lines == type(lines)()

    def test_distant_minority_cluster_suppressed(self):
        per_frame = [
            [EdgeCandidate("horizontal", 10, 1.0, 0.0, 128.0)] for _ in range(5)
        ] + [[EdgeCandidate("horizontal", 30, 1.0, 0.0, 128.0)]]
        lines = nms_unify(per_frame, (100, 100), radius=4)
        assert lines.top == 10


class TestDetect:
    @pytest.mark.parametrize(
        "borders",
        [(0, 0, 0, 0), (5, 5, 0, 0), (20, 20, 20, 20), (0, 0, 40, 40)],
        ids=["none", "letterbox5", "all20", "pillarbox40"],
    )
    def test_known_borders_detected_within_tolerance(self, borders):
        height, width = 144, 192
        top, bottom, left, right = borders
        rect = detect_crop_rect(make_clip(borders, height=height, width=width))
        assert abs(rect.top - top) <= 2
        assert abs(rect.left - left) <= 2
        assert abs(rect.right - (width - right)) <= 2
        assert abs(rect.bottom - (height - bottom)) <= 2

    def test_uniform_histogram_frames_short_circuit_to_full_frame(self):
        frames = [uniform_histogram_frame()] * 4
        rect = detect_crop_rect(frames)
        assert rect == CropRect(0, 0, 128, 128)

    def test_absurd_borders_fall_back_to_full_frame(self):
        rng = np.random.default_rng(11)
        frames = []
        for _ in range(10):
            img = np.zeros((100, 100), np.uint8)
            img[35:65, 35:65] = (135 + 3 * rng.standard_normal((30, 30))).clip(110, 160).astype(np.uint8)
            frames.append(img)
        assert detect_crop_rect(frames) == CropRect(0, 0, 100, 100)

    def test_detection_is_idempotent(self):
        frames = make_clip((20, 20, 20, 20))
        rect = detect_crop_rect(frames)
        cropped = [apply_crop(f, rect) for f in frames]
        again = detect_crop_rect(cropped)
        radius = BorderParams.nms_radius
        assert again.left <= radius and again.top <= radius
        assert again.right >= rect.width - radius
        assert again.bottom >= rect.height - radius

    def test_invariant_under_half_turn_rotation(self):
        for borders in [(5, 5, 0, 0), (20, 20, 20, 20), (0, 0, 40, 40)]:
            frames = make_clip(borders)
            height, width = frames[0].shape
            rect = detect_crop_rect(frames)
            rotated = detect_crop_rect([np.rot90(f, 2).copy() for f in frames])
            assert rotated == CropRect(
                width - rect.right, height - rect.bottom, width - rect.left, height - rect.top
            )

    def test_area_floor_never_violated(self):
        for borders in [(0, 0, 0, 0), (5, 5, 0, 0), (20, 20, 20, 20), (0, 0, 40, 40)]:
            frames = make_clip(borders)
            height, width = frames[0].shape
            rect = detect_crop_rect(frames)
            assert rect.width * rect.height >= 0.25 * width * height

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty frame list"):
            detect_crop_rect([])
        with pytest.raises(ValueError, match="share dimensions"):
            detect_crop_rect([np.zeros((4, 4), np.uint8), np.zeros((4, 5), np.uint8)])


class TestApplyCrop:
    def test_full_frame_is_identity(self):
        img = np.arange(100, dtype=np.uint8).reshape(10, 10)
        out = apply_crop(img, CropRect(0, 0, 10, 10))
        assert np.array_equal(out, img)

    def test_output_dimensions(self):
        img = np.zeros((100, 100), np.uint8)
        out = apply_crop(img, CropRect(20, 20, 80, 80))
        assert out.shape == (60, 60)

    def test_crop_then_reembed_reproduces_interior(self):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, (50, 60)).astype(np.uint8)
        rect = CropRect(7, 5, 41, 33)
        patch = apply_crop(img, rect)
        canvas = np.zeros_like(img)
        canvas[rect.top : rect.bottom, rect.left : rect.right] = patch
        assert np.array_equal(
            canvas[rect.top : rect.bottom, rect.left : rect.right],
            img[rect.top : rect.bottom, rect.left : rect.right],
        )

    def test_rgb_images_crop_too(self):
        img = np.random.default_rng(5).integers(0, 256, (20, 30, 3)).astype(np.uint8)
        out = apply_crop(img, CropRect(2, 3, 10, 12))
        assert out.shape == (9, 8, 3)
        assert np.array_equal(out, img[3:12, 2:10])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            apply_crop(np.zeros((5, 5), np.uint8), CropRect(0, 0, 6, 5))

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            CropRect(5, 0, 5, 10)


class TestGrayConversion:
    def test_rec601_weights_rounded_half_up(self):
        rgb = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255], [10, 20, 30]]], np.uint8)
        gray = rgb_to_gray(rgb)
        assert gray.tolist() == [[76, 150, 29, 18]]  # floor(luma + 0.5)

    def test_gray_passthrough(self):
        img = np.arange(9, dtype=np.uint8).reshape(3, 3)
        assert np.array_equal(rgb_to_gray(img), img)


def _golden_clips():
    """Seeded clips for the stage hashes: small letterbox, pillarbox,
    windowbox and borderless layouts over smooth, noisy and flat content,
    gray and RGB, plus one 1080p letterbox and one 1080p pillarbox."""
    rng = np.random.default_rng(2024)
    clips = []
    for i in range(24):
        height, width = int(rng.integers(12, 97)), int(rng.integers(12, 129))
        layout = ("letterbox", "pillarbox", "windowbox", "none")[i % 4]
        top = bottom = left = right = 0
        if layout in ("letterbox", "windowbox"):
            top, bottom = (int(b) for b in rng.integers(1, height // 4 + 1, 2))
        if layout in ("pillarbox", "windowbox"):
            left, right = (int(b) for b in rng.integers(1, width // 4 + 1, 2))
        rgb = i % 3 == 0
        frames = []
        for f in range(3):
            shape = (height, width, 3) if rgb else (height, width)
            texture = (i + f) % 3
            if texture == 0:
                yy, xx = np.mgrid[0:height, 0:width]
                wave = 140 + 60 * np.sin(xx / 7.0 + f) * np.cos(yy / 5.0 - f)
                body = np.broadcast_to(wave[..., None] if rgb else wave, shape)
            elif texture == 1:
                body = rng.integers(30, 256, shape)
            else:
                body = np.full(shape, int(rng.integers(60, 200)))
            img = np.asarray(body).astype(np.uint8)
            img[:top] = rng.integers(0, 4)
            img[height - bottom :] = 0
            img[:, :left] = 0
            img[:, width - right :] = rng.integers(0, 4)
            frames.append(img)
        clips.append(frames)
    letterbox = [make_bordered_frame(0.4 * f, 1080, 1920, (140, 140, 0, 0)) for f in range(2)]
    pillarbox = [
        np.stack(
            [make_bordered_frame(0.4 * f + c, 1080, 1920, (0, 0, 240, 240)) for c in range(3)],
            axis=-1,
        )
        for f in range(2)
    ]
    return clips + [letterbox, pillarbox]


def _stage_hashes():
    def update(h, *parts):
        for part in parts:
            if isinstance(part, np.ndarray):
                h.update(f"{part.dtype}{part.shape}".encode())
                h.update(np.ascontiguousarray(part).tobytes())
            elif isinstance(part, float):
                h.update(part.hex().encode())
            elif isinstance(part, EdgeCandidate):
                update(h, part.orientation, part.position, part.edge_fraction,
                       part.outer_mean, part.inner_mean)
            else:
                h.update(repr(part).encode())
            h.update(b"|")

    stages = ("histogram_std", "otsu_threshold", "binarize", "sobel_edges",
              "extract_edge_candidates", "fold_filter", "detect_crop_rect")
    hashes = {name: hashlib.sha256() for name in stages}
    for frames in _golden_clips():
        for frame in frames:
            gray = rgb_to_gray(frame)
            t = otsu_threshold(gray)
            binary = binarize(gray, t)
            gx, gy = sobel_edges(binary)
            cands = extract_edge_candidates(gx, gy, gray)
            update(hashes["histogram_std"], histogram_std(gray))
            update(hashes["otsu_threshold"], t)
            update(hashes["binarize"], binary)
            update(hashes["sobel_edges"], gx, gy)
            update(hashes["extract_edge_candidates"], len(cands), *cands)
            kept = fold_filter(cands, gray)
            update(hashes["fold_filter"], len(kept), *kept)
        update(hashes["detect_crop_rect"], detect_crop_rect(frames))
    return {name: h.hexdigest() for name, h in hashes.items()}


# sha256 of every stage's output over _golden_clips(), taken from the
# detector before its kernels moved to one int16/uint8 path
BORDER_STAGE_GOLDEN = {
    "histogram_std": "10d7cc535952e76bddc111fc6dff0be46bedcc1ec6769603f15aa747c5585334",
    "otsu_threshold": "fff10e15cb86ba550b484fd31004390d8ed8383f987e23646d1a842c235306e0",
    "binarize": "e76d81fd02a98b8f02e8768c8759964b0ed97c69936df94027aae04eb7cb5b6d",
    "sobel_edges": "ea3a31518ffab653cf713880394827a6d29a24ce5651f4ce51674fa6d2eb996d",
    "extract_edge_candidates": "2fa605e18b989185f363032ec2c4490a8218f19b31f62327e41838d2365a3cb1",
    "fold_filter": "801e06ee1d10743ab223be355187fcfc259894a2af4f7c1d7e9e1251f079ac82",
    "detect_crop_rect": "aae63a666256824de745b1385ec9dd4ff71f31a0adc7679cf66835ea58195aad",
}


def test_stage_outputs_match_golden_hashes():
    assert _stage_hashes() == BORDER_STAGE_GOLDEN
