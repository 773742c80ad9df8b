import hashlib

import numpy as np
import pytest

from helpers import (
    all_rgb_triples,
    luma_float64,
    make_bordered_frame,
    make_clip,
    otsu_exhaustive,
    sobel_naive,
    uniform_histogram_frame,
)

from avbinder import borders
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
from avbinder.kernels import hist256


def black_top_frame(height=100, width=100, band=10, fill=128):
    img = np.full((height, width), fill, np.uint8)
    img[:band] = 0
    return img


def candidate(side, depth, edge_fraction=1.0, outer=0.0, inner=128.0, mirror=0.0):
    return EdgeCandidate(side, depth, edge_fraction, outer, inner, mirror)


class TestHistogramStd:
    def test_uniform_histogram_is_zero(self):
        assert histogram_std(hist256(uniform_histogram_frame())) == 0.0

    def test_constant_image_is_maximal(self):
        img = np.full((50, 40), 77, np.uint8)
        assert histogram_std(hist256(img)) == pytest.approx(np.sqrt(255.0) / 256.0, rel=1e-12)

    def test_two_level_checker_matches_hand_formula(self):
        img = np.zeros((16, 16), np.uint8)
        img[::2, ::2] = 200
        img[1::2, 1::2] = 200  # exactly half the pixels at 200, half at 0
        mean = 1.0 / 256.0
        var = (2 * (0.5 - mean) ** 2 + 254 * mean**2) / 256.0
        assert histogram_std(hist256(img)) == pytest.approx(np.sqrt(var), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="256 counts"):
            histogram_std(hist256(np.zeros((0, 4), np.uint8)))
        with pytest.raises(ValueError):
            histogram_std(np.ones(255, np.int64))


class TestOtsu:
    def test_constant_image_returns_zero(self):
        assert otsu_threshold(hist256(np.full((8, 8), 93, np.uint8))) == 0

    def test_balanced_black_white_ties_to_zero(self):
        img = np.zeros((10, 10), np.uint8)
        img[:, 5:] = 255
        assert otsu_threshold(hist256(img)) == 0

    def test_matches_exhaustive_search_on_random_images(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            assert otsu_threshold(hist256(img)) == otsu_exhaustive(img)

    def test_bimodal_image_splits_the_gap(self):
        rng = np.random.default_rng(1)
        img = np.where(
            rng.random((32, 32)) < 0.4,
            rng.integers(0, 30, (32, 32)),
            rng.integers(180, 250, (32, 32)),
        ).astype(np.uint8)
        t = otsu_threshold(hist256(img))
        assert 29 <= t < 180

    def test_binarize_rule(self):
        img = np.array([[10, 20], [21, 255]], np.uint8)
        mask = binarize(img, 20)
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, [[False, False], [True, True]])


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
        binary = binarize(img, otsu_threshold(hist256(img)))
        gx, gy = sobel_edges(binary)
        cands = extract_edge_candidates(gx, gy, img)
        assert len(cands) == 1
        cand = cands[0]
        assert cand.side == "top"
        assert cand.depth == 10
        assert cand.edge_fraction == 1.0
        assert cand.outer_mean == 0.0  # verified: rows 0..9 are exactly black
        assert cand.inner_mean == 128.0
        assert cand.mirror_mean == 128.0  # rows 90..99 hold the fill

    def test_positions_invariant_under_horizontal_mirror(self):
        img = black_top_frame(band=7, fill=150)
        binary = binarize(img, otsu_threshold(hist256(img)))
        gx, gy = sobel_edges(binary)
        mirrored = np.fliplr(binary).copy()
        mgx, mgy = sobel_edges(mirrored)
        rows = [c for c in extract_edge_candidates(gx, gy, img) if c.side in ("top", "bottom")]
        mrows = [
            c
            for c in extract_edge_candidates(mgx, mgy, np.fliplr(img).copy())
            if c.side in ("top", "bottom")
        ]
        assert rows == mrows and rows


class TestFoldFilter:
    def test_symmetric_bands_are_kept(self):
        img = np.full((100, 100), 128, np.uint8)
        img[:10] = 0
        img[-10:] = 0
        binary = binarize(img, otsu_threshold(hist256(img)))
        gx, gy = sobel_edges(binary)
        cands = extract_edge_candidates(gx, gy, img)
        kept = fold_filter(cands)
        assert sorted((c.side, c.depth) for c in kept) == [("bottom", 10), ("top", 10)]

    def test_solid_black_frame_drops_everything(self):
        # a 60x60 all-black frame: row line 10 and column line 50
        cands = [candidate("top", 10, inner=0.0), candidate("right", 10, inner=0.0)]
        assert fold_filter(cands) == []  # no inner/outer contrast

    def test_bright_outer_strip_dropped(self):
        # a 60x60 frame of 128 with a bright strip above row line 10
        cands = [candidate("top", 10, outer=200.0, mirror=128.0)]
        assert fold_filter(cands) == []

    def test_one_sided_band_without_mirror_dropped(self):
        img = np.full((100, 100), 128, np.uint8)
        img[:10] = 0  # top band only; the mirrored bottom strip is bright
        binary = binarize(img, otsu_threshold(hist256(img)))
        gx, gy = sobel_edges(binary)
        cands = extract_edge_candidates(gx, gy, img)
        assert fold_filter(cands) == []


class TestNms:
    def test_majority_cluster_wins(self):
        per_frame = [[candidate("top", 10)], [candidate("top", 11)], [candidate("top", 10)]]
        assert nms_unify(per_frame) == {"top": 10}

    def test_single_candidate_passes_through(self):
        # column line 93 of a 100-column frame
        per_frame = [[candidate("right", 7, 0.8, 2.0, 120.0)]]
        assert nms_unify(per_frame) == {"right": 7}

    def test_empty_input_gives_no_lines(self):
        assert nms_unify([[], [], []]) == {}

    def test_distant_minority_cluster_suppressed(self):
        per_frame = [[candidate("top", 10)] for _ in range(5)] + [[candidate("top", 30)]]
        assert nms_unify(per_frame) == {"top": 10}


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

    @pytest.mark.parametrize(
        "transform, expected",
        [
            (np.asarray, CropRect(30, 20, 165, 121)),
            (np.flipud, CropRect(30, 23, 165, 124)),
            (np.fliplr, CropRect(27, 20, 162, 121)),
            (np.transpose, CropRect(20, 30, 121, 165)),
        ],
        ids=["identity", "flipud", "fliplr", "transpose"],
    )
    def test_equivariant_under_flips_and_transposition(self, transform, expected):
        # four different bar widths, so a swapped side label moves the crop
        frames = make_clip((20, 23, 30, 27))
        assert detect_crop_rect([transform(f).copy() for f in frames]) == expected

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

    def test_frames_may_come_from_a_generator(self):
        frames = make_clip((20, 20, 20, 20), n_frames=3)
        taken = []

        def one_at_a_time(frames):
            for frame in frames:
                taken.append(frame.shape)
                yield frame

        assert detect_crop_rect(one_at_a_time(frames)) == detect_crop_rect(frames)
        assert len(taken) == 3
        with pytest.raises(ValueError, match="empty frame list"):
            detect_crop_rect(one_at_a_time([]))
        with pytest.raises(ValueError, match="share dimensions"):
            detect_crop_rect(one_at_a_time([np.zeros((4, 4), np.uint8), np.zeros((4, 5), np.uint8)]))

    def test_one_histogram_per_frame(self, monkeypatch):
        calls = []

        def counting_hist256(img):
            calls.append(img.shape)
            return hist256(img)

        monkeypatch.setattr(borders, "hist256", counting_hist256)
        frames = make_clip((20, 20, 20, 20), n_frames=3)
        rect = detect_crop_rect(frames)
        assert len(calls) == 3  # one shared by the gate and Otsu, per frame
        assert (rect.top, rect.left) != (0, 0)  # the frames reached the detector


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

    def test_exact_tie_rounds_as_float64_sum(self):
        # 0.299*17 + 0.587*91 = 58.5 exactly, but the float64 sum lands below
        # the tie; an integer (299R + 587G + 114B + 500) // 1000 form gives 59
        assert rgb_to_gray(np.array([[[17, 91, 0]]], np.uint8)).tolist() == [[58]]

    def test_every_rgb_triple_matches_the_float64_formula(self):
        # all 2^24 triples, 16 red values at a time; the float32 integer sum
        # must reproduce the float64 expression, its round-down ties included
        for red in range(0, 256, 16):
            rgb = all_rgb_triples(range(red, red + 16))
            assert np.array_equal(rgb_to_gray(rgb), luma_float64(rgb)), red

    def test_ties_are_recomputed_in_any_row_block(self):
        # a frame of (17, 91, 0) ties, taller than one block of the sum and
        # with a partial last block, in a non-contiguous view
        rgb = np.zeros((7, 150, 3), np.uint8)
        rgb[::2] = (17, 91, 0)
        rgb[1::2, 1::3] = (3, 4, 5)
        view = rgb.transpose(1, 0, 2)  # 150 rows: two full blocks and a partial one
        gray = rgb_to_gray(view)
        assert np.array_equal(gray, luma_float64(view))
        assert (gray[:, ::2] == 58).all()

    @pytest.mark.parametrize(
        "frame",
        [np.full((8, 8, 3), 0.5), np.full((8, 8), 300, np.uint16)],
        ids=["float01", "uint16"],  # a cast would give all zeros, or wrap 300 to 44
    )
    def test_non_uint8_frames_rejected(self, frame):
        with pytest.raises(ValueError, match="uint8"):
            rgb_to_gray(frame)
        with pytest.raises(ValueError, match="uint8"):
            detect_crop_rect([frame])


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


def _hashed(cand, shape):
    """The fields the golden hashes were taken over: orientation, crop line
    (first content line on the top/left side, exclusive content bound on the
    bottom/right), edge fraction, outer and inner mean."""
    horizontal = cand.side in ("top", "bottom")
    extent = shape[0] if horizontal else shape[1]
    line = cand.depth if cand.side in ("top", "left") else extent - cand.depth
    return ("horizontal" if horizontal else "vertical", line, cand.edge_fraction,
            cand.outer_mean, cand.inner_mean)


def _stage_hashes():
    def update(h, *parts):
        for part in parts:
            if isinstance(part, np.ndarray):
                h.update(f"{part.dtype}{part.shape}".encode())
                h.update(np.ascontiguousarray(part).tobytes())
            elif isinstance(part, float):
                h.update(part.hex().encode())
            elif isinstance(part, tuple):
                update(h, *part)
            else:
                h.update(repr(part).encode())
            h.update(b"|")

    stages = ("histogram_std", "otsu_threshold", "binarize", "sobel_edges",
              "extract_edge_candidates", "fold_filter", "detect_crop_rect")
    hashes = {name: hashlib.sha256() for name in stages}
    for frames in _golden_clips():
        for frame in frames:
            gray = rgb_to_gray(frame)
            counts = hist256(gray)
            t = otsu_threshold(counts)
            binary = binarize(gray, t)
            gx, gy = sobel_edges(binary)
            cands = extract_edge_candidates(gx, gy, gray)
            update(hashes["histogram_std"], histogram_std(counts))
            update(hashes["otsu_threshold"], t)
            update(hashes["binarize"], binary.view(np.uint8) * np.uint8(255))
            update(hashes["sobel_edges"], *(g.astype(np.int16) * np.int16(255) for g in (gx, gy)))
            update(hashes["extract_edge_candidates"], len(cands), *(_hashed(c, gray.shape) for c in cands))
            kept = fold_filter(cands)
            update(hashes["fold_filter"], len(kept), *(_hashed(c, gray.shape) for c in kept))
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


@pytest.fixture(scope="module")
def edge_inputs():
    """(frames, [(gray, mask, Gx, Gy) of every ungated frame]) for each
    ``_golden_clips()`` clip and for a two-level frame of random bits,
    whose Otsu mask has Sobel responses of every |d| from 0 to 4."""
    bits = np.random.default_rng(12).random((40, 48)) < 0.5
    clips = _golden_clips() + [[np.where(bits, 200, 10).astype(np.uint8)]]
    inputs = []
    for frames in clips:
        staged = []
        for frame in frames:
            gray = rgb_to_gray(frame)
            counts = hist256(gray)
            if histogram_std(counts) >= BorderParams.hist_std_threshold:
                mask = binarize(gray, otsu_threshold(counts))
                staged.append((gray, mask, *sobel_edges(mask)))
        inputs.append((frames, staged))
    mx, my = sobel_naive(bits.astype(np.uint8))
    assert set(np.abs(mx).ravel()) == set(np.abs(my).ravel()) == {0, 1, 2, 3, 4}
    return inputs


@pytest.mark.parametrize("magnitude", [0, 1, 127, 128, 129, 255, 256, 510, 511, 765, 766, 1020, 1021])
def test_pipeline_candidates_match_the_public_stages(edge_inputs, monkeypatch, magnitude):
    # The pipeline's candidates are the public stages' on the Otsu mask, and
    # on its 0/255 image too. The removed edge magnitude m marked |G| >= m on
    # that image's int16 responses, 255 times the mask's d: the same edges as
    # d != 0 for every m from 1 to 255 (the old default 128 among them) and
    # for no other m.
    seen = []
    real = borders.extract_edge_candidates

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(borders, "extract_edge_candidates", spy)
    found = 0
    same_as_magnitude = True
    for edge_fraction in (0.6, 0.3, 0.05):  # the low ones let the random-bits frame pass each |d|
        params = BorderParams(edge_fraction=edge_fraction)
        for frames, staged in edge_inputs:
            seen.clear()
            detect_crop_rect(frames, params)
            expected = [real(gx, gy, gray, params) for gray, _, gx, gy in staged]
            assert seen == expected
            found += sum(map(len, expected))
            binary = [(gray, sobel_edges(mask.view(np.uint8) * np.uint8(255))) for gray, mask, _, _ in staged]
            assert all(g.dtype == np.int16 for _, gs in binary for g in gs)
            assert [real(gx, gy, gray, params) for gray, (gx, gy) in binary] == expected
            old = [real(np.abs(gx) >= magnitude, np.abs(gy) >= magnitude, gray, params)
                   for gray, (gx, gy) in binary]
            same_as_magnitude &= old == expected
    assert found
    assert same_as_magnitude == (1 <= magnitude <= 255)
