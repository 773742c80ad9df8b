import numpy as np
import pytest
from helpers import sobel_naive

from avbinder import kernels


def test_sobel_output_dtype_and_range():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (12, 12)).astype(np.uint8)
    gx, gy = kernels.sobel_gradients(img)
    assert gx.dtype == np.int16 and gy.dtype == np.int16
    assert np.abs(gx).max() <= 1020 and np.abs(gy).max() <= 1020


@pytest.mark.parametrize("shape", [(3, 3), (9, 9), (3, 17), (17, 3), (31, 8)])
def test_bool_mask_gives_int8_responses_of_its_0_1_image(shape):
    rng = np.random.default_rng(6)
    for density in (0.1, 0.5, 0.9):
        mask = rng.random(shape) < density
        gx, gy = kernels.sobel_gradients(mask)
        assert gx.dtype == np.int8 and gy.dtype == np.int8
        ex, ey = sobel_naive(mask.astype(np.uint8))
        assert np.array_equal(gx, ex) and np.array_equal(gy, ey)


@pytest.mark.parametrize("dtype, lo, hi", [(np.uint8, 0, 255), (np.int8, -128, 127)])
def test_full_range_8_bit_input_gets_exact_int16_responses(dtype, lo, hi):
    rng = np.random.default_rng(7)
    img = rng.integers(lo, hi + 1, (16, 16)).astype(dtype)
    img[:, :8] = lo
    img[:8, :] = hi
    img[4:12:2, 4:12:2] = lo  # extreme corners, so responses reach +-1020
    gx, gy = kernels.sobel_gradients(img)
    assert gx.dtype == np.int16 and gy.dtype == np.int16
    ex, ey = sobel_naive(img)
    assert np.array_equal(gx, ex) and np.array_equal(gy, ey)
    assert max(np.abs(ex).max(), np.abs(ey).max()) == 1020


def test_hist256_counts_every_pixel():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (33, 7)).astype(np.uint8)
    counts = kernels.hist256(img)
    assert counts.sum() == img.size
    assert counts[77] == int((img == 77).sum())


def _hist_cases():
    rng = np.random.default_rng(4)
    noise = rng.integers(0, 256, (37, 52), dtype=np.uint8)
    every = np.arange(256, dtype=np.uint8).repeat(3).reshape(48, 16)
    return {
        "even": noise,  # 1924 pixels
        "odd": noise[:, :51][:35],  # 1785 pixels
        "one-pixel": np.array([[201]], np.uint8),
        "every-other-column": noise[:, ::2],
        "transposed": noise.T,
        "every-value": every,
        "all-255": np.full((9, 11), 255, np.uint8),
        # more pairs than one bincount block, the last block partial, one byte left
        "several-blocks": rng.integers(0, 256, (513, 513), dtype=np.uint8),
    }


@pytest.mark.parametrize("name", list(_hist_cases()))
def test_hist256_equals_bincount(name):
    img = _hist_cases()[name]
    counts = kernels.hist256(img)
    assert counts.dtype == np.int64 and counts.shape == (256,)
    assert np.array_equal(counts, np.bincount(img.ravel(), minlength=256))


def test_hist256_of_an_empty_image_is_256_zeros():
    counts = kernels.hist256(np.zeros((0, 4), np.uint8))
    assert counts.dtype == np.int64 and np.array_equal(counts, np.zeros(256, np.int64))


@pytest.mark.parametrize(
    "img",
    [np.full((4, 4), 300, np.int16), np.full((4, 4), 255.7), np.zeros((4, 4), np.bool_)],
    ids=["int16", "float", "bool"],  # a cast would count 300 as 44 and 255.7 as 255
)
def test_hist256_rejects_any_dtype_but_uint8(img):
    with pytest.raises(ValueError, match="uint8"):
        kernels.hist256(img)
