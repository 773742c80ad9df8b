import numpy as np

from avbinder import kernels


def test_sobel_output_dtype_and_range():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (12, 12)).astype(np.uint8)
    gx, gy = kernels.sobel_gradients(img)
    assert gx.dtype == np.int16 and gy.dtype == np.int16
    assert np.abs(gx).max() <= 1020 and np.abs(gy).max() <= 1020


def test_hist256_counts_every_pixel():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (33, 7)).astype(np.uint8)
    counts = kernels.hist256(img)
    assert counts.sum() == img.size
    assert counts[77] == int((img == 77).sum())
