"""Hot pixel kernels: 3x3 Sobel correlation and 256-bin histogramming.

Both are vectorized numpy in integer arithmetic, so their results do not
depend on summation order: Sobel works in the narrowest integer type that
holds every response of its input's dtype (int8 for a bool mask, int16
otherwise), and the histogram counts the frame's byte pairs in blocks, so
it never holds an intp copy of the whole frame.
"""

from __future__ import annotations

import numpy as np

# The kernels below are the only implementation; benchmark run records read
# this flag to name the kernel path that ran.
NUMBA_ENABLED = False


def sobel_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel correlation with replicate padding; returns (Gx, Gy).

    Gx uses the kernel [[-1,0,1],[-2,0,2],[-1,0,1]] and Gy its transpose,
    each applied as its separable pair of a [-1,0,1] difference and a
    [1,2,1] smoothing. Each kernel weighs one side by 4 against the other
    by 4, so a response lies within 4 times the input's range. The
    arithmetic type follows from the dtype alone, so it holds every input
    of that dtype: a bool mask (0/1) gives int8 responses in [-4, 4]; any
    other input is cast to int16, which holds the [-1020, 1020] of 8-bit
    input, int8 included.

    The weight-2 term is added twice in place, and the smoothing reuses the
    difference's buffer once Gx is formed, so besides its two outputs the
    call holds two frame-sized planes, the padded input and that buffer.
    """
    img = np.asarray(img)
    typed = img.view(np.int8) if img.dtype == np.bool_ else img.astype(np.int16, copy=False)
    p = np.pad(typed, 1, mode="edge")
    dx = p[:, 2:] - p[:, :-2]
    gx = dx[:-2] + dx[2:]
    gx += dx[1:-1]
    gx += dx[1:-1]
    sx = np.add(p[:, :-2], p[:, 2:], out=dx)
    sx += p[:, 1:-1]
    sx += p[:, 1:-1]
    del p
    gy = sx[2:] - sx[:-2]
    return gx, gy


_PAIR_BLOCK = 1 << 17  # byte pairs per bincount pass: a 1 MiB intp buffer


def hist256(img: np.ndarray) -> np.ndarray:
    """Counts of each intensity 0..255 of a uint8 image as int64[256].

    ``np.bincount`` of the frame itself would first widen it to an intp
    copy, eight times its size. Instead the frame's bytes are read in pairs,
    as uint16, and each block of pairs is copied into one reused intp buffer
    and counted into a joint 65536-bin histogram of (byte, byte) pairs.
    Pair ``256 * a + b`` holds the bytes ``a`` and ``b``; which of them came
    first depends on the byte order, but the fold counts both, so summing
    the joint counts over rows and over columns gives each byte's count in
    either order. An odd trailing byte is counted on its own.

    Any dtype but uint8 is rejected rather than cast (int16 300 would count
    as 44).
    """
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError(f"expected a uint8 image, got dtype {img.dtype}")
    flat = np.ascontiguousarray(img).ravel()
    n_pairs = flat.size // 2
    counts = np.zeros(256, np.int64)
    if n_pairs:
        pairs = flat[: 2 * n_pairs].view(np.uint16)
        buffer = np.empty(min(n_pairs, _PAIR_BLOCK), np.intp)
        joint = np.zeros(1 << 16, np.int64)
        for start in range(0, n_pairs, buffer.size):
            block = buffer[: min(buffer.size, n_pairs - start)]
            np.copyto(block, pairs[start : start + block.size])
            joint += np.bincount(block, minlength=1 << 16)
        joint = joint.reshape(256, 256)
        counts += joint.sum(axis=0) + joint.sum(axis=1)
    if flat.size % 2:
        counts[flat[-1]] += 1
    return counts
