"""Hot pixel kernels: 3x3 Sobel correlation and 256-bin histogramming.

Sobel is one of the border detector's costlier per-pixel passes, though
converting RGB frames to gray (``borders.rgb_to_gray``) costs about twice
as much. Both are vectorized numpy in integer arithmetic, so their results
do not depend on summation order: Sobel works in int16 (8-bit input keeps
every response inside [-1020, 1020]) and the histogram is a ``bincount``.
"""

from __future__ import annotations

import numpy as np

# The kernels below are the only implementation; benchmark run records read
# this flag to name the kernel path that ran.
NUMBA_ENABLED = False


def sobel_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel correlation with replicate padding; returns (Gx, Gy) int16.

    Gx uses the kernel [[-1,0,1],[-2,0,2],[-1,0,1]] and Gy its transpose,
    each applied as its separable pair of a [-1,0,1] difference and a
    [1,2,1] smoothing. For 8-bit input the response lies in [-1020, 1020],
    inside int16.
    """
    p = np.pad(np.asarray(img, dtype=np.int16), 1, mode="edge")
    dx = p[:, 2:] - p[:, :-2]
    gx = dx[:-2] + 2 * dx[1:-1] + dx[2:]
    sx = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]
    gy = sx[2:] - sx[:-2]
    return gx, gy


def hist256(img: np.ndarray) -> np.ndarray:
    """Counts of each intensity 0..255 as int64[256]."""
    flat = np.ascontiguousarray(img, dtype=np.uint8).ravel()
    return np.bincount(flat, minlength=256).astype(np.int64, copy=False)
