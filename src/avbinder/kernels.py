"""Hot pixel kernels: 3x3 Sobel correlation and 256-bin histogramming.

Both are vectorized numpy in integer arithmetic, so their results do not
depend on summation order: Sobel works in the narrowest integer type that
holds every response of its input's dtype (int8 for a bool mask, int16
otherwise), and the histogram is a ``bincount``.
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
    """
    img = np.asarray(img)
    typed = img.view(np.int8) if img.dtype == np.bool_ else img.astype(np.int16, copy=False)
    p = np.pad(typed, 1, mode="edge")
    dx = p[:, 2:] - p[:, :-2]
    gx = dx[:-2] + 2 * dx[1:-1] + dx[2:]
    sx = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]
    gy = sx[2:] - sx[:-2]
    return gx, gy


def hist256(img: np.ndarray) -> np.ndarray:
    """Counts of each intensity 0..255 as int64[256]."""
    flat = np.ascontiguousarray(img, dtype=np.uint8).ravel()
    return np.bincount(flat, minlength=256).astype(np.int64, copy=False)
