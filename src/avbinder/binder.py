"""Cosine scores and the temperature-scaled contrastive objective.

Cosine is realized as normalize-then-dot so the backward pass through the
normalization lives in one place. The batch loss is the symmetric form:
with S the NxN cosine matrix whose diagonal holds the true pairs,

    L = 1/2 * [ mean_i -log softmax_row(S/tau)[i,i]
              + mean_i -log softmax_col(S/tau)[i,i] ]

Softmaxes are computed with max subtraction, so small temperatures do not
overflow.

:func:`row_dots` is the one exact dot product: an elementwise product
followed by numpy's pairwise sum over each row, so a score's bits do not
depend on the shapes it was computed in. Training scores its batch with a
BLAS product, ``u @ v.T``: those scores feed only the loss and its
gradient, so their bits need not match search's. Search
(:mod:`avbinder.retrieval`) screens with a BLAS product too and calls
``row_dots`` only where the GEMM score cannot settle the order, one query
row against its doubtful candidates; every score it returns or compares is
still the ``row_dots`` value.

:func:`project_video` and :func:`project_audio` run the eval-mode forward
in blocks of a fixed 256 rows and zero-pad the last block to 256, so every
row goes through a GEMM of the same shape whatever the row count of its
file. A BLAS may compute a 1-row product with other bits than a 256-row
one; with fixed blocks a row's projection, and every score printed from it,
is the same alone or inside a larger file. The blocks also bound the
forward's intermediates to 256 rows, so only the output grows with the
input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroNormError
from .projection import ProjectionHead, head_forward

NORM_FLOOR = 1e-12
DEFAULT_TEMPERATURE = 0.07

_DOT_CHUNK_ELEMS = 4_000_000  # cap the (rows x cols x dim) temporary
_EVAL_BLOCK_ROWS = 256  # rows per eval-mode GEMM; the last block is zero-padded


@dataclass
class BindModel:
    """Two projection heads plus the softmax temperature."""

    video_head: ProjectionHead
    audio_head: ProjectionHead
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self) -> None:
        if not 0.0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if self.video_head.d_out != self.audio_head.d_out:
            raise ValueError("heads must share their output dimension")


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """All pairwise dot products between rows of u and rows of v.

    Uses an elementwise-product + pairwise-sum reduction whose result does
    not depend on the shapes involved, unlike BLAS matmul; chunking over
    query rows keeps the temporary bounded without changing any bit.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape[1] != v.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape[1]} vs {v.shape[1]}")
    step = max(1, _DOT_CHUNK_ELEMS // max(1, v.shape[0] * v.shape[1]))
    out = np.empty((u.shape[0], v.shape[0]), dtype=np.float64)
    for start in range(0, u.shape[0], step):
        block = u[start : start + step]
        out[start : start + len(block)] = (block[:, None, :] * v[None, :, :]).sum(axis=-1)
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a float64 2-D array, shape (N, 1);
    a row at or below ``NORM_FLOOR`` raises :class:`ZeroNormError`."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if (norms <= NORM_FLOOR).any():
        raise ZeroNormError("zero-norm embedding")
    return norms


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale every row of a 2-D array to unit Euclidean norm."""
    x = np.asarray(x, dtype=np.float64)
    return x / _row_norms(x)


def normalize_backward(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient of row normalization: for u = x/|x|,
    dx = (du - u * <u, du>) / |x| row-wise."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    u = x / norms
    inner = (u * d_out).sum(axis=-1, keepdims=True)
    return (d_out - u * inner) / norms


def _as_square_scores(s, tau: float) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {s.shape}")
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    return s


def _diag_cross_entropy(logits: np.ndarray) -> float:
    # mean over rows of (logsumexp(row) - row diagonal), max-subtracted
    row_max = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - row_max).sum(axis=1)) + row_max[:, 0]
    return float((lse - np.diag(logits)).mean())


def info_nce_loss(s, tau: float) -> float:
    """Symmetric contrastive loss over a square similarity matrix whose
    diagonal holds the positive pairs."""
    scores = _as_square_scores(s, tau)
    logits = scores / tau
    return 0.5 * (_diag_cross_entropy(logits) + _diag_cross_entropy(logits.T))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def info_nce_backward(s, tau: float) -> np.ndarray:
    """dL/dS for :func:`info_nce_loss`:
    (P_row + P_col - 2I) / (2 N tau) with row/column softmaxes of S/tau."""
    scores = _as_square_scores(s, tau)
    n = scores.shape[0]
    logits = scores / tau
    p_row = _softmax_rows(logits)
    p_col = _softmax_rows(logits.T).T
    eye = np.eye(n)
    return (p_row + p_col - 2.0 * eye) / (2.0 * n * tau)


def _project(head: ProjectionHead, x: np.ndarray) -> np.ndarray:
    """Eval-mode forward of ``x`` in blocks of ``_EVAL_BLOCK_ROWS`` rows,
    the last one zero-padded, into one array of the head's dtype; 0 rows
    give a (0, d_out) array."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != head.d_in:
        raise ValueError(f"expected a batch of shape (N, {head.d_in}), got {x.shape}")
    n, rows = x.shape[0], _EVAL_BLOCK_ROWS
    y = np.empty((n, head.d_out), dtype=head.dtype)
    for start in range(0, n, rows):
        block = x[start : start + rows]
        if len(block) < rows:
            padded = np.zeros((rows, head.d_in), dtype=head.dtype)
            padded[: len(block)] = block
            block = padded
        # through the module global, so a wrapped head_forward sees each block
        out, _ = head_forward(head, block, training=False)
        y[start : start + rows] = out[: n - start]
    return y


def project_video(model: BindModel, x: np.ndarray) -> np.ndarray:
    """Eval-mode projection of raw video features."""
    return _project(model.video_head, x)


def project_audio(model: BindModel, x: np.ndarray) -> np.ndarray:
    """Eval-mode projection of raw audio features."""
    return _project(model.audio_head, x)
