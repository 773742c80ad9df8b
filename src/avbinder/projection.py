"""Per-modality projection network with hand-derived gradients.

Architecture, applied row-wise to a batch::

    linear(d_in -> d_hid) -> batchnorm -> ReLU -> dropout(p) -> linear(d_hid -> d_out)

Batch norm uses biased batch statistics (divisor N) in training and running
statistics at evaluation; dropout is inverted (survivors scaled by 1/(1-p))
so evaluation is the identity. ReLU and dropout together multiply the
batch-norm output by one gate: the ReLU mask, which a training forward with
dropout also multiplies by the keep mask and 1/(1-p). Backward multiplies
the upstream gradient by the same gate. The backward pass is exact,
including the dependence of the batch mean/variance on the inputs.

Parameters are stored in the head's dtype (float32 by default), and all
forward, backward and optimizer arithmetic runs in that dtype: the input
batch and the upstream gradient are cast to it once, and every weight is
used as stored. One forward serves both modes. It allocates the hidden
rows, their bool ReLU gate and the output up front and takes each step in
place, in the order of the formula, so its bits are those of a temporary
per step. Training copies the normalized rows once, to scale them, and
keeps them with the activations that backward needs, so backward
recomputes nothing; eval scales them in place and keeps nothing. Adam
updates each parameter and its moments in place, a cache-sized block at a
time.

Training and the eval projection (:mod:`avbinder.binder`) share one
two-thread helper: :func:`on_worker_and_caller` runs one task on the
worker thread that :func:`worker_thread` opens and another on the caller's.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, replace

import numpy as np

from .embedio import _all_finite

# The head's arrays in checkpoint order, the trainable subset that Adam
# updates, and the scalar hyperparameters (their defaults are the fields').
HEAD_BLOCKS = ("w1", "b1", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var", "w2", "b2")
PARAM_FIELDS = ("w1", "b1", "bn_gamma", "bn_beta", "w2", "b2")
HEAD_HYPERPARAMS = ("bn_momentum", "bn_eps", "dropout_p")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of adam_step, chosen by timing one update of a
# 1024->512->256 float32 head on a 2-core x86 host with 2 MiB of L2 per
# core: 2^16 took 2.2 ms, 2^15 2.2-2.3, 2^14 2.6, 2^17 2.5, 2^12 5.3 and
# whole arrays 2.8-3.1. Six float32 blocks (param, grad, both moments, two
# scratch buffers) take 1.5 MiB, so a block's operands stay in L2 between
# its passes.
_ADAM_BLOCK = 2**16


@dataclass
class ProjectionHead:
    w1: np.ndarray  # (d_in, d_hid)
    b1: np.ndarray  # (d_hid,)
    bn_gamma: np.ndarray  # (d_hid,)
    bn_beta: np.ndarray  # (d_hid,)
    bn_running_mean: np.ndarray  # (d_hid,)
    bn_running_var: np.ndarray  # (d_hid,)
    w2: np.ndarray  # (d_hid, d_out)
    b2: np.ndarray  # (d_out,)
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    dropout_p: float = 0.5

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        """Raise ValueError unless every hyperparameter is in range and every block is finite."""
        # 0 is admitted (frozen running stats) so the train-mode forward can
        # be a pure function of (head, batch) when dropout is off too
        if not 0.0 <= self.bn_momentum < 1.0:
            raise ValueError("bn_momentum must be in [0, 1)")
        if not 0.0 < self.bn_eps < math.inf:
            raise ValueError("bn_eps must be positive and finite")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        for name in HEAD_BLOCKS:
            if not _all_finite(getattr(self, name)):
                raise ValueError(f"non-finite values in {name}")
        if (self.bn_running_var < 0).any():
            raise ValueError("bn_running_var must be non-negative")

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_hid(self) -> int:
        return self.w1.shape[1]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.w1.dtype

    def copy(self) -> "ProjectionHead":
        return replace(self, **{name: getattr(self, name).copy() for name in HEAD_BLOCKS})


@dataclass
class ForwardCache:
    """Everything a training-mode backward pass needs, nothing recomputed."""

    x: np.ndarray
    x_hat: np.ndarray
    batch_var: np.ndarray
    gate: np.ndarray  # d dropped / d z: bool ReLU mask, or with dropout (mask & keep) / (1-p)
    dropped: np.ndarray  # the activations fed to linear-2


def init_head(
    seed: int,
    d_in: int = 1024,
    d_hid: int = 512,
    d_out: int = 256,
    dtype=np.float32,
    dropout_p: float = 0.5,
) -> ProjectionHead:
    """Glorot-uniform weights, zero biases, identity batch-norm state."""
    if min(d_in, d_hid, d_out) < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    bound1 = math.sqrt(6.0 / (d_in + d_hid))
    bound2 = math.sqrt(6.0 / (d_hid + d_out))
    return ProjectionHead(
        w1=rng.uniform(-bound1, bound1, (d_in, d_hid)).astype(dtype),
        b1=np.zeros(d_hid, dtype),
        bn_gamma=np.ones(d_hid, dtype),
        bn_beta=np.zeros(d_hid, dtype),
        bn_running_mean=np.zeros(d_hid, dtype),
        bn_running_var=np.ones(d_hid, dtype),
        w2=rng.uniform(-bound2, bound2, (d_hid, d_out)).astype(dtype),
        b2=np.zeros(d_out, dtype),
        dropout_p=dropout_p,
    )


def as_batch(head: ProjectionHead, x) -> np.ndarray:
    """``x`` cast to the head's dtype; ValueError unless it is a finite
    batch of shape (N, d_in) with N >= 1."""
    x = np.asarray(x, dtype=head.dtype)
    if x.ndim != 2 or x.shape[1] != head.d_in:
        raise ValueError(f"expected batch of shape (N, {head.d_in}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("batch must contain at least one row")
    if not _all_finite(x):
        raise ValueError("non-finite input batch")
    return x


def dropout_uniforms(head: ProjectionHead, rows: int, rng: np.random.Generator) -> np.ndarray | None:
    """The uniforms a training forward of ``rows`` rows compares with
    ``dropout_p``, drawn from ``rng``; None, with nothing drawn, when the
    head has no dropout."""
    if head.dropout_p == 0.0:
        return None
    return rng.random((rows, head.d_hid))


def head_forward(
    head: ProjectionHead,
    x: np.ndarray,
    training: bool,
    uniforms: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Project a batch into an array of the head's dtype. Training mode
    updates running stats in place and returns a cache for
    :func:`head_backward`. With dropout it compares ``uniforms``, drawn by
    :func:`dropout_uniforms`; missing or misshapen ones raise ValueError
    before anything changes. Eval mode returns no cache and takes no
    uniforms."""
    x = as_batch(head, x)
    dropout = training and head.dropout_p > 0.0
    if dropout:
        shape = None if uniforms is None else uniforms.shape
        if shape != (len(x), head.d_hid):
            raise ValueError(f"dropout uniforms of shape {shape}, want {(len(x), head.d_hid)}")

    n = len(x)
    h = np.empty((n, head.d_hid), head.dtype)
    gate = np.empty((n, head.d_hid), np.bool_)
    y = np.empty((n, head.d_out), head.dtype)
    np.matmul(x, head.w1, out=h)
    h += head.b1
    if training:
        mean = h.mean(axis=0)
        var = h.var(axis=0)  # biased, divisor N
        mom = head.bn_momentum
        head.bn_running_mean[...] = (1.0 - mom) * head.bn_running_mean + mom * mean
        head.bn_running_var[...] = (1.0 - mom) * head.bn_running_var + mom * var
    else:
        mean, var = head.bn_running_mean, head.bn_running_var
    h -= mean
    h /= np.sqrt(var + head.bn_eps)
    # training keeps h as x_hat for backward; eval scales it in place
    z = h * head.bn_gamma if training else np.multiply(h, head.bn_gamma, out=h)
    z += head.bn_beta
    np.greater(z, 0, out=gate)
    if dropout:
        gate &= uniforms >= head.dropout_p
        gate = gate * head.dtype.type(1.0 / (1.0 - head.dropout_p))
    z *= gate
    np.matmul(z, head.w2, out=y)
    y += head.b2
    return y, ForwardCache(x=x, x_hat=h, batch_var=var, gate=gate, dropped=z) if training else None


def head_backward(
    head: ProjectionHead, cache: ForwardCache, dy: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of sum(loss) with respect to the head's parameters,
    keyed by ``PARAM_FIELDS``. The gradient reaches the batch-norm output
    through the cached gate, the same ReLU-and-dropout factor the forward
    pass applied. The input batch gets no gradient: the features it holds
    are frozen.

    Reads ``bn_gamma``, ``bn_eps`` and ``w2`` from ``head``, so the head
    must not have been updated since the forward pass that filled
    ``cache``."""
    dy = np.asarray(dy, dtype=head.dtype)
    n = cache.x_hat.shape[0]
    if dy.shape != (n, head.d_out):
        raise ValueError(
            f"gradient shape {dy.shape} does not match cache batch ({n}, {head.d_out})"
        )

    db2 = dy.sum(axis=0)
    dw2 = cache.dropped.T @ dy
    d_dropped = dy @ head.w2.T
    dz = d_dropped * cache.gate

    dgamma = (dz * cache.x_hat).sum(axis=0)
    dbeta = dz.sum(axis=0)

    # Batch-norm backward through the batch statistics.
    dx_hat = dz * head.bn_gamma
    inv_std = 1.0 / np.sqrt(cache.batch_var + head.bn_eps)
    d_pre = (inv_std / n) * (
        n * dx_hat
        - dx_hat.sum(axis=0)
        - cache.x_hat * (dx_hat * cache.x_hat).sum(axis=0)
    )

    db1 = d_pre.sum(axis=0)
    dw1 = cache.x.T @ d_pre
    return {"w1": dw1, "b1": db1, "bn_gamma": dgamma, "bn_beta": dbeta, "w2": dw2, "b2": db2}


@dataclass
class AdamState:
    """First/second moment estimates per parameter, keyed by ``PARAM_FIELDS``."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        for kind in ("m", "v"):
            for name, moment in getattr(self, kind).items():
                if not _all_finite(moment):
                    raise ValueError(f"non-finite values in Adam moment {kind}[{name!r}]")
        if any((moment < 0).any() for moment in self.v.values()):
            raise ValueError("Adam second moments must be non-negative")

    @classmethod
    def for_head(cls, head: ProjectionHead) -> "AdamState":
        return cls(
            m={f: np.zeros_like(getattr(head, f)) for f in PARAM_FIELDS},
            v={f: np.zeros_like(getattr(head, f)) for f in PARAM_FIELDS},
        )


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    scratch: np.ndarray | None = None,
) -> None:
    """One Adam update of ``param``, ``m`` and ``v``, in place.

    ``t`` is the 1-based step the update belongs to. The arithmetic runs in
    ``param``'s dtype: the moments are updated in place, and the step is
    formed in two scratch buffers before it is subtracted from ``param``.
    The same elementwise sequence runs over flat blocks of ``_ADAM_BLOCK``
    elements, so each block's operands stay in cache between its passes and
    the scratch buffers hold one block, with every bit as over the whole
    array. ``param``, ``m`` and ``v`` must share ``grad``'s shape and be
    contiguous, so a flat view updates them. ``scratch``, two rows of
    ``param``'s dtype as long as a block or the whole array, is allocated
    here when not given.
    """
    g = np.asarray(grad, dtype=param.dtype)
    if not param.shape == g.shape == m.shape == v.shape:
        raise ValueError(f"Adam arrays differ in shape: {param.shape}, {g.shape}, {m.shape}, {v.shape}")
    g = g.reshape(-1)
    param, m, v = (a.reshape(-1, copy=False) for a in (param, m, v))
    if scratch is None:
        scratch = _adam_scratch(g.size, param.dtype)
    m_scale, v_scale = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    for start in range(0, g.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        gb, mb, vb = g[block], m[block], v[block]
        step, denom = scratch[:, : gb.size]
        np.multiply(gb, 1.0 - ADAM_BETA1, out=step)
        np.multiply(gb, 1.0 - ADAM_BETA2, out=denom)
        denom *= gb
        mb *= ADAM_BETA1
        mb += step
        vb *= ADAM_BETA2
        vb += denom
        # the buffers held the moment increments; now lr * m_hat and sqrt(v_hat) + eps, then the step
        np.divide(mb, m_scale, out=step)
        step *= lr
        np.divide(vb, v_scale, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        param[block] -= step


def apply_update(
    head: ProjectionHead, grads: dict[str, np.ndarray], moments: AdamState, t: int, lr: float
) -> None:
    """Adam-update every parameter in place as step ``t`` (1-based), all
    through one scratch pair; running stats are untouched."""
    scratch = _adam_scratch(max(getattr(head, name).size for name in PARAM_FIELDS), head.dtype)
    for name in PARAM_FIELDS:
        adam_step(getattr(head, name), grads[name], moments.m[name], moments.v[name], t, lr, scratch)


def _adam_scratch(size: int, dtype) -> np.ndarray:
    """The two scratch rows of :func:`adam_step` for arrays of up to ``size`` elements."""
    return np.empty((2, min(size, _ADAM_BLOCK)), dtype)


_WORKER: contextvars.ContextVar = contextvars.ContextVar("worker_thread", default=None)


@contextlib.contextmanager
def worker_thread():
    """Open a one-thread pool for :func:`on_worker_and_caller`'s first
    tasks; leaving the ``with`` block joins its thread, also on an error.

    ``train`` holds one for its whole run, and ``eval`` and ``retrieve``
    one for both their projections. A thread per task pair costs more:
    OpenBLAS sets up each new calling thread's buffers, and with more than
    one BLAS thread two new callers at once slowed a step about twofold.
    The pool starts its thread at the first task, so a command whose
    projections are single blocks starts none.
    """
    # imported here, not at the top: concurrent.futures loads logging (about
    # 7 ms), and `import avbinder.cli` loads neither
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        token = _WORKER.set(pool)
        try:
            yield
        finally:
            _WORKER.reset(token)


def on_worker_and_caller(worker_task, caller_task):
    """``(worker_task(), caller_task())``, the first run on the open
    :func:`worker_thread`, or on one opened and joined for this call, and
    the second on this thread.

    The worker's task runs in a copy of this thread's context, so numpy's
    ``errstate`` holds for both tasks. This returns or raises once both
    tasks have ended, or on an interrupt; if both raise, the worker task's
    exception propagates, with the caller task's as its ``__context__``.
    """
    pool = _WORKER.get()
    if pool is None:
        with worker_thread():
            return on_worker_and_caller(worker_task, caller_task)
    future = pool.submit(contextvars.copy_context().run, worker_task)
    try:
        caller = caller_task()
    finally:  # an interrupt during this wait leaves it to the pool's join
        worker = future.result()
    return worker, caller
