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
used as stored. A training forward keeps the activations that backward
needs, so backward recomputes nothing. Adam updates each parameter and its
moments in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# The head's arrays in checkpoint order, the trainable subset that Adam
# updates, and the scalar hyperparameters (their defaults are the fields').
HEAD_BLOCKS = ("w1", "b1", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var", "w2", "b2")
PARAM_FIELDS = ("w1", "b1", "bn_gamma", "bn_beta", "w2", "b2")
HEAD_HYPERPARAMS = ("bn_momentum", "bn_eps", "dropout_p")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
            if not np.isfinite(getattr(self, name)).all():
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


def head_forward(
    head: ProjectionHead,
    x: np.ndarray,
    training: bool,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Project a batch into an array of the head's dtype. Training mode
    updates running stats in place and returns a cache for
    :func:`head_backward`; eval mode returns no cache and draws nothing
    from ``rng``."""
    x = np.asarray(x, dtype=head.dtype)
    if x.ndim != 2 or x.shape[1] != head.d_in:
        raise ValueError(f"expected batch of shape (N, {head.d_in}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("batch must contain at least one row")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input batch")

    pre_bn = x @ head.w1 + head.b1

    if training:
        batch_mean = pre_bn.mean(axis=0)
        batch_var = pre_bn.var(axis=0)  # biased, divisor N
        mom = head.bn_momentum
        head.bn_running_mean[...] = (1.0 - mom) * head.bn_running_mean + mom * batch_mean
        head.bn_running_var[...] = (1.0 - mom) * head.bn_running_var + mom * batch_var
    else:
        batch_mean = head.bn_running_mean
        batch_var = head.bn_running_var
    x_hat = (pre_bn - batch_mean) / np.sqrt(batch_var + head.bn_eps)

    z = head.bn_gamma * x_hat + head.bn_beta
    gate = z > 0  # bool unless dropout scales it: eval allocates one byte per unit
    if training and head.dropout_p > 0.0:
        if rng is None:
            raise ValueError("training forward with dropout needs an rng")
        keep = rng.random(z.shape) >= head.dropout_p
        gate = (gate & keep) * head.dtype.type(1.0 / (1.0 - head.dropout_p))
    dropped = z * gate

    y = dropped @ head.w2 + head.b2
    if not training:
        return y, None
    return y, ForwardCache(x=x, x_hat=x_hat, batch_var=batch_var, gate=gate, dropped=dropped)


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
                if not np.isfinite(moment).all():
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
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """One Adam update of ``param``, ``m`` and ``v``, in place.

    ``t`` is the 1-based step the update belongs to. The arithmetic runs in
    ``param``'s dtype: the moments are updated in place, and the step is
    formed in two scratch buffers before it is subtracted from ``param``.
    """
    g = np.asarray(grad, dtype=param.dtype)
    step = np.multiply(g, 1.0 - beta1)
    denom = np.multiply(g, 1.0 - beta2)
    denom *= g
    m *= beta1
    m += step
    v *= beta2
    v += denom
    # the buffers held the moment increments; now lr * m_hat and sqrt(v_hat) + eps, then the step
    np.divide(m, 1.0 - beta1**t, out=step)
    step *= lr
    np.divide(v, 1.0 - beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    param -= step


def apply_update(
    head: ProjectionHead, grads: dict[str, np.ndarray], moments: AdamState, t: int, lr: float
) -> None:
    """Adam-update every parameter in place as step ``t`` (1-based);
    running stats are untouched."""
    for name in PARAM_FIELDS:
        adam_step(getattr(head, name), grads[name], moments.m[name], moments.v[name], t, lr)
