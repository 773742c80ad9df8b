"""Mini-batch contrastive training, checkpointing, synthetic data.

Each step runs both heads forward in training mode on a paired batch,
normalizes, scores all NxN cosine pairs with one GEMM, applies the symmetric
contrastive loss, backpropagates exactly and Adam-updates both heads. The
heads compute in their own dtype; normalization, scores and loss run in
float64. The two heads share nothing but the scores, so their forwards run
at once, the video head's on a second thread, and so do their backwards and
their Adam updates. The second thread is the one worker that
:func:`avbinder.projection.worker_thread` opens, which serves a whole
``train`` run, the held-out evals' projections included; each task pair
goes through :func:`avbinder.projection.on_worker_and_caller`.
Normalization, scores and loss run on the caller's thread, and the dropout
uniforms are drawn there before either forward, so the threads change no
bit and no draw. The final partial batch of an epoch is dropped (batch
statistics and in-batch negatives degenerate on tiny remainders).

Checkpoint format (little-endian)::

    bytes 0-3   magic b"MVBM"
    bytes 4-7   version, uint32 (currently 1)
    bytes 8-11  temperature, float32
    bytes 12-27 four dims, uint32 each: video d_in, audio d_in, d_hid, d_out
    next        video head blocks, float32 row-major:
                  w1, b1, bn_gamma, bn_beta, bn_running_mean, bn_running_var, w2, b2
    next        audio head blocks, same order
    next        Adam first moments for (w1, b1, bn_gamma, bn_beta, w2, b2),
                video head then audio head
    next        Adam second moments, same order
    next        step counter, uint64
    next        seed, uint64
    next        uint32 length + canonical-JSON config echo (carries
                bn_momentum / bn_eps / dropout_p so eval is reproducible)

The block order and the hyperparameter names are ``projection.HEAD_BLOCKS``,
``PARAM_FIELDS`` and ``HEAD_HYPERPARAMS``. The writer is byte-deterministic
and atomic; (seed, config, dataset) fully determine the final checkpoint
bytes. The loader reads the open file through ``embedio.BinaryReader``:
every block is checked against the file's size before it is allocated and
then read straight into its array, so a load holds no copy of the file, and
any malformed or invalid content is a ``DataFormatError`` naming the file.
``eval`` and ``retrieve`` load without the Adam moments, which are read and
checked through one small buffer and then dropped.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .binder import (
    DEFAULT_TEMPERATURE,
    BindModel,
    info_nce_backward,
    info_nce_loss,
    l2_normalize_rows,
    normalize_backward,
    row_dots,  # noqa: F401  unused here; perfbench's train trace wraps training.row_dots
)
from .embedio import BinaryReader, EmbeddingMatrix, PairedDataset, _open_input, naming_file, write_atomic
from .errors import DataFormatError, DivergenceError, TruncatedPayloadError
from .projection import (
    HEAD_BLOCKS,
    HEAD_HYPERPARAMS,
    PARAM_FIELDS,
    AdamState,
    ProjectionHead,
    apply_update,
    as_batch,
    dropout_uniforms,
    head_backward,
    head_forward,
    on_worker_and_caller,
    worker_thread,
)
from .seeding import spawn_rng

CHECKPOINT_MAGIC = b"MVBM"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = "<fIIII"  # after magic and version: temperature, four dims
CHECKPOINT_TRAILER = "<QQI"  # step, seed, metadata length
HEAD_KEYS = ("video_head", "audio_head")  # metadata keys, video first as in the blocks
LOSS_CEILING = 1e4


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 50
    lr: float = 1e-3
    temperature: float = DEFAULT_TEMPERATURE
    seed: int = 0
    shuffle: bool = True
    eval_every: int = 0  # epochs between eval callbacks; 0 disables

    def __post_init__(self) -> None:
        for name in ("batch_size", "epochs", "eval_every"):
            if type(getattr(self, name)) is not int:  # a float would reach range() or the epoch test
                raise ValueError(f"{name} must be an integer")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if self.eval_every < 0:
            raise ValueError("eval_every must be non-negative")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:  # checkpoints store it as uint64
            raise ValueError("seed must be an integer in [0, 2**64)")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainState:
    """Adam moments for both heads, the step counter they share, and
    bookkeeping that rides along in checkpoints."""

    video_opt: AdamState
    audio_opt: AdamState
    step: int = 0  # optimizer steps taken; Adam's bias correction reads it
    seed: int = 0
    config: dict = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: BindModel, seed: int = 0, config: dict | None = None) -> "TrainState":
        return cls(
            video_opt=AdamState.for_head(model.video_head),
            audio_opt=AdamState.for_head(model.audio_head),
            seed=seed,
            config=dict(config or {}),
        )


def contrastive_loss_and_grads(
    model: BindModel,
    xv: np.ndarray,
    xa: np.ndarray,
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Training-mode forward through both heads and the full exact backward.

    Both batches are checked before either head's running stats change. The
    dropout uniforms are drawn from ``rng``, the video head's first, before
    the two forwards run on two threads; normalization, scores and loss run
    on this thread, and then the two heads' backwards on two threads.
    """
    video, audio = model.video_head, model.audio_head
    xv, xa = as_batch(video, xv), as_batch(audio, xa)
    uniforms_v = dropout_uniforms(video, len(xv), rng)
    uniforms_a = dropout_uniforms(audio, len(xa), rng)
    (yv, cache_v), (ya, cache_a) = on_worker_and_caller(
        partial(head_forward, video, xv, training=True, uniforms=uniforms_v),
        partial(head_forward, audio, xa, training=True, uniforms=uniforms_a),
    )
    u = l2_normalize_rows(yv)
    v = l2_normalize_rows(ya)
    scores = u @ v.T
    loss = info_nce_loss(scores, model.temperature)

    g_scores = info_nce_backward(scores, model.temperature)
    d_yv = normalize_backward(yv, g_scores @ v)
    d_ya = normalize_backward(ya, g_scores.T @ u)
    grads_v, grads_a = on_worker_and_caller(
        partial(head_backward, video, cache_v, d_yv),
        partial(head_backward, audio, cache_a, d_ya),
    )
    return loss, grads_v, grads_a


def train_step(
    model: BindModel,
    xv: np.ndarray,
    xa: np.ndarray,
    state: TrainState,
    lr: float,
    rng: np.random.Generator,
) -> float:
    """One optimization step on a paired batch; returns the pre-update loss.

    Batches that fail their checks raise ValueError before either head,
    Adam state or the step count changes. The two heads' updates run on two
    threads. Overflow and invalid values warn nothing: a loss they make
    non-finite raises :class:`DivergenceError`."""
    if len(xv) != len(xa):
        raise ValueError("video/audio batches must have equal size")
    if len(xv) < 2:
        raise ValueError("training batches need at least 2 pairs (no negatives otherwise)")
    with np.errstate(over="ignore", invalid="ignore"):  # the video thread runs in a copy of this context
        loss, grads_v, grads_a = contrastive_loss_and_grads(model, xv, xa, rng)
        if not np.isfinite(loss) or loss > LOSS_CEILING:
            raise DivergenceError(
                f"training diverged at step {state.step + 1}: loss={loss!r}"
            )
        state.step += 1
        on_worker_and_caller(
            partial(apply_update, model.video_head, grads_v, state.video_opt, state.step, lr),
            partial(apply_update, model.audio_head, grads_a, state.audio_opt, state.step, lr),
        )
    return loss


def train(
    model: BindModel,
    dataset: PairedDataset,
    cfg: TrainConfig,
    state: TrainState | None = None,
    eval_fn: Callable[[BindModel], None] | None = None,
) -> list[float]:
    """Train in place for ``cfg.epochs`` epochs of floor(count/batch) steps
    and return the per-step losses, each taken before its update. A
    non-finite loss, or a head that no longer loads after an epoch, raises
    :class:`DivergenceError`.

    ``eval_fn`` (if given, together with ``cfg.eval_every``) is called with
    the model every few epochs; train itself never sees validation pairs.
    """
    if dataset.count == 0:
        raise ValueError("empty dataset")
    if cfg.batch_size > dataset.count:
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds dataset count {dataset.count}"
        )
    if state is None:
        state = TrainState.for_model(model, seed=cfg.seed, config=cfg.as_dict())
    rng_shuffle = spawn_rng(cfg.seed, "shuffle")
    rng_dropout = spawn_rng(cfg.seed, "dropout")

    losses = []
    steps_per_epoch = dataset.count // cfg.batch_size
    xv_all = dataset.video.data
    xa_all = dataset.audio.data
    with worker_thread():  # every step's video-head tasks run on this one thread
        for epoch in range(1, cfg.epochs + 1):
            if cfg.shuffle:
                order = rng_shuffle.permutation(dataset.count)
            else:
                order = np.arange(dataset.count)
            for b in range(steps_per_epoch):
                idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                losses.append(train_step(model, xv_all[idx], xa_all[idx], state, cfg.lr, rng_dropout))
            try:  # a bad update shows in the next loss; an epoch's last must not reach an eval or a checkpoint
                model.video_head.check()
                model.audio_head.check()
            except ValueError as exc:
                raise DivergenceError(f"training diverged at step {state.step}: {exc}") from None
            if eval_fn is not None and cfg.eval_every > 0 and epoch % cfg.eval_every == 0:
                eval_fn(model)
    return losses


def gen_synthetic(
    n_pairs: int,
    latent_dim: int,
    noise: float,
    seed: int,
    dim: int = 1024,
) -> PairedDataset:
    """Linearly-bindable paired data: both modalities are fixed random
    linear images of a shared latent, plus isotropic noise."""
    if n_pairs < 1 or latent_dim < 1:
        raise ValueError("n_pairs and latent_dim must be positive")
    if not 0.0 <= noise < math.inf:
        raise ValueError("noise must be non-negative and finite")
    rng = spawn_rng(seed, "synthetic")
    z = rng.standard_normal((n_pairs, latent_dim))
    map_v = rng.standard_normal((latent_dim, dim))
    map_a = rng.standard_normal((latent_dim, dim))
    video = z @ map_v + noise * rng.standard_normal((n_pairs, dim))
    audio = z @ map_a + noise * rng.standard_normal((n_pairs, dim))
    ids = tuple(f"syn-{i:05d}" for i in range(n_pairs))
    return PairedDataset(
        video=EmbeddingMatrix(ids=ids, data=video),
        audio=EmbeddingMatrix(ids=ids, data=audio),
    )


def save_checkpoint(model: BindModel, state: TrainState, path) -> None:
    """Serialize model + optimizer state; byte-deterministic."""
    heads = (model.video_head, model.audio_head)
    if any(head.dtype != np.float32 for head in heads):
        raise ValueError("checkpoint format stores float32 heads only")
    meta = {key: {name: getattr(head, name) for name in HEAD_HYPERPARAMS}
            for key, head in zip(HEAD_KEYS, heads)}
    meta["config"] = state.config
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    video, audio = heads
    opts = (state.video_opt, state.audio_opt)
    blocks = [getattr(head, name) for head in heads for name in HEAD_BLOCKS]
    blocks += [getattr(opt, kind)[name] for kind in ("m", "v") for opt in opts for name in PARAM_FIELDS]
    write_atomic(path, [
        struct.pack("<4sI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
        struct.pack(CHECKPOINT_HEADER, model.temperature, video.d_in, audio.d_in, video.d_hid, video.d_out),
        *(np.ascontiguousarray(block, dtype="<f4") for block in blocks),
        struct.pack(CHECKPOINT_TRAILER, state.step, state.seed, len(meta_blob)),
        meta_blob,
    ])


def _block_shape(name: str, d_in: int, d_hid: int, d_out: int) -> tuple[int, ...]:
    return {"w1": (d_in, d_hid), "w2": (d_hid, d_out), "b2": (d_out,)}.get(name, (d_hid,))


def _moment_extremes(reader: BinaryReader, buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The minimum and maximum of each ``buffer``-sized piece of the next
    moment block, which is read and dropped. NaN and infinities reach the
    extremes, and so does any negative value, so these few values fail
    ``AdamState``'s checks exactly when the block would."""
    ends = [(piece.min(), piece.max()) for piece in reader.pieces(math.prod(shape), buffer)]
    return np.array(ends, dtype=buffer.dtype).reshape(-1)


def load_checkpoint(path, *, with_optimizer: bool = True) -> tuple[BindModel, TrainState | None]:
    """Inverse of :func:`save_checkpoint`, bit-exact.

    ``with_optimizer=False`` is the package's eval-only load, used by
    ``eval`` and ``retrieve``: the Adam moment blocks stream through one
    256 KiB buffer and are validated with the same checks, in the same
    order and with the same errors as a full load, but not kept, so the
    load holds about the heads' bytes. It returns ``(model, None)``.
    """
    source = Path(path).name
    with _open_input(path, source) as fh:
        reader = BinaryReader(fh, source)
        reader.expect(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        tau, d_in_v, d_in_a, d_hid, d_out = reader.unpack(CHECKPOINT_HEADER)
        heads = [
            {name: reader.array(_block_shape(name, d_in, d_hid, d_out)) for name in HEAD_BLOCKS}
            for d_in in (d_in_v, d_in_a)
        ]
        if with_optimizer:
            read_moment = reader.array
        else:  # every moment block streams through one 256 KiB buffer
            read_moment = partial(_moment_extremes, reader, np.empty(2**16, "<f4"))
        # first moments for both heads, then second moments, each block shaped
        # as the parameter it belongs to
        m, v = [
            [{name: read_moment(head[name].shape) for name in PARAM_FIELDS} for head in heads]
            for _ in ("m", "v")
        ]
        step, seed, meta_len = reader.unpack(CHECKPOINT_TRAILER)
        try:
            meta = json.loads(reader.take(meta_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise TruncatedPayloadError(f"{source}: corrupt checkpoint metadata") from exc
        reader.finish()
    if not isinstance(meta, dict) or not all(
        isinstance(meta.get(key, {}), dict) for key in (*HEAD_KEYS, "config")
    ):
        raise TruncatedPayloadError(f"{source}: checkpoint metadata is not a JSON object")

    hypers = []
    for key in HEAD_KEYS:
        missing = [f"{key}.{name}" for name in HEAD_HYPERPARAMS if name not in meta.get(key, {})]
        if missing:
            raise DataFormatError(f"{source}: checkpoint metadata lacks {', '.join(missing)}")
        try:
            hypers.append({name: float(meta[key][name]) for name in HEAD_HYPERPARAMS})
        except (TypeError, ValueError, OverflowError) as exc:
            raise TruncatedPayloadError(f"{source}: bad {key} metadata") from exc
    with naming_file(source):
        video_head, audio_head = (ProjectionHead(**b, **h) for b, h in zip(heads, hypers))
        model = BindModel(video_head=video_head, audio_head=audio_head, temperature=tau)
        state = TrainState(
            video_opt=AdamState(m=m[0], v=v[0]),
            audio_opt=AdamState(m=m[1], v=v[1]),
            step=step,
            seed=seed,
            config=meta.get("config", {}),
        )
    return model, state if with_optimizer else None
