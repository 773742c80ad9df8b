"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def make_bordered_frame(phase: float, height: int, width: int, borders_px) -> np.ndarray:
    """One gray frame: black borders around band-limited 16-level content.

    The content is a quantized smooth wave, so its Otsu binarization is a
    single flat region and only the border boundaries produce edges; the
    phase varies it frame to frame.
    """
    top, bottom, left, right = borders_px
    img = np.zeros((height, width), np.uint8)
    ch, cw = height - top - bottom, width - left - right
    yy, xx = np.mgrid[0:ch, 0:cw]
    wave = np.sin(xx / 17.0 + phase) + np.cos(yy / 23.0 + 0.7 * phase)
    levels = np.floor((wave + 2.0) / 4.0 * 16).clip(0, 15)
    img[top : height - bottom, left : width - right] = (110 + 3 * levels).astype(np.uint8)
    return img


def make_clip(borders_px, n_frames: int = 10, height: int = 144, width: int = 192):
    return [make_bordered_frame(0.31 * i, height, width, borders_px) for i in range(n_frames)]


def uniform_histogram_frame(side: int = 128) -> np.ndarray:
    """Every intensity occurs equally often: histogram std is exactly 0."""
    assert (side * side) % 256 == 0
    return np.tile(np.arange(256, dtype=np.uint8), side * side // 256).reshape(side, side)


def otsu_exhaustive(img: np.ndarray) -> int:
    """Independent exhaustive Otsu: python-int arithmetic over all 256
    thresholds, between-class variance compared exactly as rationals."""
    counts = np.bincount(img.ravel(), minlength=256).tolist()
    total = sum(counts)
    total_sum = sum(i * c for i, c in enumerate(counts))
    best_t = 0
    best_num, best_den = 0, 1
    for t in range(256):
        n0 = sum(counts[: t + 1])
        s0 = sum(i * counts[i] for i in range(t + 1))
        n1 = total - n0
        s1 = total_sum - s0
        if n0 == 0 or n1 == 0:
            continue
        num = (s0 * n1 - s1 * n0) ** 2
        den = n0 * n1
        if num * best_den > best_num * den:
            best_num, best_den, best_t = num, den, t
    return best_t


def sobel_naive(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 3x3 correlation with replicate padding, plain python loops."""
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    h, w = img.shape
    gx = np.zeros((h, w), np.int64)
    gy = np.zeros((h, w), np.int64)
    for y in range(h):
        for x in range(w):
            sx = sy = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    sx += kx[dy + 1][dx + 1] * int(img[yy, xx])
                    sy += ky[dy + 1][dx + 1] * int(img[yy, xx])
            gx[y, x] = sx
            gy[y, x] = sy
    return gx, gy


def luma_float64(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luma as the float64 expression ``floor(0.299*R + 0.587*G +
    0.114*B + 0.5)``, evaluated left to right, as uint8."""
    luma = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
    return np.floor(luma + 0.5).astype(np.uint8)


def all_rgb_triples(red: range) -> np.ndarray:
    """Every (R, G, B) with R in ``red``, as a (len(red) * 256, 256, 3)
    uint8 image: R by row block, G by row, B by column."""
    r, g, b = np.meshgrid(np.asarray(red, np.uint8), np.arange(256, dtype=np.uint8),
                          np.arange(256, dtype=np.uint8), indexing="ij")
    return np.stack([r, g, b], axis=-1).reshape(-1, 256, 3)


def topk_full_sort(ids, scores, k: int):
    """Reference top-k: full sort by (-score, id)."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order[:k]]


def projected_pairs(model, val):
    """``val`` with each side through its head's eval-mode projection, the
    projected pairs that ``recall_at_k`` scores."""
    from avbinder.binder import project_audio, project_video
    from avbinder.embedio import EmbeddingMatrix, PairedDataset

    return PairedDataset(
        video=EmbeddingMatrix(val.ids, project_video(model, val.video.data)),
        audio=EmbeddingMatrix(val.ids, project_audio(model, val.audio.data)),
    )


def load_outcome(path, **kwargs):
    """``load_checkpoint(path, **kwargs)`` as a comparable value: the
    exception class and message of a failed load, or every head block's
    bytes and the temperature of a good one."""
    from avbinder.errors import DataFormatError
    from avbinder.projection import HEAD_BLOCKS
    from avbinder.training import load_checkpoint

    try:
        model, _ = load_checkpoint(path, **kwargs)
    except DataFormatError as exc:
        return type(exc), str(exc)
    blocks = [getattr(h, n) for h in (model.video_head, model.audio_head) for n in HEAD_BLOCKS]
    return b"".join(block.tobytes() for block in blocks) + np.float32(model.temperature).tobytes()


def pls_projected_pairs(train, val, components: int = 32):
    """``val`` through the closed-form reference binder, partial least
    squares: each side is centred by its train mean and projected onto the
    top ``components`` singular vectors of the centred train
    cross-covariance (left for video, right for audio). These are the
    projected pairs that ``recall_at_k`` scores."""
    from avbinder.embedio import EmbeddingMatrix, PairedDataset

    xv, xa = train.video.data.astype(np.float64), train.audio.data.astype(np.float64)
    mv, ma = xv.mean(axis=0), xa.mean(axis=0)
    u, _, vt = np.linalg.svd((xv - mv).T @ (xa - ma), full_matrices=False)
    return PairedDataset(
        video=EmbeddingMatrix(val.ids, (val.video.data - mv) @ u[:, :components]),
        audio=EmbeddingMatrix(val.ids, (val.audio.data - ma) @ vt[:components].T),
    )


def abs_latent_split(seed: int):
    """(train, held-out) pairs of a task no linear map can bind: a latent
    z ~ N(0, I_32), video = z Mv + n and audio = |z| Ma + n, with 1024-d
    standard Gaussian maps and noise (σ = 1). z and |z| are uncorrelated, so
    the two sides have no cross-covariance to bind. 2500 pairs, the last 500
    held out."""
    from avbinder.embedio import EmbeddingMatrix, PairedDataset

    rng = np.random.default_rng(seed)
    pairs, latent_dim, dim = 2500, 32, 1024
    z = rng.standard_normal((pairs, latent_dim))
    video = z @ rng.standard_normal((latent_dim, dim)) + rng.standard_normal((pairs, dim))
    audio = np.abs(z) @ rng.standard_normal((latent_dim, dim)) + rng.standard_normal((pairs, dim))
    ids = tuple(f"abs-{i:05d}" for i in range(pairs))
    data = PairedDataset(video=EmbeddingMatrix(ids, video), audio=EmbeddingMatrix(ids, audio))
    return data.take(range(pairs - 500)), data.take(range(pairs - 500, pairs))


def write_integer_search_fixture(root, seed: int = 4, pairs: int = 40):
    """Checkpoint plus paired MVBE files whose projections are exact integers.

    Both heads have small integer weights, zero biases, zero running mean
    and running variance + eps = 1, so an integer feature row projects to an
    integer row whatever order BLAS sums in. Features are quantized to
    -1..2 with duplicated and doubled rows, and ids are shuffled against row
    order, so the printed rankings lean on exact ties and on the id
    tie-break. Returns the file paths by name.
    """
    from avbinder.binder import BindModel
    from avbinder.embedio import EmbeddingMatrix, save_embeddings
    from avbinder.projection import ProjectionHead
    from avbinder.training import TrainState, save_checkpoint

    rng = np.random.default_rng(seed)
    d_in, d_hid, d_out = 10, 12, 6

    def head():
        zeros = np.zeros(d_hid, np.float32)
        return ProjectionHead(
            w1=rng.integers(-2, 3, (d_in, d_hid)).astype(np.float32),
            b1=zeros.copy(),
            bn_gamma=np.ones(d_hid, np.float32),
            bn_beta=zeros.copy(),
            bn_running_mean=zeros.copy(),
            bn_running_var=zeros.copy(),
            w2=rng.integers(-2, 3, (d_hid, d_out)).astype(np.float32),
            b2=np.zeros(d_out, np.float32),
            bn_eps=1.0,
        )

    model = BindModel(video_head=head(), audio_head=head(), temperature=0.07)
    video = rng.integers(-1, 3, (pairs, d_in)).astype(np.float32)
    audio = rng.integers(-1, 3, (pairs, d_in)).astype(np.float32)
    video[::6] = video[1]
    audio[::5] = audio[2]
    audio[3::7] = 2 * audio[4]
    ids = tuple(f"t{p:03d}" for p in rng.permutation(pairs))

    root = Path(root)
    paths = {
        "ckpt": root / "int.mvbm",
        "video": root / "int_video.mvbe",
        "audio": root / "int_audio.mvbe",
    }
    save_checkpoint(model, TrainState.for_model(model), paths["ckpt"])
    save_embeddings(EmbeddingMatrix(ids=ids, data=video), paths["video"])
    save_embeddings(EmbeddingMatrix(ids=ids, data=audio), paths["audio"])
    return paths


def write_float_search_fixture(root, seed: int = 11, pairs: int = 64, dim: int = 16):
    """Checkpoint plus paired MVBE files with gaussian projections that
    carry planted near-ties 1e-7 to 1e-5 apart in score.

    Both heads compute y = relu(x) @ P - relu(-x) @ P for one signed
    permutation P (w1 = [I, -I], identity batch norm, w2 = [P; -P]), so
    every output is one input coordinate, sign-flipped or not, and the
    projection is exact whatever order BLAS sums in. Some audio rows are
    copies of others scaled coordinate-wise by 1 + eps * noise, so their
    scores against a query sit a few float32 ulps apart and search must
    rescore them. Returns the file paths by name.
    """
    from avbinder.binder import BindModel
    from avbinder.embedio import EmbeddingMatrix, save_embeddings
    from avbinder.projection import ProjectionHead
    from avbinder.training import TrainState, save_checkpoint

    rng = np.random.default_rng(seed)
    perm = np.zeros((dim, dim), np.float32)
    perm[np.arange(dim), rng.permutation(dim)] = rng.choice([-1.0, 1.0], dim)
    eye = np.eye(dim, dtype=np.float32)

    def head():
        zeros = np.zeros(2 * dim, np.float32)
        return ProjectionHead(
            w1=np.concatenate([eye, -eye], axis=1),
            b1=zeros.copy(),
            bn_gamma=np.ones(2 * dim, np.float32),
            bn_beta=zeros.copy(),
            bn_running_mean=zeros.copy(),
            bn_running_var=zeros.copy(),
            w2=np.concatenate([perm, -perm], axis=0),
            b2=np.zeros(dim, np.float32),
            bn_eps=1.0,
        )

    model = BindModel(video_head=head(), audio_head=head(), temperature=0.07)
    audio = rng.standard_normal((pairs, dim))
    video = audio + 0.4 * rng.standard_normal((pairs, dim))
    for eps, rows in ((1e-5, range(1, 16, 3)), (1e-6, range(2, 40, 3)), (1e-7, range(40, pairs, 3))):
        for j in rows:
            audio[j] = audio[j - 1] * (1.0 + eps * rng.standard_normal(dim))
    video[50:56] = video[49] * (1.0 + 1e-6 * rng.standard_normal((6, dim)))
    ids = tuple(f"f{p:03d}" for p in rng.permutation(pairs))

    root = Path(root)
    paths = {
        "ckpt": root / "float.mvbm",
        "video": root / "float_video.mvbe",
        "audio": root / "float_audio.mvbe",
    }
    save_checkpoint(model, TrainState.for_model(model), paths["ckpt"])
    save_embeddings(EmbeddingMatrix(ids=ids, data=video.astype(np.float32)), paths["video"])
    save_embeddings(EmbeddingMatrix(ids=ids, data=audio.astype(np.float32)), paths["audio"])
    return paths


# (argv template, sha256 of stdout) captured before search moved to the
# screened path; every retrieve row and every eval figure must stay the same
INTEGER_FIXTURE_GOLDEN = (
    (["retrieve", "--checkpoint", "{ckpt}", "--queries", "{video}", "--candidates", "{audio}",
      "--k", "5"],
     "65967bad36690030baccaf96270570feffcaf105d62a060a18bb611935cb4082"),
    (["retrieve", "--checkpoint", "{ckpt}", "--queries", "{audio}", "--candidates", "{video}",
      "--k", "50", "--direction", "a2v"],
     "0b682755ad98a700830d12b54f899626ad58d684afb58e88742834337da0dd70"),
    (["eval", "--checkpoint", "{ckpt}", "--video", "{video}", "--audio", "{audio}",
      "--k", "1,2,5,40"],
     "f584163a308b134559b8fb1a3d5b5d264dd55e5ed9a56ef01d8dc337ddb12d02"),
    (["eval", "--checkpoint", "{ckpt}", "--video", "{video}", "--audio", "{audio}",
      "--k", "1,3,10", "--direction", "a2v", "--format", "line"],
     "b7e4cd82826a365575008f1634996ea276dfa47877b44f99edc3377f5013383a"),
)


# (argv template, sha256 of stdout) of the float fixture, captured while
# search still screened with float64 GEMMs; the float32 screen must print
# the same bytes
FLOAT_FIXTURE_GOLDEN = (
    (["retrieve", "--checkpoint", "{ckpt}", "--queries", "{video}", "--candidates", "{audio}",
      "--k", "10"],
     "07835f2e1d298444772e2642d6dfc5dacdc93050d46fd9eb8f9f8f23550f238e"),
    (["retrieve", "--checkpoint", "{ckpt}", "--queries", "{audio}", "--candidates", "{video}",
      "--k", "10", "--direction", "a2v"],
     "62c19479c0b4c26ca7fb8fb0fe60eb60bba502832d9d2ea3ab203d8a238105e3"),
    (["eval", "--checkpoint", "{ckpt}", "--video", "{video}", "--audio", "{audio}",
      "--k", "1,5,10"],
     "9d77c7031b8894f0c862913504a3da5915dd9e422fc68f7148810c66fa222152"),
    (["eval", "--checkpoint", "{ckpt}", "--video", "{video}", "--audio", "{audio}",
      "--k", "1,5,10", "--direction", "a2v"],
     "a80aa198c7e7ec85ca812dbb1466e15dc0fde8dfd536ec023024acd78ec4f895"),
)

# --- reference training step -------------------------------------------------
# The projection-head step as first written, in the head's dtype: forward
# and backward each cast the weights, backward recomputes the activations
# from the cache, and Adam works on fresh arrays that are cast back on
# write. The production step caches and updates in place instead; it must
# give the same bits, so these formulas stay as they were.


def reference_head_forward(head, x, rng):
    """Training-mode forward with dropout on; updates the running stats,
    returns (y, cache)."""
    dtype = head.dtype
    x = np.asarray(x, dtype=dtype)
    w1 = head.w1.astype(dtype)
    w2 = head.w2.astype(dtype)
    pre_bn = x @ w1 + head.b1.astype(dtype)
    batch_mean = pre_bn.mean(axis=0)
    batch_var = pre_bn.var(axis=0)
    x_hat = (pre_bn - batch_mean) / np.sqrt(batch_var + head.bn_eps)
    mom = head.bn_momentum
    new_mean = (1.0 - mom) * head.bn_running_mean.astype(dtype) + mom * batch_mean
    new_var = (1.0 - mom) * head.bn_running_var.astype(dtype) + mom * batch_var
    head.bn_running_mean[...] = new_mean.astype(head.dtype)
    head.bn_running_var[...] = new_var.astype(head.dtype)
    z = head.bn_gamma.astype(dtype) * x_hat + head.bn_beta.astype(dtype)
    relu_mask = z > 0
    hidden = z * relu_mask
    mask = rng.random(hidden.shape) >= head.dropout_p
    scale = 1.0 / (1.0 - head.dropout_p)
    dropped = hidden * mask * scale
    y = dropped @ w2 + head.b2.astype(dtype)
    cache = {"x": x, "batch_var": batch_var, "x_hat": x_hat, "relu_mask": relu_mask,
             "mask": mask, "scale": scale}
    return y, cache


def reference_head_backward(head, cache, dy):
    """Parameter gradients, by name, of sum(dy * y)."""
    dtype = head.dtype
    dy = np.asarray(dy, dtype=dtype)
    n = dy.shape[0]
    gamma = head.bn_gamma.astype(dtype)
    z = gamma * cache["x_hat"] + head.bn_beta.astype(dtype)
    hidden = z * cache["relu_mask"]
    dropped = hidden * cache["mask"] * cache["scale"]
    db2 = dy.sum(axis=0)
    dw2 = dropped.T @ dy
    d_dropped = dy @ head.w2.astype(dtype).T
    d_hidden = d_dropped * cache["mask"] * cache["scale"]
    dz = d_hidden * cache["relu_mask"]
    dgamma = (dz * cache["x_hat"]).sum(axis=0)
    dbeta = dz.sum(axis=0)
    dx_hat = dz * gamma
    inv_std = 1.0 / np.sqrt(cache["batch_var"] + head.bn_eps)
    x_hat = cache["x_hat"]
    d_pre = (inv_std / n) * (n * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
    return {"w1": cache["x"].T @ d_pre, "b1": d_pre.sum(axis=0), "bn_gamma": dgamma,
            "bn_beta": dbeta, "w2": dw2, "b2": db2}


def reference_adam_step(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update in ``param``'s dtype; returns (param, m, v) as new
    arrays."""
    dtype = param.dtype
    g = np.asarray(grad, dtype=dtype)
    m = beta1 * np.asarray(m, dtype=dtype) + (1.0 - beta1) * g
    v = beta2 * np.asarray(v, dtype=dtype) + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    param = np.asarray(param, dtype=dtype) - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


def reference_train_step(model, xv, xa, state, lr, rng) -> float:
    """One contrastive step on (model, state) in place; returns the loss.
    Both heads must have dropout on.

    The loss and its score gradient come from :mod:`avbinder.binder`; only
    the heads' forward, backward and Adam are the reference formulas.
    """
    from avbinder.binder import (
        info_nce_backward,
        info_nce_loss,
        l2_normalize_rows,
        normalize_backward,
    )

    yv, cache_v = reference_head_forward(model.video_head, xv, rng)
    ya, cache_a = reference_head_forward(model.audio_head, xa, rng)
    u, v = l2_normalize_rows(yv), l2_normalize_rows(ya)
    scores = u @ v.T
    loss = info_nce_loss(scores, model.temperature)
    g_scores = info_nce_backward(scores, model.temperature)
    d_yv = normalize_backward(yv, g_scores @ v)
    d_ya = normalize_backward(ya, g_scores.T @ u)
    grads_v = reference_head_backward(model.video_head, cache_v, d_yv)
    grads_a = reference_head_backward(model.audio_head, cache_a, d_ya)
    state.step += 1
    for head, grads, opt in ((model.video_head, grads_v, state.video_opt),
                             (model.audio_head, grads_a, state.audio_opt)):
        for name, grad in grads.items():
            param = getattr(head, name)
            new_p, new_m, new_v = reference_adam_step(param, grad, opt.m[name], opt.v[name], state.step, lr)
            param[...] = new_p.astype(head.dtype)
            opt.m[name][...] = new_m.astype(opt.m[name].dtype)
            opt.v[name][...] = new_v.astype(opt.v[name].dtype)
    return loss
