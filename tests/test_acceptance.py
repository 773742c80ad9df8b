"""Acceptance suite: one criterion per test, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from copy import deepcopy

import numpy as np

from helpers import make_clip, otsu_exhaustive, projected_pairs, sobel_naive, topk_full_sort, uniform_histogram_frame

from avbinder.binder import BindModel, l2_normalize_rows, row_dots
from avbinder.embedio import SplitSpec, load_embeddings, save_embeddings, split_dataset
from avbinder.projection import PARAM_FIELDS, dropout_uniforms, init_head, head_backward, head_forward
from avbinder.retrieval import (
    DIRECTION_V2A,
    build_index,
    recall_at_k,
    recall_from_projections,
    retrieve_topk,
)
from avbinder.borders import detect_crop_rect, otsu_threshold, sobel_edges
from avbinder.kernels import hist256
from avbinder.seeding import derive_seed
from avbinder.training import (
    TrainConfig,
    TrainState,
    contrastive_forward,
    gen_synthetic,
    load_checkpoint,
    save_checkpoint,
    train,
)
from avbinder.binder import info_nce_loss


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS — {detail}")


def test_criterion_1_end_to_end_gradients():
    """Analytic gradients through heads -> normalize -> cosine -> symmetric
    contrastive loss match central finite differences, max rel err < 1e-4."""
    started = time.perf_counter()
    data_seed, mask_seed, step = 17, 77, 1e-5
    rng = np.random.default_rng(data_seed)
    model = BindModel(
        video_head=init_head(data_seed + 1, 16, 8, 4, dtype=np.float64),
        audio_head=init_head(data_seed + 2, 16, 8, 4, dtype=np.float64),
        temperature=0.07,
    )
    xv = rng.standard_normal((5, 16))
    xa = rng.standard_normal((5, 16))

    # validate the configuration: no degenerate rows, perturbations stay
    # clear of the ReLU kink
    probe = deepcopy(model)
    mask_rng = np.random.default_rng(mask_seed)
    uniforms_v = dropout_uniforms(probe.video_head, len(xv), mask_rng)
    uniforms_a = dropout_uniforms(probe.audio_head, len(xa), mask_rng)
    yv, cv = head_forward(probe.video_head, xv, training=True, uniforms=uniforms_v)
    ya, ca = head_forward(probe.audio_head, xa, training=True, uniforms=uniforms_a)
    assert min(np.linalg.norm(yv, axis=1).min(), np.linalg.norm(ya, axis=1).min()) > 0.3
    for head, cache in ((probe.video_head, cv), (probe.audio_head, ca)):
        assert np.abs(head.bn_gamma * cache.x_hat + head.bn_beta).min() > 100 * step

    def loss_of(m):
        value, _, _ = contrastive_forward(
            deepcopy(m), xv, xa, np.random.default_rng(mask_seed)
        )
        return value

    stepped = deepcopy(model)
    _, (cache_v, d_yv), (cache_a, d_ya) = contrastive_forward(
        stepped, xv, xa, np.random.default_rng(mask_seed)
    )
    grads_v = head_backward(stepped.video_head, cache_v, d_yv)
    grads_a = head_backward(stepped.audio_head, cache_a, d_ya)
    worst = 0.0
    for side, grads in (("video_head", grads_v), ("audio_head", grads_a)):
        for name in PARAM_FIELDS:
            analytic = grads[name]
            fd = np.zeros_like(analytic)
            it = np.nditer(analytic, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                up = deepcopy(model)
                getattr(getattr(up, side), name)[ix] += step
                down = deepcopy(model)
                getattr(getattr(down, side), name)[ix] -= step
                fd[ix] = (loss_of(up) - loss_of(down)) / (2 * step)
            rel = np.abs(analytic - fd) / np.maximum(
                np.maximum(np.abs(analytic), np.abs(fd)), 1e-6
            )
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 10.0
    report(1, f"end-to-end gradients match finite differences (max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_loss_oracles():
    v1 = info_nce_loss(np.array([[0.42]]), 0.07)
    assert v1 == 0.0
    v2 = info_nce_loss(np.eye(2), 1.0)
    assert abs(v2 - 0.313262) <= 1e-6
    v3 = info_nce_loss(np.full((4, 4), 0.25), 0.33)
    assert abs(v3 - np.log(4.0)) <= 1e-9
    report(2, f"loss oracles reproduced (N=1: {v1}, N=2 identity: {v2:.6f}, N=4 constant: {v3:.9f})")


def test_criterion_3_synthetic_binding():
    """Trained Recall@1 >= 20x chance and >= 5x the untrained model;
    Recall@10 >= 50x chance; all under the default training config."""
    started = time.perf_counter()
    seed = 0
    data = gen_synthetic(2500, 32, 0.1, seed=seed)
    train_set, val_set = split_dataset(
        data, SplitSpec(n_val=500, seed=derive_seed(seed, "split"))
    )
    assert train_set.count == 2000 and val_set.count == 500
    chance = 1.0 / 500.0

    model = BindModel(
        video_head=init_head(derive_seed(seed, "video-head"), d_in=1024),
        audio_head=init_head(derive_seed(seed, "audio-head"), d_in=1024),
        temperature=0.07,
    )
    untrained = recall_at_k(projected_pairs(model, val_set), ks=[1, 10]).recall
    train(model, train_set, TrainConfig(seed=seed))
    trained = recall_at_k(projected_pairs(model, val_set), ks=[1, 10]).recall
    elapsed = time.perf_counter() - started

    assert trained[1] >= 20 * chance
    assert trained[1] >= 5 * untrained[1]
    assert trained[10] >= 50 * chance
    assert elapsed < 300.0
    report(
        3,
        f"synthetic binding: R@1 {untrained[1]:.1%} -> {trained[1]:.1%}, "
        f"R@10 {untrained[10]:.1%} -> {trained[10]:.1%} ({elapsed:.0f}s)",
    )


def test_criterion_4_recall_harness_exactness():
    rng = np.random.default_rng(123)
    checked_reports = 0
    for instance in range(50):
        n = 200
        # quantized coordinates and duplicated rows force exact ties
        yq = rng.integers(-2, 3, (n, 8)).astype(np.float64)
        yc = rng.integers(-2, 3, (n, 8)).astype(np.float64)
        yq[yq.sum(axis=1) == 0, 0] += 1.0
        yc[yc.sum(axis=1) == 0, 0] += 1.0
        yc[::11] = yc[5]
        ids = tuple(f"q{i:04d}" for i in range(n))
        ids_arr = np.array(ids)

        u = yq / np.linalg.norm(yq, axis=1, keepdims=True)
        v = yc / np.linalg.norm(yc, axis=1, keepdims=True)
        scores = np.clip(row_dots(u, v), -1.0, 1.0)

        ks = [1, 3, 10, 50, 200]
        got = recall_from_projections(yq, yc, ids, ks, DIRECTION_V2A)
        hits = {k: 0 for k in ks}
        for i in range(n):
            order = sorted(range(n), key=lambda j: (-scores[i, j], ids_arr[j]))
            rank = order.index(i) + 1
            for k in ks:
                hits[k] += rank <= k
        for k in ks:
            assert got.recall[k] == hits[k] / n, (instance, k)
        values = [got.recall[k] for k in ks]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert got.recall[200] == 1.0
        checked_reports += 1

        if instance % 10 == 0:
            from avbinder.embedio import EmbeddingMatrix

            idx = build_index(
                EmbeddingMatrix(ids=ids, data=yc.astype(np.float32))
            )
            nq = yq[7] / np.linalg.norm(yq[7])
            qscores = np.clip(row_dots(nq[None, :], l2_normalize_rows(idx.rows))[0], -1.0, 1.0)
            assert list(retrieve_topk(idx, yq[7], k=10).items) == topk_full_sort(
                ids, qscores, 10
            )
    report(4, f"recall harness exact vs full-sort oracle on {checked_reports} instances incl. ties")


def test_criterion_5_otsu_and_sobel_oracles():
    rng = np.random.default_rng(7)
    for _ in range(100):
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        assert otsu_threshold(hist256(img)) == otsu_exhaustive(img)
    for _ in range(25):
        img = rng.integers(0, 256, (9, 9)).astype(np.uint8)
        gx, gy = sobel_edges(img)
        ex, ey = sobel_naive(img)
        assert np.array_equal(gx.astype(np.int64), ex)
        assert np.array_equal(gy.astype(np.int64), ey)
    report(5, "otsu exact on 100 random images; sobel exact vs naive correlation on 25")


def test_criterion_6_border_detection_fixture():
    height, width = 144, 192
    layouts = {
        0: (0, 0, 0, 0),
        5: (5, 5, 0, 0),
        20: (20, 20, 20, 20),
        40: (0, 0, 40, 40),
    }
    timings = []
    for w_px, (top, bottom, left, right) in layouts.items():
        frames = make_clip((top, bottom, left, right), height=height, width=width)
        started = time.perf_counter()
        rect = detect_crop_rect(frames)
        timings.append(time.perf_counter() - started)
        assert abs(rect.top - top) <= 2, w_px
        assert abs(rect.left - left) <= 2, w_px
        assert abs(rect.right - (width - right)) <= 2, w_px
        assert abs(rect.bottom - (height - bottom)) <= 2, w_px
        assert timings[-1] < 5.0

    borderless = detect_crop_rect([uniform_histogram_frame()] * 10)
    assert (borderless.left, borderless.top, borderless.right, borderless.bottom) == (0, 0, 128, 128)
    report(
        6,
        f"borders within ±2 px for widths {sorted(layouts)}; borderless clip -> full frame "
        f"(max {max(timings):.2f}s per clip)",
    )


def test_criterion_7_determinism_and_persistence(tmp_path):
    checkpoints = []
    for run_idx in range(2):
        seed = 21
        data = gen_synthetic(120, 8, 0.1, seed=seed, dim=64)
        model = BindModel(
            video_head=init_head(derive_seed(seed, "video-head"), d_in=64, d_hid=32, d_out=16),
            audio_head=init_head(derive_seed(seed, "audio-head"), d_in=64, d_hid=32, d_out=16),
            temperature=0.07,
        )
        cfg = TrainConfig(batch_size=16, epochs=4, seed=seed)
        state = TrainState.for_model(model, seed=seed, config=cfg.as_dict())
        train(model, data, cfg, state=state)
        path = tmp_path / f"run{run_idx}.mvbm"
        save_checkpoint(model, state, path)
        checkpoints.append(path)
    assert checkpoints[0].read_bytes() == checkpoints[1].read_bytes()

    model, state = load_checkpoint(checkpoints[0])
    val = gen_synthetic(40, 8, 0.1, seed=33, dim=64)
    before = recall_at_k(projected_pairs(model, val), ks=[1, 5, 10]).recall

    resaved = tmp_path / "resaved.mvbm"
    save_checkpoint(model, state, resaved)
    assert resaved.read_bytes() == checkpoints[0].read_bytes()

    reloaded, _ = load_checkpoint(resaved)
    after = recall_at_k(projected_pairs(reloaded, val), ks=[1, 5, 10]).recall
    assert before == after

    mvbe = tmp_path / "val.mvbe"
    save_embeddings(val.video, mvbe)
    loaded = load_embeddings(mvbe)
    assert loaded.ids == val.video.ids
    assert loaded.data.tobytes() == val.video.data.tobytes()
    report(7, "checkpoint bytes reproduce across runs; eval identical through save/load; round trips bitwise")


def test_criterion_8_recall_scale_invariance():
    rng = np.random.default_rng(99)
    yv = rng.standard_normal((120, 16))
    ya = rng.standard_normal((120, 16))
    ids = tuple(f"q{i:04d}" for i in range(120))
    base = recall_from_projections(yv, ya, ids, [1, 5, 10, 60], DIRECTION_V2A)
    for factor in (3.7, 1e-3, 1e3):
        scaled = recall_from_projections(
            factor * yv, factor * ya, ids, [1, 5, 10, 60], DIRECTION_V2A
        )
        assert scaled.recall == base.recall, factor
    report(8, "recall reports invariant under positive rescaling (x3.7, x1e-3, x1e3)")
