import dataclasses
import math

import numpy as np
import pytest

from helpers import reference_adam_step

from avbinder.projection import (
    _ADAM_BLOCK,
    HEAD_BLOCKS,
    PARAM_FIELDS,
    AdamState,
    adam_step,
    apply_update,
    dropout_uniforms,
    head_backward,
    head_forward,
    init_head,
)


def sum_product_loss(head, x, r, mask_seed):
    """Scalar loss sum(Y * R) through a training-mode forward."""
    uniforms = dropout_uniforms(head, len(x), np.random.default_rng(mask_seed))
    y, _ = head_forward(head, x, training=True, uniforms=uniforms)
    return float((y * r).sum())


def fd_gradient(head, name, x, r, mask_seed, step):
    param = getattr(head, name)
    fd = np.zeros(param.shape, np.float64)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        hp = head.copy()
        getattr(hp, name)[ix] += step
        hm = head.copy()
        getattr(hm, name)[ix] -= step
        fd[ix] = (
            sum_product_loss(hp, x, r, mask_seed) - sum_product_loss(hm, x, r, mask_seed)
        ) / (2 * step)
    return fd


def block_rel_error(analytic, fd):
    # norm-relative with a floor: blocks whose true gradient is numerically
    # zero (b1 vanishes exactly through the batch-norm mean) compare by an
    # absolute tolerance of 1e-8 instead of a 0/0 ratio
    return np.linalg.norm(analytic - fd) / max(
        np.linalg.norm(analytic), np.linalg.norm(fd), 1e-4
    )


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_head(7, 32, 16, 8)
        b = init_head(7, 32, 16, 8)
        for name in PARAM_FIELDS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_default_architecture_shapes(self):
        h = init_head(0)
        assert h.w1.shape == (1024, 512)
        assert h.b1.shape == (512,)
        assert h.w2.shape == (512, 256)
        assert h.b2.shape == (256,)
        assert h.dropout_p == 0.5

    def test_glorot_uniform_statistics(self):
        h = init_head(11)
        bound = math.sqrt(6.0 / (1024 + 512))
        w = h.w1.astype(np.float64)
        assert np.abs(w).max() <= bound
        # uniform(-a, a): var a^2/3, so the mean of n draws has sd a/sqrt(3n)
        three_sigma = 3.0 * bound / math.sqrt(3.0 * w.size)
        assert abs(w.mean()) <= three_sigma

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan, math.inf])
    def test_bn_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="bn_eps"):
            dataclasses.replace(init_head(3, 8, 4, 2), bn_eps=eps)

    def test_zero_and_one_initial_state(self):
        h = init_head(3, 8, 4, 2)
        assert not h.b1.any() and not h.b2.any() and not h.bn_beta.any()
        assert (h.bn_gamma == 1).all()
        assert not h.bn_running_mean.any()
        assert (h.bn_running_var == 1).all()


class TestForward:
    def test_output_shape(self):
        h = init_head(0)
        x = np.random.default_rng(1).standard_normal((8, 1024)).astype(np.float32)
        uniforms = dropout_uniforms(h, len(x), np.random.default_rng(2))
        y, cache = head_forward(h, x, training=True, uniforms=uniforms)
        assert y.shape == (8, 256)
        assert cache is not None
        y_eval, cache_eval = head_forward(h, x, training=False)
        assert y_eval.shape == (8, 256)
        assert cache_eval is None

    def test_eval_zero_input_propagates_to_output_bias(self):
        h = init_head(5, 16, 8, 4)
        h.b2[...] = np.random.default_rng(3).standard_normal(4).astype(np.float32)
        y, _ = head_forward(h, np.zeros((3, 16)), training=False)
        assert np.array_equal(y, np.broadcast_to(h.b2.astype(np.float64), (3, 4)))

    def test_identical_rows_degenerate_variance_is_finite(self):
        h = init_head(5, 16, 8, 4, dtype=np.float64)
        x = np.ones((4, 16))
        uniforms = dropout_uniforms(h, len(x), np.random.default_rng(0))
        y, cache = head_forward(h, x, training=True, uniforms=uniforms)
        assert np.isfinite(y).all()
        assert (cache.batch_var == 0).all()

    def test_single_row_training_batch_allowed_by_eps(self):
        h = init_head(5, 16, 8, 4, dtype=np.float64)
        x = np.ones((1, 16))
        uniforms = dropout_uniforms(h, len(x), np.random.default_rng(0))
        y, _ = head_forward(h, x, training=True, uniforms=uniforms)
        assert np.isfinite(y).all()

    def test_eval_is_rng_independent(self):
        # eval takes no uniforms: its dropout is the identity
        h = init_head(5, 16, 8, 4)
        x = np.random.default_rng(1).standard_normal((6, 16))
        y1, _ = head_forward(h, x, training=False)
        y2, _ = head_forward(dataclasses.replace(h, dropout_p=0.0), x, training=False)
        assert np.array_equal(y1, y2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_matches_the_formula_with_a_temporary_per_step_bit_for_bit(self, dtype):
        # the eval forward computes in place; every step must keep the bits
        # of the formula, so the batch-norm state is far from identity
        rng = np.random.default_rng(2)
        h = init_head(5, 64, 48, 16, dtype=dtype)
        for name in ("b1", "bn_gamma", "bn_beta", "bn_running_mean", "b2"):
            getattr(h, name)[...] = rng.standard_normal(48 if name != "b2" else 16)
        h.bn_running_var[...] = rng.uniform(0.1, 3.0, 48)
        x = rng.standard_normal((256, 64)).astype(dtype)
        x_hat = (x @ h.w1 + h.b1 - h.bn_running_mean) / np.sqrt(h.bn_running_var + h.bn_eps)
        z = h.bn_gamma * x_hat + h.bn_beta
        want = (z * (z > 0)) @ h.w2 + h.b2
        y, cache = head_forward(h, x, training=False)
        assert cache is None and y.dtype == dtype
        assert y.tobytes() == want.tobytes()

    def test_shape_and_finiteness_errors(self):
        h = init_head(5, 16, 8, 4)
        with pytest.raises(ValueError):
            head_forward(h, np.zeros((2, 7)), training=False)
        with pytest.raises(ValueError):
            head_forward(h, np.full((2, 16), np.nan), training=False)

    def test_running_stats_updated_with_momentum(self):
        h = init_head(5, 16, 8, 4, dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((32, 16))
        batch_mean = (x @ h.w1 + h.b1).mean(axis=0)
        uniforms = dropout_uniforms(h, len(x), np.random.default_rng(0))
        _, cache = head_forward(h, x, training=True, uniforms=uniforms)
        expect_mean = 0.9 * 0.0 + 0.1 * batch_mean
        expect_var = 0.9 * 1.0 + 0.1 * cache.batch_var
        np.testing.assert_allclose(h.bn_running_mean, expect_mean, rtol=1e-12)
        np.testing.assert_allclose(h.bn_running_var, expect_var, rtol=1e-12)

    def test_pure_function_with_zero_dropout_and_zero_momentum(self):
        h = init_head(5, 16, 8, 4, dtype=np.float64, dropout_p=0.0)
        h.bn_momentum = 0.0
        x = np.random.default_rng(1).standard_normal((6, 16))
        before = (h.bn_running_mean.copy(), h.bn_running_var.copy())
        y1, _ = head_forward(h, x, training=True)
        y2, _ = head_forward(h, x, training=True)
        assert np.array_equal(y1, y2)
        assert np.array_equal(h.bn_running_mean, before[0])
        assert np.array_equal(h.bn_running_var, before[1])

    def test_uniforms_drawn_first_give_the_rng_draws_mask(self):
        x = np.random.default_rng(2).standard_normal((6, 16))
        h = init_head(5, 16, 8, 4)
        drawn = dropout_uniforms(h, len(x), np.random.default_rng(7))
        assert drawn.tobytes() == np.random.default_rng(7).random((6, 8)).tobytes()
        _, cache = head_forward(h.copy(), x, training=True, uniforms=drawn)
        z = h.bn_gamma * cache.x_hat + h.bn_beta
        assert cache.gate.tobytes() == (((z > 0) & (drawn >= 0.5)) * np.float32(2.0)).tobytes()
        before = h.copy()
        for uniforms in (None, drawn[:5]):  # no dropout source, or the wrong shape
            with pytest.raises(ValueError, match="uniforms of shape"):
                head_forward(h, x, training=True, uniforms=uniforms)
        for name in HEAD_BLOCKS:
            assert getattr(h, name).tobytes() == getattr(before, name).tobytes(), name

    def test_no_uniforms_drawn_without_dropout(self):
        rng = np.random.default_rng(7)
        assert dropout_uniforms(init_head(5, 16, 8, 4, dropout_p=0.0), 6, rng) is None
        assert rng.random() == np.random.default_rng(7).random()

    def test_batchnorm_standardizes_batch(self):
        h = init_head(5, 32, 16, 8, dtype=np.float64)
        x = np.random.default_rng(2).standard_normal((64, 32))
        uniforms = dropout_uniforms(h, len(x), np.random.default_rng(0))
        _, cache = head_forward(h, x, training=True, uniforms=uniforms)
        assert (cache.batch_var > 0).all()
        np.testing.assert_allclose(cache.x_hat.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(cache.x_hat.var(axis=0), 1.0, atol=1e-3)

    def test_float32_eval_projection_is_within_search_tolerance(self):
        # search's oracle projects in float64 and compares scores to 1e-6,
        # so a float32 head must project every row closer than that
        rng = np.random.default_rng(6)
        head = init_head(6)
        x = rng.standard_normal((256, 1024)).astype(np.float32)
        pre_bn = x.astype(np.float64) @ head.w1.astype(np.float64)
        head.bn_running_mean[...] = pre_bn.mean(axis=0)
        head.bn_running_var[...] = pre_bn.var(axis=0)
        head.bn_gamma[...] = rng.uniform(0.5, 1.5, head.d_hid)
        head.bn_beta[...] = rng.uniform(-0.5, 0.5, head.d_hid)
        head.b1[...] = rng.uniform(-0.1, 0.1, head.d_hid)
        head.b2[...] = rng.uniform(-0.1, 0.1, head.d_out)
        wide = dataclasses.replace(head, **{n: getattr(head, n).astype(np.float64) for n in HEAD_BLOCKS})
        y32, _ = head_forward(head, x, training=False)
        y64, _ = head_forward(wide, x, training=False)
        assert y32.dtype == np.float32 and y64.dtype == np.float64
        row_error = np.linalg.norm(y32 - y64, axis=1) / np.linalg.norm(y64, axis=1)
        assert row_error.max() < 1e-6

    def test_inverted_dropout_is_unbiased(self):
        # where the ReLU passes, the gate is 0 or 1/(1-p), so its mean is 1
        p = 0.25
        head = init_head(8, 16, 8, 4, dtype=np.float64, dropout_p=p)
        x = np.random.default_rng(8).standard_normal((16, 16))
        rng = np.random.default_rng(9)
        passed = []
        for _ in range(200):
            uniforms = dropout_uniforms(head, len(x), rng)
            _, cache = head_forward(head, x, training=True, uniforms=uniforms)
            z = head.bn_gamma * cache.x_hat + head.bn_beta
            passed.append(cache.gate[z > 0])
        passed = np.concatenate(passed)
        # per-unit sd of the gate is sqrt(p/(1-p))
        three_sigma = 3.0 * math.sqrt(p / (1.0 - p) / passed.size)
        assert abs(passed.mean() - 1.0) <= three_sigma


class TestBackward:
    def test_matches_finite_differences_at_stated_step(self):
        # step 1e-3 on a 16/8/4 head in 64-bit mode
        rng = np.random.default_rng(11)
        head = init_head(11, 16, 8, 4, dtype=np.float64)
        x = rng.standard_normal((5, 16))
        r = rng.standard_normal((5, 4))
        uniforms = dropout_uniforms(head, len(x), np.random.default_rng(77))
        _, cache = head_forward(head.copy(), x, training=True, uniforms=uniforms)
        z = head.bn_gamma * cache.x_hat + head.bn_beta
        assert np.abs(z).min() > 5e-3  # perturbations stay clear of the ReLU kink
        grads = head_backward(head, cache, r)
        for name in PARAM_FIELDS:
            fd = fd_gradient(head, name, x, r, 77, step=1e-3)
            assert block_rel_error(grads[name], fd) < 1e-4, name

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_gradient_property_across_batch_sizes(self, n):
        for seed in (11, 23):
            rng = np.random.default_rng(seed)
            head = init_head(seed, 16, 8, 4, dtype=np.float64)
            x = rng.standard_normal((n, 16))
            r = rng.standard_normal((n, 4))
            uniforms = dropout_uniforms(head, len(x), np.random.default_rng(77))
            _, cache = head_forward(head.copy(), x, training=True, uniforms=uniforms)
            grads = head_backward(head, cache, r)
            for name in PARAM_FIELDS:
                fd = fd_gradient(head, name, x, r, 77, step=1e-5)
                assert block_rel_error(grads[name], fd) < 1e-4, (name, seed)

    def test_zero_upstream_gradient_gives_zero_gradients(self):
        head = init_head(3, 16, 8, 4, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((5, 16))
        uniforms = dropout_uniforms(head, len(x), np.random.default_rng(1))
        _, cache = head_forward(head, x, training=True, uniforms=uniforms)
        grads = head_backward(head, cache, np.zeros((5, 4)))
        for name in PARAM_FIELDS:
            assert not grads[name].any()

    def test_backward_replays_cached_mask(self):
        head = init_head(3, 16, 8, 4, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((5, 16))
        dy = np.random.default_rng(1).standard_normal((5, 4))
        uniforms = dropout_uniforms(head, len(x), np.random.default_rng(2))
        _, cache = head_forward(head, x, training=True, uniforms=uniforms)
        g1 = head_backward(head, cache, dy)
        g2 = head_backward(head, cache, dy)
        for name in PARAM_FIELDS:
            assert np.array_equal(g1[name], g2[name])

    def test_batch_mismatch_rejected(self):
        head = init_head(3, 16, 8, 4, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((5, 16))
        uniforms = dropout_uniforms(head, len(x), np.random.default_rng(2))
        _, cache = head_forward(head, x, training=True, uniforms=uniforms)
        with pytest.raises(ValueError):
            head_backward(head, cache, np.zeros((4, 4)))


class TestAdam:
    def test_zero_gradient_is_a_fixed_point(self):
        head = init_head(3, 16, 8, 4)
        state = AdamState.for_head(head)
        x = np.random.default_rng(0).standard_normal((5, 16))
        uniforms = dropout_uniforms(head, len(x), np.random.default_rng(1))
        _, cache = head_forward(head, x, training=True, uniforms=uniforms)
        grads = head_backward(head, cache, np.zeros((5, 4)))
        before = {n: getattr(head, n).copy() for n in PARAM_FIELDS}
        apply_update(head, grads, state, 1, lr=0.1)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(head, name), before[name])

    def test_first_step_moves_by_learning_rate(self):
        # fresh state, w=1, g=1: bias correction makes the step ~= lr
        p, m, v = np.array([1.0]), np.zeros(1), np.zeros(1)
        adam_step(p, np.array([1.0]), m, v, t=1, lr=0.1)
        assert abs(p[0] - 0.9) < 1e-8
        assert m[0] == pytest.approx(0.1)
        assert v[0] == pytest.approx(0.001)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape",
        [(1,), (_ADAM_BLOCK - 1,), (_ADAM_BLOCK,), (2 * _ADAM_BLOCK + 3,), (3, _ADAM_BLOCK // 2 + 1)],
        ids=["1", "block-1", "block", "2block+3", "3x(block/2+1)"],
    )
    def test_blocks_match_the_reference_bit_for_bit(self, shape, dtype):
        rng = np.random.default_rng(len(shape) + shape[-1])
        param = rng.standard_normal(shape).astype(dtype)
        m, v = np.zeros(shape, dtype), np.zeros(shape, dtype)
        want = (param.copy(), m.copy(), v.copy())
        for t in range(1, 5):
            # gradients over ten orders of magnitude, some below eps's reach
            grad = (rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 2, shape)).astype(dtype)
            adam_step(param, grad, m, v, t, lr=1e-3)
            want = reference_adam_step(want[0], grad, want[1], want[2], t, 1e-3)
            for got, ref in zip((param, m, v), want):
                assert got.tobytes() == ref.astype(dtype).tobytes()

    def test_arrays_that_differ_in_shape_are_rejected(self):
        p, m, v = np.ones(4), np.zeros(4), np.zeros(4)
        with pytest.raises(ValueError, match="shape"):
            adam_step(p, np.ones(1), m, v, t=1, lr=0.1)
        assert np.array_equal(p, np.ones(4))

    def test_update_is_deterministic(self):
        results = []
        for _ in range(2):
            head = init_head(3, 16, 8, 4)
            state = AdamState.for_head(head)
            x = np.random.default_rng(0).standard_normal((5, 16))
            uniforms = dropout_uniforms(head, len(x), np.random.default_rng(1))
            _, cache = head_forward(head, x, training=True, uniforms=uniforms)
            g = head_backward(head, cache, np.ones((5, 4)))
            apply_update(head, g, state, 1, lr=1e-3)
            results.append(head.w1.tobytes())
        assert results[0] == results[1]

    def test_running_stats_not_touched_by_optimizer(self):
        head = init_head(3, 16, 8, 4, dtype=np.float64)
        state = AdamState.for_head(head)
        x = np.random.default_rng(0).standard_normal((5, 16))
        uniforms = dropout_uniforms(head, len(x), np.random.default_rng(1))
        _, cache = head_forward(head, x, training=True, uniforms=uniforms)
        rm, rv = head.bn_running_mean.copy(), head.bn_running_var.copy()
        grads = head_backward(head, cache, np.ones((5, 4)))
        apply_update(head, grads, state, 1, lr=0.5)
        assert np.array_equal(head.bn_running_mean, rm)
        assert np.array_equal(head.bn_running_var, rv)
