import math

import numpy as np
import pytest

import avbinder.binder as binder
from avbinder.binder import (
    BindModel,
    info_nce_backward,
    info_nce_loss,
    l2_normalize_rows,
    project_audio,
    project_video,
    row_dots,
    _diag_cross_entropy,
)
from avbinder.embedio import EmbeddingMatrix
from avbinder.errors import ZeroNormError
from avbinder.projection import init_head
from avbinder.retrieval import build_index, retrieve_topk


def cosine_scores(yv, ya):
    """Cosines as search computes them: normalize, row_dots, clip."""
    u = l2_normalize_rows(np.atleast_2d(yv))
    v = l2_normalize_rows(np.atleast_2d(ya))
    return np.clip(row_dots(u, v), -1.0, 1.0)


def cosine(a, b):
    return float(cosine_scores(a, b)[0, 0])


class TestNormalize:
    def test_unit_vector_unchanged(self):
        out = l2_normalize_rows(np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(out, np.array([[1.0, 0.0, 0.0]]))

    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.array_equal(out, np.array([[0.6, 0.8]]))

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroNormError, match="zero-norm embedding"):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_direction_preserved(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 16))
        out = l2_normalize_rows(x)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
        cos = (out * x).sum(axis=1) / np.linalg.norm(x, axis=1)
        np.testing.assert_allclose(cos, 1.0, atol=1e-12)


class TestCosine:
    def test_self_similarity_is_one(self):
        assert cosine(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 1.0
        v = np.random.default_rng(1).standard_normal(64)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_and_orthogonal(self):
        v = np.array([3.0, 4.0])
        assert cosine(v, -v) == -1.0
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_errors(self):
        with pytest.raises(ZeroNormError):
            cosine(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    def test_against_independent_fsum_oracle(self):
        # independently coded dot/norm evaluation on 100 random 1024-d pairs
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.standard_normal(1024)
            b = rng.standard_normal(1024)
            oracle = math.fsum(float(x) * float(y) for x, y in zip(a, b)) / (
                math.sqrt(math.fsum(float(x) ** 2 for x in a))
                * math.sqrt(math.fsum(float(y) ** 2 for y in b))
            )
            assert cosine(a, b) == pytest.approx(oracle, abs=1e-6)


class TestSimilarityMatrix:
    def test_orthonormal_rows_give_identity(self):
        eye = np.eye(2)
        assert np.array_equal(cosine_scores(eye, eye), np.eye(2))

    def test_hand_dot_product(self):
        s = cosine_scores(np.array([[0.6, 0.8]]), np.array([[0.8, 0.6]]))
        assert s[0, 0] == pytest.approx(0.96, rel=1e-12)

    def test_matches_elementwise_cosine_exactly(self):
        # row_dots bits do not depend on the shapes they were computed in
        rng = np.random.default_rng(3)
        yv = rng.standard_normal((7, 256))
        ya = rng.standard_normal((5, 256))
        s = cosine_scores(yv, ya)
        for i in range(7):
            for j in range(5):
                assert s[i, j] == cosine(yv[i], ya[j])

    def test_scores_stay_in_cosine_range(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((40, 8))
        nearly = base + 1e-9 * rng.standard_normal((40, 8))
        assert (cosine_scores(base, nearly) <= 1.0).all()
        assert (cosine_scores(base, nearly) >= -1.0).all()
        idx = build_index(EmbeddingMatrix(ids=tuple(f"n{i:02d}" for i in range(40)), data=nearly))
        for q in base:
            scores = [score for _, score in retrieve_topk(idx, q, k=40).items]
            assert max(scores) <= 1.0 and min(scores) >= -1.0


class TestInfoNceLoss:
    def test_single_pair_has_zero_loss(self):
        assert info_nce_loss(np.array([[0.73]]), 0.07) == 0.0

    def test_two_pair_identity_matrix(self):
        expected = math.log(1.0 + math.exp(-1.0))  # 0.313262...
        assert info_nce_loss(np.eye(2), 1.0) == pytest.approx(expected, abs=1e-6)
        assert info_nce_loss(np.eye(2), 1.0) == pytest.approx(0.313262, abs=1e-6)

    def test_constant_matrix_is_uniform_softmax(self):
        for tau in (0.07, 0.5, 3.0):
            assert info_nce_loss(np.full((4, 4), 0.2), tau) == pytest.approx(
                math.log(4.0), abs=1e-9
            )

    def test_errors(self):
        with pytest.raises(ValueError):
            info_nce_loss(np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError):
            info_nce_loss(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            info_nce_loss(np.zeros((2, 2)), -1.0)

    def test_loss_nonnegative_and_vanishes_with_diagonal_dominance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.uniform(-1, 1, (6, 6))
            assert info_nce_loss(s, rng.uniform(0.05, 2.0)) >= 0.0
        losses = [info_nce_loss(np.eye(4) * c, 0.5) for c in (1.0, 3.0, 6.0, 9.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6
        assert info_nce_loss(np.eye(4) * 60.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_misaligning_positives_never_decreases_loss(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = rng.uniform(-0.2, 0.2, (8, 8)) + 3.0 * np.eye(8)
            base = info_nce_loss(s, 0.3)
            i, j = rng.choice(8, size=2, replace=False)
            swapped = s.copy()
            swapped[[i, j]] = swapped[[j, i]]
            assert info_nce_loss(swapped, 0.3) >= base - 1e-12

    def test_row_term_is_shift_invariant(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((5, 5))
        shifted = s.copy()
        shifted[2] += 17.3
        assert _diag_cross_entropy(shifted / 0.3) == pytest.approx(
            _diag_cross_entropy(s / 0.3), abs=1e-9
        )
        # a global constant shifts every row and column at once
        assert info_nce_loss(s + 4.2, 0.3) == pytest.approx(info_nce_loss(s, 0.3), abs=1e-9)

    def test_extreme_temperature_is_stable(self):
        s = np.eye(8) * 0.99
        assert np.isfinite(info_nce_loss(s, 1e-3))


class TestInfoNceBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        s = rng.standard_normal((5, 5))
        tau = 0.1
        grad = info_nce_backward(s, tau)
        fd = np.zeros_like(s)
        h = 1e-6
        for i in range(5):
            for j in range(5):
                sp = s.copy()
                sp[i, j] += h
                sm = s.copy()
                sm[i, j] -= h
                fd[i, j] = (info_nce_loss(sp, tau) - info_nce_loss(sm, tau)) / (2 * h)
        # softmax-tail entries are ~1e-17; below the 1e-4 floor the check is
        # an absolute tolerance of 1e-9 (FD noise there is eps*L/2h ~ 1e-10)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-4)
        assert rel.max() < 1e-5

    def test_single_pair_gradient_is_zero(self):
        assert np.array_equal(info_nce_backward(np.array([[0.4]]), 0.07), np.zeros((1, 1)))

    def test_sign_structure_on_constant_matrix(self):
        g = info_nce_backward(np.full((4, 4), 0.7), 0.2)
        assert (np.diag(g) < 0).all()
        off = g[~np.eye(4, dtype=bool)]
        assert (off > 0).all()

    def test_gradient_sums_to_zero(self):
        # softmax rows/columns each sum to 1, so the total gradient mass cancels
        rng = np.random.default_rng(9)
        g = info_nce_backward(rng.standard_normal((6, 6)), 0.4)
        assert abs(g.sum()) < 1e-12


class TestBindModel:
    def test_temperature_must_be_positive(self):
        heads = [init_head(i, 8, 6, 4) for i in (0, 1)]
        with pytest.raises(ValueError):
            BindModel(video_head=heads[0], audio_head=heads[1], temperature=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_temperature_must_be_finite(self, tau):
        heads = [init_head(i, 8, 6, 4) for i in (0, 1)]
        with pytest.raises(ValueError):
            BindModel(video_head=heads[0], audio_head=heads[1], temperature=tau)

    def test_heads_must_share_output_dim(self):
        with pytest.raises(ValueError):
            BindModel(
                video_head=init_head(0, 8, 6, 4),
                audio_head=init_head(1, 8, 6, 5),
                temperature=0.07,
            )


class TestEvalProjection:
    @pytest.fixture(scope="class")
    def model_and_rows(self):
        model = BindModel(video_head=init_head(1, 1024, 512, 256), audio_head=init_head(2, 1024, 512, 256))
        x = np.random.default_rng(3).standard_normal((1000, 1024)).astype(np.float32)
        return model, x, project_video(model, x)

    @pytest.mark.parametrize("n", [1, 7, 255, 256, 257, 1000])
    def test_rows_do_not_depend_on_batch_size(self, model_and_rows, n):
        # a BLAS once gave 1- to 7-row products other bits than larger ones,
        # so a row's projection depended on the row count of its file
        model, x, whole = model_and_rows
        assert project_video(model, x[:n]).tobytes() == whole[:n].tobytes()

    def test_row_alone_matches_its_row_in_a_batch(self, model_and_rows):
        model, x, whole = model_and_rows
        for i in (0, 5, 300, 999):
            assert project_video(model, x[i : i + 1]).tobytes() == whole[i : i + 1].tobytes()

    def test_every_block_goes_through_head_forward_at_one_shape(self, monkeypatch):
        model = BindModel(video_head=init_head(1, 16, 8, 4), audio_head=init_head(2, 16, 8, 4))
        shapes = []
        real = binder.head_forward

        def spy(head, x, training, rng=None):
            shapes.append((x.shape, training))
            return real(head, x, training, rng)

        monkeypatch.setattr(binder, "head_forward", spy)
        x = np.random.default_rng(0).standard_normal((600, 16)).astype(np.float32)
        y = project_audio(model, x)
        assert shapes == [((256, 16), False)] * 3
        assert y.shape == (600, 4) and y.dtype == np.float32

    def test_float64_input_projects_as_its_float32_cast(self, model_and_rows):
        model, x, whole = model_and_rows
        assert project_video(model, x[:300].astype(np.float64)).tobytes() == whole[:300].tobytes()

    def test_zero_rows_project_to_an_empty_batch(self, model_and_rows):
        y = project_video(model_and_rows[0], np.zeros((0, 1024), np.float32))
        assert y.shape == (0, 256) and y.dtype == np.float32

    @pytest.mark.parametrize("shape", [(3, 1023), (1024,)])
    def test_bad_batch_shape_rejected(self, model_and_rows, shape):
        model = model_and_rows[0]
        with pytest.raises(ValueError, match="shape"):
            project_video(model, np.zeros(shape, np.float32))
