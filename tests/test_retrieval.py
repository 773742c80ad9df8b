import numpy as np
import pytest

from helpers import topk_full_sort

from avbinder.binder import BindModel, l2_normalize_rows, row_dots
from avbinder.embedio import EmbeddingMatrix, PairedDataset
from avbinder.errors import ZeroNormError
from avbinder.projection import init_head
from avbinder.retrieval import (
    DIRECTION_A2V,
    DIRECTION_V2A,
    RecallReport,
    build_index,
    recall_at_k,
    recall_from_projections,
    retrieve_topk,
)


def matrix(data, prefix="it"):
    data = np.asarray(data, np.float32)
    return EmbeddingMatrix(
        ids=tuple(f"{prefix}{i:04d}" for i in range(data.shape[0])), data=data
    )


class TestBuildIndex:
    def test_unit_rows_stored_unchanged(self):
        m = matrix(np.eye(3, 8))
        idx = build_index(m)
        assert idx.rows is m.data  # shared, not copied
        assert np.array_equal(idx._unit_rows(slice(None)), np.eye(3, 8))
        assert idx.screen.dtype == np.float32 and np.array_equal(idx.screen, np.eye(3, 8))
        assert idx.ids == m.ids

    def test_rows_are_normalized(self):
        row = np.zeros(16)
        row[0], row[1] = 3.0, 4.0
        idx = build_index(matrix([row]))
        expected = np.zeros(16)
        expected[0], expected[1] = 0.6, 0.8
        assert np.array_equal(idx._unit_rows(slice(None))[0], expected)
        assert np.array_equal(idx.norms, [5.0])

    def test_build_is_deterministic(self):
        m = matrix(np.random.default_rng(0).standard_normal((10, 6)))
        a, b = build_index(m), build_index(m)
        assert np.array_equal(a._unit_rows(slice(None)), b._unit_rows(slice(None)))
        assert np.array_equal(a.screen, b.screen) and a.ids == b.ids

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_rebuilt_rows_have_the_bits_of_one_normalize_call(self, n):
        # search rescores with rows rebuilt from the float32 rows and their
        # norms; they must be l2_normalize_rows of the whole matrix, and the
        # screen rows that result rounded once to float32
        m = matrix(np.random.default_rng(n).standard_normal((n, 40)) * 10.0 ** np.arange(-3, 3, 0.15))
        idx = build_index(m)
        whole = l2_normalize_rows(m.data)
        cand = np.random.default_rng(0).permutation(n)[: n // 2 + 1]
        assert np.array_equal(idx._unit_rows(slice(None)), whole)
        assert np.array_equal(idx._unit_rows(cand), whole[cand])
        assert np.array_equal(idx.screen, whole.astype(np.float32))

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroNormError):
            build_index(matrix([[1.0, 0.0], [0.0, 0.0]]))


class TestRetrieveTopk:
    def test_self_retrieval_ranks_first_with_score_one(self):
        idx = build_index(matrix(np.eye(5, 12)))
        result = retrieve_topk(idx, np.eye(5, 12)[2], k=3)
        assert result.items[0] == ("it0002", 1.0)

    def test_k_larger_than_index_is_clamped(self):
        idx = build_index(matrix(np.random.default_rng(1).standard_normal((4, 6))))
        assert len(retrieve_topk(idx, np.ones(6), k=100).items) == 4

    def test_invalid_inputs(self):
        idx = build_index(matrix(np.eye(2, 4)))
        with pytest.raises(ValueError):
            retrieve_topk(idx, np.ones(4), k=0)
        with pytest.raises(ZeroNormError):
            retrieve_topk(idx, np.zeros(4), k=1)

    def test_matches_full_sort_oracle_with_ties(self):
        rng = np.random.default_rng(2)
        # quantized coordinates plus duplicated rows force exact score ties
        base = rng.integers(-2, 3, (200, 8)).astype(np.float64)
        base[::7] = base[3]
        base[base.sum(axis=1) == 0] += 1.0  # keep rows non-zero
        idx = build_index(matrix(base))
        for trial in range(20):
            q = rng.integers(-2, 3, 8).astype(np.float64)
            if not q.any():
                q[0] = 1.0
            scores = np.clip(
                row_dots(
                    (q / np.linalg.norm(q))[None, :], l2_normalize_rows(idx.rows)
                )[0],
                -1.0,
                1.0,
            )
            expected = topk_full_sort(idx.ids, scores, 10)
            got = list(retrieve_topk(idx, q, k=10).items)
            assert got == expected


class TestRecall:
    def test_perfect_alignment_gives_recall_one(self):
        eye = np.eye(6)
        report = recall_from_projections(
            eye, eye, tuple(f"q{i}" for i in range(6)), [1, 3], DIRECTION_V2A
        )
        assert report.recall == {1: 1.0, 3: 1.0}

    def test_true_match_ranked_last(self):
        n = 4
        ya = np.eye(n)
        yv = np.ones((n, n)) - np.eye(n)  # orthogonal to the true match only
        ids = tuple(f"q{i}" for i in range(n))
        report = recall_from_projections(yv, ya, ids, [1, 3, 4], DIRECTION_V2A)
        assert report.recall[1] == 0.0
        assert report.recall[3] == 0.0
        assert report.recall[4] == 1.0

    def test_chance_level_for_random_embeddings(self):
        # in expectation over seeds, recall@K of unrelated embeddings is K/N
        n, k, runs = 200, 10, 20
        values = []
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            report = recall_from_projections(
                rng.standard_normal((n, 16)),
                rng.standard_normal((n, 16)),
                tuple(f"q{i}" for i in range(n)),
                [k],
                DIRECTION_V2A,
            )
            values.append(report.recall[k])
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / np.sqrt(runs)
        assert abs(mean - k / n) <= max(3.0 * se, 0.01)

    def test_monotone_in_k_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            report = recall_from_projections(
                rng.standard_normal((n, 8)),
                rng.standard_normal((n, 8)),
                tuple(f"q{i:03d}" for i in range(n)),
                list(range(1, n + 1)),
                DIRECTION_V2A,
            )
            vals = [report.recall[k] for k in range(1, n + 1)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert report.recall[n] == 1.0

    def test_direction_symmetry_with_identical_sides(self):
        head = init_head(3, 16, 8, 4)
        model = BindModel(video_head=head, audio_head=head.copy(), temperature=0.07)
        data = np.random.default_rng(1).standard_normal((30, 16)).astype(np.float32)
        ids = tuple(f"p{i:03d}" for i in range(30))
        val = PairedDataset(
            video=EmbeddingMatrix(ids=ids, data=data),
            audio=EmbeddingMatrix(ids=ids, data=data.copy()),
        )
        r_v2a = recall_at_k(model, val, [1, 5, 10], DIRECTION_V2A)
        r_a2v = recall_at_k(model, val, [1, 5, 10], DIRECTION_A2V)
        assert r_v2a.recall == r_a2v.recall

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        yv = rng.standard_normal((50, 8))
        ya = rng.standard_normal((50, 8))
        ids = tuple(f"q{i:03d}" for i in range(50))
        base = recall_from_projections(yv, ya, ids, [1, 5, 10], DIRECTION_V2A)
        scaled = recall_from_projections(3.7 * yv, 3.7 * ya, ids, [1, 5, 10], DIRECTION_V2A)
        assert base.recall == scaled.recall

    def test_recall_at_k_runs_eval_mode(self):
        model = BindModel(
            video_head=init_head(0, 16, 8, 4),
            audio_head=init_head(1, 16, 8, 4),
            temperature=0.07,
        )
        rng = np.random.default_rng(2)
        ids = tuple(f"p{i:03d}" for i in range(20))
        val = PairedDataset(
            video=EmbeddingMatrix(ids=ids, data=rng.standard_normal((20, 16)).astype(np.float32)),
            audio=EmbeddingMatrix(ids=ids, data=rng.standard_normal((20, 16)).astype(np.float32)),
        )
        before = {n: getattr(model.video_head, n).copy() for n in ("bn_running_mean", "bn_running_var")}
        r1 = recall_at_k(model, val, [1, 5])
        r2 = recall_at_k(model, val, [1, 5])
        assert r1.recall == r2.recall  # eval mode: deterministic, no state drift
        assert np.array_equal(model.video_head.bn_running_mean, before["bn_running_mean"])

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            recall_from_projections(np.eye(2), np.eye(2), ("a", "b"), [0], DIRECTION_V2A)


class TestRecallReport:
    def test_tsv_has_one_row_per_k(self):
        report = RecallReport(DIRECTION_V2A, 500, {1: 0.116, 5: 0.334, 10: 0.456})
        lines = report.to_tsv().strip().split("\n")
        assert lines == ["1\t11.6", "5\t33.4", "10\t45.6"]

    def test_single_line_record(self):
        report = RecallReport(DIRECTION_V2A, 500, {1: 0.116, 10: 0.456})
        assert report.to_line() == (
            "direction=video-to-audio\tqueries=500\tR@1=11.6\tR@10=45.6"
        )

    def test_non_monotone_report_rejected(self):
        with pytest.raises(ValueError):
            RecallReport(DIRECTION_V2A, 10, {1: 0.5, 5: 0.4})
