"""The screened search path against the row_dots + full-sort oracle.

Search scores with a float32 BLAS product and rescores exactly only where
that product cannot settle the order. These tests feed it the inputs that
put the most pairs in the rescored band: duplicated rows, rows one ulp
apart, near-copies whose scores sit a few float32 ulps apart, quantized
coordinates and k at or beyond the candidate count. Every
ranking, score and Recall figure must equal the oracle's bit for bit.
"""

import contextlib
import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FLOAT_FIXTURE_GOLDEN,
    INTEGER_FIXTURE_GOLDEN,
    topk_full_sort,
    write_float_search_fixture,
    write_integer_search_fixture,
)

from avbinder import retrieval
from avbinder.binder import l2_normalize_rows, row_dots
from avbinder.cli import run_cli
from avbinder.embedio import EmbeddingMatrix
from avbinder.retrieval import (
    DIRECTION_V2A,
    build_index,
    recall_from_projections,
    retrieve_topk,
    retrieve_topk_batch,
)


@st.composite
def near_tie_rows(draw, dtype, min_rows=1, max_rows=30, dim=None):
    """Rows built to tie: quantized or gaussian coordinates, some rows
    copied from others, and some moved by one ulp."""
    n = draw(st.integers(min_rows, max_rows))
    d = dim if dim is not None else draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(-2, 3, (n, d)).astype(dtype)
    else:
        x = rng.standard_normal((n, d)).astype(dtype)
    copies = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    x[copies] = x[rng.integers(0, n, int(copies.sum()))]
    nudged = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    toward = np.where(rng.random((int(nudged.sum()), d)) < 0.5, -np.inf, np.inf).astype(dtype)
    x[nudged] = np.where(x[nudged] != 0, np.nextafter(x[nudged], toward), x[nudged])
    x[~x.any(axis=1), 0] = 1  # keep every row normalizable
    return x


def shuffled_ids(n, seed, prefix="c"):
    """Unique ids whose ascending order is not the row order."""
    return tuple(f"{prefix}{p:03d}" for p in np.random.default_rng(seed).permutation(n))


def oracle_topk(idx, q, k):
    nq = l2_normalize_rows(np.asarray(q, np.float64)[None, :])
    scores = np.clip(row_dots(nq, l2_normalize_rows(idx.rows))[0], -1.0, 1.0)
    return topk_full_sort(idx.ids, scores, k)


def oracle_recall(yq, yc, ids, ks):
    scores = np.clip(row_dots(l2_normalize_rows(yq), l2_normalize_rows(yc)), -1.0, 1.0)
    n = len(ids)
    ranks = [
        sorted(range(n), key=lambda j: (-scores[i, j], ids[j])).index(i) + 1 for i in range(n)
    ]
    return {k: sum(r <= k for r in ranks) / n for k in ks}


@st.composite
def index_and_queries(draw):
    cands = draw(near_tie_rows(np.float32))
    d = cands.shape[1]
    own = draw(near_tie_rows(np.float64, max_rows=8, dim=d))
    # some queries repeat candidate rows, so top scores tie at 1
    queries = np.concatenate([own, cands[: draw(st.integers(0, 4))].astype(np.float64)])
    ids = shuffled_ids(cands.shape[0], draw(st.integers(0, 1000)))
    k = draw(st.integers(1, cands.shape[0] + 3))
    return build_index(EmbeddingMatrix(ids=ids, data=cands)), queries, k


class TestTopk:
    @settings(max_examples=150, deadline=None)
    @given(index_and_queries())
    def test_single_and_batched_match_full_sort_oracle(self, case):
        idx, queries, k = case
        qids = tuple(f"q{i}" for i in range(len(queries)))
        batched = retrieve_topk_batch(idx, queries, k, qids)
        for q, qid, result in zip(queries, qids, batched):
            want = oracle_topk(idx, q, k)
            assert list(retrieve_topk(idx, q, k, query_id=qid).items) == want
            assert result.query_id == qid and list(result.items) == want

    @settings(max_examples=40, deadline=None)
    @given(index_and_queries())
    def test_one_query_row_per_block(self, case):
        idx, queries, k = case
        qids = tuple(f"q{i}" for i in range(len(queries)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "_BLOCK_SCORES", 1)
            batched = retrieve_topk_batch(idx, queries, k, qids)
        assert [list(r.items) for r in batched] == [oracle_topk(idx, q, k) for q in queries]

    def test_k_at_and_beyond_count_return_everything(self):
        rng = np.random.default_rng(9)
        data = rng.integers(-1, 2, (12, 4)).astype(np.float32)
        data[~data.any(axis=1), 0] = 1
        data[5] = data[2]
        idx = build_index(EmbeddingMatrix(ids=shuffled_ids(12, 1), data=data))
        for k in (12, 13, 100):
            got = list(retrieve_topk(idx, data[2], k).items)
            assert got == oracle_topk(idx, data[2], k) and len(got) == 12

    def test_batch_validates_inputs(self):
        idx = build_index(EmbeddingMatrix(ids=("a", "b"), data=np.eye(2)))
        with pytest.raises(ValueError):
            retrieve_topk_batch(idx, np.eye(2), 0, ("x", "y"))
        with pytest.raises(ValueError):
            retrieve_topk_batch(idx, np.eye(2), 1, ("x",))
        assert retrieve_topk_batch(idx, np.zeros((0, 2)), 1, ()) == []


@st.composite
def paired_projections(draw):
    yq = draw(near_tie_rows(np.float64, min_rows=2, max_rows=25))
    n, d = yq.shape
    yc = draw(near_tie_rows(np.float64, min_rows=n, max_rows=n, dim=d))
    # candidates that repeat or nudge their own query tie with the true match
    same = np.random.default_rng(draw(st.integers(0, 1000))).random(n) < 0.3
    yc[same] = np.nextafter(yq[same], np.inf) if draw(st.booleans()) else yq[same]
    yc[~yc.any(axis=1), 0] = 1.0
    return yq, yc, shuffled_ids(n, draw(st.integers(0, 1000)), prefix="p")


class TestRecall:
    @settings(max_examples=150, deadline=None)
    @given(paired_projections(), st.booleans())
    def test_matches_full_sort_oracle(self, case, one_row_blocks):
        yq, yc, ids = case
        ks = sorted({1, 2, 5, len(ids), len(ids) + 2})
        with pytest.MonkeyPatch.context() as mp:
            if one_row_blocks:
                mp.setattr(retrieval, "_BLOCK_SCORES", 1)
            got = recall_from_projections(yq, yc, ids, ks, DIRECTION_V2A)
        assert got.recall == oracle_recall(yq, yc, ids, ks)

    def test_duplicate_ids_never_outrank_each_other(self):
        # equal ids and equal scores: neither copy counts as better
        y = np.ones((3, 4))
        got = recall_from_projections(y, y, ("a", "a", "b"), [1, 2, 3], DIRECTION_V2A)
        assert got.recall == {1: 2 / 3, 2: 2 / 3, 3: 1.0}


class TestRecallRescoring:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda d: near_tie_rows(np.float64, max_rows=20, dim=d)))
    def test_own_score_has_row_dots_bits(self, y):
        # Recall@K takes each query's score against its own partner as the
        # aligned-row sum, which must be the row_dots reduction bit for bit
        u = l2_normalize_rows(y)
        v = l2_normalize_rows(y[::-1])
        assert np.array_equal((u * v).sum(axis=-1), np.diagonal(row_dots(u, v)))

    @settings(max_examples=100, deadline=None)
    @given(paired_projections(), st.integers(0, 1000))
    def test_repeated_ids_match_pairwise_oracle(self, case, seed):
        # a candidate outranks the true match only if it scores higher, or
        # ties with a strictly smaller id; an equal id never outranks it
        yq, yc, _ = case
        n = len(yq)
        ids = tuple(f"p{c}" for c in np.random.default_rng(seed).integers(0, 3, n))
        scores = np.clip(row_dots(l2_normalize_rows(yq), l2_normalize_rows(yc)), -1.0, 1.0)
        ranks = [
            1 + sum(scores[i, j] > scores[i, i] or (scores[i, j] == scores[i, i] and ids[j] < ids[i])
                    for j in range(n) if j != i)
            for i in range(n)
        ]
        ks = [1, 2, n]
        got = recall_from_projections(yq, yc, ids, ks, DIRECTION_V2A)
        assert got.recall == {k: sum(r <= k for r in ranks) / n for k in ks}


@st.composite
def float32_near_ties(draw):
    """Float32 rows that are near-copies of a few source rows: each copy
    scales its source coordinate-wise by 1 + eps * noise. Against a query
    at an angle to the source, the exact scores of the copies spread over
    about 1e-7 to 1e-5, within the float32 screen's error."""
    d = draw(st.sampled_from([2, 7, 32, 256]))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from([1e-7, 1e-6, 1e-5])) * np.sqrt(d)
    sources = rng.standard_normal((draw(st.integers(1, 4)), d))
    rows = sources[rng.integers(0, len(sources), n)] * (1.0 + eps * rng.standard_normal((n, d)))
    return rows.astype(np.float32), sources, rng


def at_an_angle(x, rng):
    """Each row moved off its direction by noise of 0.7 its norm: cosine
    about 0.8, where a near-copy's score moves with its perturbation."""
    scale = np.linalg.norm(x, axis=1, keepdims=True) / np.sqrt(x.shape[1])
    return x + 0.7 * scale * rng.standard_normal(x.shape)


class TestFloat32NearTies:
    @settings(max_examples=150, deadline=None)
    @given(float32_near_ties(), st.integers(1, 12), st.integers(0, 1000))
    def test_topk_matches_full_sort_oracle(self, case, k, seed):
        rows, sources, rng = case
        idx = build_index(EmbeddingMatrix(ids=shuffled_ids(len(rows), seed), data=rows))
        # angled queries spread the copies' scores by about eps; the
        # sources themselves tie them near 1
        queries = np.concatenate([at_an_angle(sources, rng), sources, rng.standard_normal(sources.shape)])
        qids = tuple(f"q{i}" for i in range(len(queries)))
        for q, result in zip(queries, retrieve_topk_batch(idx, queries, k, qids)):
            assert list(result.items) == oracle_topk(idx, q, k)

    @settings(max_examples=150, deadline=None)
    @given(float32_near_ties(), st.integers(0, 1000), st.booleans())
    def test_recall_matches_full_sort_oracle(self, case, seed, one_row_blocks):
        yc, _, rng = case
        n = len(yc)
        # each query sits at an angle to its partner or to another row, often
        # a copy of the same source, so partner and rivals score within
        # about eps of each other
        twin = np.where(rng.random(n) < 0.5, np.arange(n), rng.integers(0, n, n))
        yq = at_an_angle(yc[twin].astype(np.float64), rng).astype(np.float32)
        ids = shuffled_ids(n, seed, prefix="p")
        ks = sorted({1, 2, 3, 5, n})
        with pytest.MonkeyPatch.context() as mp:
            if one_row_blocks:
                mp.setattr(retrieval, "_BLOCK_SCORES", 1)
            got = recall_from_projections(yq, yc, ids, ks, DIRECTION_V2A)
        assert got.recall == oracle_recall(yq, yc, ids, ks)


class TestIndex:
    def test_equality_is_identity(self):
        # the frozen dataclass compared its arrays with ==, which raised
        m = EmbeddingMatrix(ids=("a", "b"), data=np.eye(2, dtype=np.float32))
        idx = build_index(m)
        assert idx == idx and idx != build_index(m)
        assert not (idx.norms.flags.writeable or idx.screen.flags.writeable)


class TestIdOrder:
    # numpy's fixed-width strings drop trailing NULs, so "a" and "a\x00"
    # compared equal there; Python orders "a" first, as pair_by_id does
    def test_topk_breaks_a_tie_by_string_order(self):
        idx = build_index(EmbeddingMatrix(ids=("a\x00", "a"), data=np.ones((2, 3), np.float32)))
        assert [cid for cid, _ in retrieve_topk(idx, np.ones(3), 2).items] == ["a", "a\x00"]

    def test_recall_counts_the_smaller_id_as_better(self):
        y = np.ones((2, 3))
        got = recall_from_projections(y, y, ("a", "a\x00"), [1, 2], DIRECTION_V2A)
        assert got.recall == {1: 0.5, 2: 1.0}

    def test_ranking_ids_does_not_scale_with_the_longest_id(self):
        ids = tuple(f"trk-{i:04d}" for i in range(1000)) + ("x" * 60000,)
        m = EmbeddingMatrix(ids=ids[::-1], data=np.ones((len(ids), 4), np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # every score ties, so all 1001 ids are compared
            items = retrieve_topk(build_index(m), np.ones(4), len(ids)).items
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert [cid for cid, _ in items] == list(ids)
        # a fixed-width unicode array padded every id to 60000 characters
        assert peak <= 5 << 20, peak


def assert_stdout_hashes(paths, golden):
    paths = {name: str(p) for name, p in paths.items()}
    for argv, want in golden:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_cli([a.format(**paths) for a in argv])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want, argv


class TestCliGolden:
    def test_retrieve_and_eval_stdout_unchanged(self, tmp_path):
        # hashes of the stdout these commands printed when every score
        # went through row_dots and a full sort
        assert_stdout_hashes(write_integer_search_fixture(tmp_path), INTEGER_FIXTURE_GOLDEN)

    def test_float_near_ties_stdout_unchanged(self, tmp_path):
        # hashes of the stdout these commands printed when search screened
        # with float64 GEMMs; many of the float fixture's near-ties lie
        # within the float32 screen's error, so search must rescore them
        assert_stdout_hashes(write_float_search_fixture(tmp_path), FLOAT_FIXTURE_GOLDEN)
