"""Exact cosine top-K retrieval and the Recall@K harness, on projected rows.

Scoring is exhaustive (no approximate index); ties are broken by ascending
id so rankings are a total order and tests can demand exact agreement with
a full-sort oracle. Recall@K over a validation set ranks, for each query,
all validation candidates of the other modality and asks whether the
query's own ground-truth partner landed in the top K.

Every score returned or compared here is the exact :func:`row_dots` value
of the float64 unit rows (from :func:`l2_normalize_rows`), clipped to
[-1, 1]. Computing it for every pair costs 80-180x a GEMM, so search
screens with a float32 GEMM and rescores only where the order is in doubt.
The screen reads the unit rows rounded once to float32, half the bytes of
a float64 GEMM. For unit rows of dimension D, with
gamma_D(u) = D*u / (1 - D*u) (Higham, *Accuracy and Stability of Numerical
Algorithms*, section 3.1), whatever the summation order:

* the float32 GEMM score of the rounded rows lies within gamma_D(2**-24)
  of their exact dot product;
* that dot product lies within about 2 * 2**-24 of the unit rows' own,
  since rounding to float32 moves each row by at most 2**-24 of its norm;
* the ``row_dots`` score lies within gamma_D(2**-53) of the unit rows' own.

After clipping the two scores differ by at most the sum of these, which
:func:`_screen_margin` pads into delta (about 2 * (D + 6) * 2**-24). So:

* top-K keeps every candidate whose GEMM score is within 2*delta of the
  K-th largest GEMM score (all of them when K >= count), a superset of the
  exact top K, and rescores those with ``row_dots``;
* Recall@K counts a candidate as better than the true partner when its
  GEMM score exceeds the partner's exact score by more than delta, as not
  better when it falls short by more than delta, and rescores the query
  row's candidates in the band between (its partner aside) once.

Both screen in one pass, :func:`_screened`, which normalizes the query
rows and scores them in blocks of at most ``_BLOCK_SCORES`` GEMM scores, so
memory stays bounded at any library size (the exact-search design of FAISS,
Johnson, Douze, Jegou, 2017). Both rescore through :func:`_exact_scores`,
so ``row_dots`` is the one exact reduction; the partner's own score,
``(u * v).sum(axis=-1)`` over aligned rows, has the same bits.

Ids order as Python strings do, as in :func:`avbinder.embedio.pair_by_id`,
and are compared only where exact scores tie: top-K sorts each row's few
rescored candidates by (-score, id), and Recall@K counts a band candidate
that ties the partner as better only when its id is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .binder import _row_norms, l2_normalize_rows, row_dots
from .embedio import EmbeddingMatrix, PairedDataset

DIRECTION_V2A = "video-to-audio"
DIRECTION_A2V = "audio-to-video"
DIRECTIONS = (DIRECTION_V2A, DIRECTION_A2V)

_BLOCK_SCORES = 1 << 20  # float32 GEMM scores per block of query rows (4 MB)
_BLOCK_ROWS = 256  # rows per block when normalizing or rescoring index rows


def _screen_margin(dim: int) -> float:
    """delta for unit rows of dimension ``dim``: a bound on
    |clip(float32 GEMM score) - clip(row_dots score)| of one pair.

    The bound itself is E = gamma_D(2**-24) + 2 * 2**-24 + gamma_D(2**-53)
    (see the module docstring). Doubling it and using gamma_{D+2} covers
    computed unit rows a few ulps longer than 1 and the (1 + 2**-24) growth
    of a row's norm when it is rounded to float32. 2**-22 covers the
    float32 rounding of what the screens build from delta: the top-K
    threshold, the partner's score and the difference from it, all of
    magnitude at most about 2. dim * 2**-146 covers subnormals, where
    rounding a coordinate to float32 and each float32 product each lose up
    to 2**-150 absolutely instead of 2**-24 relatively.
    """
    gemm = (dim + 2) * 2.0**-24 / (1.0 - (dim + 2) * 2.0**-24)
    exact = (dim + 2) * 2.0**-53 / (1.0 - (dim + 2) * 2.0**-53)
    return 2.0 * (gemm + 2.0 * 2.0**-24 + exact) + 2.0**-22 + dim * 2.0**-146


class RetrievalIndex:
    """Candidate rows for search, with what the screen derives from them.

    ``rows`` are kept as given (float32 when built from an
    :class:`EmbeddingMatrix`, and then not copied). ``norms`` are their
    float64 norms, computed as :func:`l2_normalize_rows` computes them,
    ``screen`` holds the float64 unit rows rounded once to float32, and
    ``margin`` is the screen's delta. Both arrays are read-only. The exact
    float64 unit rows are rebuilt from ``rows`` and ``norms`` only for the
    candidates being rescored, with the same bits, so no float64 copy of the
    library is made.
    """

    def __init__(self, ids: tuple[str, ...], rows: np.ndarray) -> None:
        self.ids, self.rows = tuple(ids), np.asarray(rows)
        n, dim = self.rows.shape
        self.norms = np.empty(n, dtype=np.float64)
        self.screen = np.empty((n, dim), dtype=np.float32)
        self.margin = _screen_margin(dim)
        # in blocks, so no float64 copy of the rows is made; normalization
        # is row-wise, so the bits are those of one whole-matrix call
        for start in range(0, n, _BLOCK_ROWS):
            x = np.asarray(self.rows[start : start + _BLOCK_ROWS], dtype=np.float64)
            block_norms = _row_norms(x)
            self.norms[start : start + len(x)] = block_norms[:, 0]
            self.screen[start : start + len(x)] = x / block_norms
        self.norms.setflags(write=False)
        self.screen.setflags(write=False)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    def _unit_rows(self, cand) -> np.ndarray:
        """The float64 unit rows ``cand``, bit for bit as
        :func:`l2_normalize_rows` of ``rows`` gives them."""
        return np.asarray(self.rows[cand], dtype=np.float64) / self.norms[cand, None]


@dataclass(frozen=True)
class RetrievalResult:
    query_id: str
    items: tuple[tuple[str, float], ...]  # (candidate id, score), best first


@dataclass(frozen=True)
class RecallReport:
    direction: str
    query_count: int
    recall: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ks = sorted(self.recall)
        values = [self.recall[k] for k in ks]
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("recall fractions must lie in [0, 1]")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("recall must be non-decreasing in K")

    def to_tsv(self) -> str:
        """One ``K<TAB>percent`` row per K, percentages with one decimal."""
        return "".join(f"{k}\t{self.recall[k] * 100:.1f}\n" for k in sorted(self.recall))

    def to_line(self) -> str:
        """Single-line machine-readable record."""
        cells = [f"direction={self.direction}", f"queries={self.query_count}"]
        cells += [f"R@{k}={self.recall[k] * 100:.1f}" for k in sorted(self.recall)]
        return "\t".join(cells)


def build_index(m: EmbeddingMatrix) -> RetrievalIndex:
    """A search index over the (projected) rows of ``m``."""
    return RetrievalIndex(ids=m.ids, rows=m.data)


def _screened(idx: RetrievalIndex, queries: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """For each block of query rows with at most ``_BLOCK_SCORES`` scores:
    its first row, its float64 unit rows and their clipped float32 GEMM
    scores against ``idx.screen``."""
    step = max(1, _BLOCK_SCORES // idx.count)
    for start in range(0, queries.shape[0], step):
        u = l2_normalize_rows(queries[start : start + step])
        g = u.astype(np.float32) @ idx.screen.T
        np.clip(g, -1.0, 1.0, out=g)
        yield start, u, g


def _exact_scores(idx: RetrievalIndex, row: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Clipped ``row_dots`` scores of one float64 unit row against the
    index rows ``cand``, rebuilt a block of rows at a time."""
    blocks = [
        row_dots(row[None, :], idx._unit_rows(cand[i : i + _BLOCK_ROWS]))[0]
        for i in range(0, len(cand), _BLOCK_ROWS)
    ]
    return np.clip(np.concatenate(blocks), -1.0, 1.0)


def retrieve_topk_batch(
    idx: RetrievalIndex, queries: np.ndarray, k: int, query_ids: tuple[str, ...]
) -> list[RetrievalResult]:
    """:func:`retrieve_topk` for every row of ``queries``, normalized and
    screened in blocks of query rows."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if idx.count == 0:
        raise ValueError("empty index")
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[0] != len(query_ids):
        raise ValueError("queries must be one row per query id")
    n, results = idx.count, []
    for start, u, g in _screened(idx, queries):
        if k < n:  # every candidate that can be in the exact top k: within 2*delta of the k-th
            kth = np.partition(g, n - k, axis=1)[:, n - k]
            keep = g >= (kth - 2.0 * idx.margin)[:, None]  # a float32 threshold
        else:
            keep = np.ones(g.shape, dtype=bool)
        for r in range(len(u)):
            cand = np.flatnonzero(keep[r])
            scores = _exact_scores(idx, u[r], cand).tolist()
            # best k by (-score, id): ids compare only where scores tie
            items = sorted(zip((idx.ids[j] for j in cand), scores), key=lambda item: (-item[1], item[0]))[:k]
            results.append(RetrievalResult(query_id=query_ids[start + r], items=tuple(items)))
    return results


def retrieve_topk(
    idx: RetrievalIndex, q: np.ndarray, k: int, query_id: str = ""
) -> RetrievalResult:
    """Top-min(k, count) candidates by cosine, ties broken by ascending id."""
    row = np.asarray(q, dtype=np.float64).ravel()[None, :]
    return retrieve_topk_batch(idx, row, k, (query_id,))[0]


def recall_from_projections(
    y_query: np.ndarray,
    y_candidate: np.ndarray,
    ids: tuple[str, ...],
    ks: list[int],
    direction: str,
) -> RecallReport:
    """Recall@K given already-projected query/candidate batches where row i
    of each side is the ground-truth pair."""
    if len(ids) != y_query.shape[0] or y_query.shape[0] != y_candidate.shape[0]:
        raise ValueError("projections and ids must have matching counts")
    if len(ids) == 0:
        raise ValueError("empty validation set")
    if any(k <= 0 for k in ks):
        raise ValueError("K values must be positive")
    cands = RetrievalIndex(ids, y_candidate)
    n = cands.count
    # candidate j outranks the true match if it scores higher, or ties with
    # a lexicographically smaller id (same rule as retrieve_topk)
    better = np.zeros(n, dtype=np.int64)
    for start, u, gap in _screened(cands, y_query):
        stop = start + u.shape[0]
        own = (u * cands._unit_rows(slice(start, stop))).sum(axis=-1)  # row_dots bits, see above
        np.clip(own, -1.0, 1.0, out=own)
        gap -= own.astype(np.float32)[:, None]
        better[start:stop] += np.count_nonzero(gap > cands.margin, axis=1)
        band = np.abs(gap, out=gap) <= cands.margin
        band[np.arange(stop - start), np.arange(start, stop)] = False  # the partner itself
        for r in np.flatnonzero(band.any(axis=1)):
            q, cand = start + r, np.flatnonzero(band[r])
            exact = _exact_scores(cands, u[r], cand)
            tied = cand[exact == own[r]]
            better[q] += np.count_nonzero(exact > own[r]) + sum(cands.ids[j] < cands.ids[q] for j in tied)
    ranks = 1 + better
    recall = {int(k): float((ranks <= k).mean()) for k in ks}
    return RecallReport(direction=direction, query_count=n, recall=recall)


def recall_at_k(val: PairedDataset, ks: list[int], direction: str = DIRECTION_V2A) -> RecallReport:
    """Recall@K of already-projected pairs: ``direction`` takes its query
    rows from one side of ``val`` and its candidates from the other."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    query, cand = (val.video, val.audio) if direction == DIRECTION_V2A else (val.audio, val.video)
    return recall_from_projections(query.data, cand.data, val.ids, ks, direction)
