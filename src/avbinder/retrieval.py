"""Exact cosine top-K retrieval and the Recall@K harness.

Scoring is exhaustive (no approximate index); ties are broken by ascending
id so rankings are a total order and tests can demand exact agreement with
a full-sort oracle. Recall@K over a validation set ranks, for each query,
all validation candidates of the other modality and asks whether the
query's own ground-truth partner landed in the top K.

Every score returned or compared here is the exact :func:`row_dots` value
of the unit rows, clipped to [-1, 1]. Computing it for every pair costs
80-180x a GEMM, so search screens with BLAS and rescores only where the
order is in doubt. For rows of norm at most 1, a GEMM score and the
``row_dots`` score of the same pair both lie within
gamma_D = D*u / (1 - D*u) (u = 2**-53) of the exact dot product, whatever
the summation order (Higham, *Accuracy and Stability of Numerical
Algorithms*, section 3.1). After clipping they differ by at most
delta = 2*gamma_D, padded by :func:`_screen_margin`. So:

* top-K keeps every candidate whose GEMM score is within 2*delta of the
  K-th largest GEMM score, which is a superset of the exact top K, rescores
  those with ``row_dots`` and orders them by (-score, id);
* Recall@K counts a candidate as better than the true partner when its
  GEMM score exceeds the partner's exact score by more than delta, as not
  better when it falls short by more than delta; each query row with
  candidates in the band between (its partner aside) is rescored once with
  ``row_dots`` before the id tie-break.

Both rescore through :func:`_exact_scores`, so ``row_dots`` is the one exact
reduction; the partner's own score, ``(u * v).sum(axis=-1)`` over aligned
rows, is the same product and pairwise sum with the same bits. Ids order
as Python strings do, as in :func:`avbinder.embedio.pair_by_id`.

Query rows are screened in blocks of at most ``_BLOCK_SCORES`` GEMM scores,
so memory stays bounded at any library size. This is the exact-search
design of FAISS (Johnson, Douze, Jegou, 2017): blocked GEMM plus selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binder import BindModel, l2_normalize_rows, project_audio, project_video, row_dots
from .embedio import EmbeddingMatrix, PairedDataset

DIRECTION_V2A = "video-to-audio"
DIRECTION_A2V = "audio-to-video"
DIRECTIONS = (DIRECTION_V2A, DIRECTION_A2V)

_BLOCK_SCORES = 1 << 20  # GEMM scores per block of query rows (8 MB)
_NORMALIZE_BLOCK_ROWS = 256  # rows per block when building an index


def _screen_margin(dim: int, scale: float = 1.0) -> float:
    """delta for rows of dimension ``dim`` whose norms multiply to at most
    ``scale``: a bound on |clip(GEMM score) - clip(row_dots score)|.

    The bound itself is 2*gamma_D*scale. Doubling it and using gamma_{D+2}
    covers computed row norms a few ulps above the true ones and the
    rounding of thresholds built from delta; 2**-50 covers the absolute
    rounding of those thresholds near +-1.
    """
    unit = 2.0**-53
    gamma = (dim + 2) * unit / (1.0 - (dim + 2) * unit)
    return 4.0 * gamma * scale + 2.0**-50


def _id_ranks(ids) -> np.ndarray:
    """Position of each id in ascending string order; equal ids share one."""
    # an object array sorts by Python's str comparison and copies no text
    return np.unique(np.array(ids, dtype=object), return_inverse=True)[1]


@dataclass(frozen=True)
class RetrievalIndex:
    ids: tuple[str, ...]
    vectors: np.ndarray  # unit rows, float64
    # derived once: ascending-id position of each row, and the screen's delta
    id_rank: np.ndarray = field(init=False, repr=False, compare=False)
    margin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.vectors.setflags(write=False)
        sq_norms = np.einsum("ij,ij->i", self.vectors, self.vectors)
        scale = float(np.sqrt(sq_norms.max())) if sq_norms.size else 0.0
        object.__setattr__(self, "id_rank", _id_ranks(self.ids))
        object.__setattr__(self, "margin", _screen_margin(self.vectors.shape[1], scale))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


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
    """Normalize projected embeddings into an immutable search index.

    Rows are normalized in blocks straight into the float64 index, so no
    float64 copy of the whole input is made; normalization is row-wise, so
    the bits are those of one whole-matrix call."""
    vectors = np.empty(m.data.shape, dtype=np.float64)
    for start in range(0, m.count, _NORMALIZE_BLOCK_ROWS):
        stop = start + _NORMALIZE_BLOCK_ROWS
        vectors[start:stop] = l2_normalize_rows(m.data[start:stop])
    return RetrievalIndex(ids=m.ids, vectors=vectors)


def _screen_topk(idx: RetrievalIndex, nq: np.ndarray, k: int) -> np.ndarray:
    """Mask over (query row, candidate) holding every candidate that can be
    in the exact top k of its row: GEMM score within 2*delta of the k-th."""
    n = idx.count
    if k >= n:
        return np.ones((nq.shape[0], n), dtype=bool)
    g = nq @ idx.vectors.T
    np.clip(g, -1.0, 1.0, out=g)
    kth = np.partition(g, n - k, axis=1)[:, n - k]
    return g >= (kth - 2.0 * idx.margin)[:, None]


def _exact_scores(row: np.ndarray, vectors: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Clipped ``row_dots`` scores of one unit row against ``vectors[cand]``."""
    return np.clip(row_dots(row[None, :], vectors[cand])[0], -1.0, 1.0)


def _rank_candidates(
    idx: RetrievalIndex, nq_row: np.ndarray, cand: np.ndarray, k: int, query_id: str
) -> RetrievalResult:
    """Exact scores of the screened candidates, best k by (-score, id)."""
    scores = _exact_scores(nq_row, idx.vectors, cand)
    order = np.lexsort((idx.id_rank[cand], -scores))[:k]
    return RetrievalResult(
        query_id=query_id,
        items=tuple((idx.ids[cand[i]], float(scores[i])) for i in order),
    )


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
    results = []
    step = max(1, _BLOCK_SCORES // idx.count)
    for start in range(0, queries.shape[0], step):
        block = l2_normalize_rows(queries[start : start + step])
        keep = _screen_topk(idx, block, k)
        for r in range(block.shape[0]):
            cand = np.flatnonzero(keep[r])
            results.append(_rank_candidates(idx, block[r], cand, k, query_ids[start + r]))
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
    u = l2_normalize_rows(y_query)
    v = l2_normalize_rows(y_candidate)
    n = len(ids)
    id_rank = _id_ranks(ids)
    own = np.clip((u * v).sum(axis=-1), -1.0, 1.0)  # row_dots bits, see above
    delta = _screen_margin(u.shape[1])
    # candidate j outranks the true match if it scores higher, or ties with
    # a lexicographically smaller id (same rule as retrieve_topk)
    better = np.zeros(n, dtype=np.int64)
    step = max(1, _BLOCK_SCORES // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        gap = u[start:stop] @ v.T
        np.clip(gap, -1.0, 1.0, out=gap)
        gap -= own[start:stop, None]
        better[start:stop] += np.count_nonzero(gap > delta, axis=1)
        band = np.abs(gap, out=gap) <= delta
        band[np.arange(stop - start), np.arange(start, stop)] = False  # the partner itself
        for r in np.flatnonzero(band.any(axis=1)):
            q, cand = start + r, np.flatnonzero(band[r])
            exact = _exact_scores(u[q], v, cand)
            wins = (exact > own[q]) | ((exact == own[q]) & (id_rank[cand] < id_rank[q]))
            better[q] += np.count_nonzero(wins)
    ranks = 1 + better
    recall = {int(k): float((ranks <= k).mean()) for k in ks}
    return RecallReport(direction=direction, query_count=n, recall=recall)


def recall_at_k(
    model: BindModel,
    val: PairedDataset,
    ks: list[int],
    direction: str = DIRECTION_V2A,
) -> RecallReport:
    """Project the validation pairs in eval mode and score Recall@K."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    yv = project_video(model, val.video.data)
    ya = project_audio(model, val.audio.data)
    if direction == DIRECTION_V2A:
        return recall_from_projections(yv, ya, val.ids, ks, direction)
    return recall_from_projections(ya, yv, val.ids, ks, direction)
