"""Cross-modal music-video embedding binder.

Trains two small projection heads over precomputed 1024-d features with a
temperature-scaled contrastive objective, retrieves by cosine similarity,
evaluates Recall@K, and removes black borders from video frames.
"""

from .binder import (
    BindModel,
    info_nce_backward,
    info_nce_loss,
    l2_normalize_rows,
    project_audio,
    project_video,
)
from .borders import (
    BorderParams,
    CropRect,
    EdgeCandidate,
    apply_crop,
    detect_crop_rect,
    extract_edge_candidates,
    fold_filter,
    histogram_std,
    nms_unify,
    otsu_threshold,
    sobel_edges,
)
from .embedio import (
    EmbeddingMatrix,
    PairedDataset,
    SplitSpec,
    load_embeddings,
    pair_by_id,
    save_embeddings,
    split_dataset,
)
from .projection import (
    AdamState,
    ForwardCache,
    HeadGradients,
    ProjectionHead,
    apply_update,
    head_backward,
    head_forward,
    init_head,
)
from .retrieval import (
    RecallReport,
    RetrievalIndex,
    RetrievalResult,
    build_index,
    recall_at_k,
    recall_from_projections,
    retrieve_topk,
    retrieve_topk_batch,
)
from .training import (
    TrainConfig,
    TrainHistory,
    TrainState,
    gen_synthetic,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
)

__version__ = "0.1.0"
