"""Cross-modal music-video embedding binder.

Trains two small projection heads over precomputed 1024-d features with a
temperature-scaled contrastive objective, retrieves by cosine similarity,
evaluates Recall@K, and removes black borders from video frames.
"""

__version__ = "0.1.0"
