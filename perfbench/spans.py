"""Spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` replaces a function at one call site (a module attribute
such as ``avbinder.training.head_forward``) with a wrapper that records a
span: name, start, end, parent span and workload. Spans stay in memory and
are written out when the run ends. The program itself has no timing hooks.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

# per-layer metric -> (span names, grouping). "call": median over single
# calls; "step"/"setup"/"round": median over the enclosing step, set-up or
# round of the sum of the named spans inside it.
GROUPS = {"step": "training.train_step", "setup": "bench.setup", "round": "bench.round"}
LAYER_TIMES = {
    "training.step_ms": (("training.train_step",), "call"),
    "projection.forward_train_ms": (("projection.head_forward.train",), "call"),
    "projection.backward_ms": (("projection.head_backward",), "call"),
    "projection.adam_ms": (("projection.apply_update",), "call"),
    "binder.similarity_ms": (("binder.row_dots.train",), "call"),
    "binder.normalize_ms": (("binder.l2_normalize_rows", "binder.normalize_backward"), "step"),
    "binder.loss_ms": (("binder.info_nce_loss", "binder.info_nce_backward"), "step"),
    "training.checkpoint_save_ms": (("training.save_checkpoint",), "call"),
    "embedio.load_ms": (("embedio.load_embeddings",), "setup"),
    "embedio.split_ms": (("embedio.pair_by_id", "embedio.split_dataset"), "setup"),
    "training.checkpoint_load_ms": (("training.load_checkpoint",), "setup"),
    "retrieval.build_index_ms": (("retrieval.build_index",), "setup"),
    "projection.forward_eval_ms": (("projection.head_forward.eval",), "round"),
    "retrieval.recall_ms": (("retrieval.recall_from_projections",), "call"),
    "retrieval.score_ms": (("retrieval.row_dots",), "call"),
    "retrieval.topk_ms": (("retrieval.retrieve_topk",), "call"),
    "pnm.read_ms": (("pnm.read_image",), "round"),
    "pnm.write_ms": (("pnm.write_image",), "round"),
    "borders.gray_ms": (("borders.rgb_to_gray",), "round"),
    "borders.hist_ms": (("borders.histogram_std",), "round"),
    "borders.otsu_ms": (("borders.otsu_threshold",), "round"),
    "borders.binarize_ms": (("borders.binarize",), "round"),
    "borders.sobel_ms": (("kernels.sobel_gradients",), "round"),
    "borders.candidates_ms": (("borders.extract_edge_candidates",), "round"),
    "borders.fold_ms": (("borders.fold_filter",), "round"),
    "borders.nms_ms": (("borders.nms_unify",), "round"),
    "borders.apply_crop_ms": (("borders.apply_crop",), "round"),
}
# self time (span minus the child spans it covers), median per span
LAYER_SELF = {"training.self_ms": "training.train_step", "cli.retrieve_self_ms": "cli.retrieve"}
# counts per round: each round repeats the same work, so these repeat exactly
LAYER_COUNTS = {
    "training.steps": "training.train_step",
    "retrieval.queries": "retrieval.retrieve_topk",
    "borders.candidates": "borders.candidates",
    "borders.kept": "borders.kept",
    "borders.frames_gated": "borders.frames_gated",
}


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr`` made through
        ``owner``; ``on_result(tracer, result)`` may add counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "workload": self.workload}
                fh.write(json.dumps(record) + "\n")

    # --- per-layer figures -------------------------------------------------
    def _ancestor(self, idx: int, name: str) -> int:
        parent = self.spans[idx][3]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure; 0 where the workload leaves a layer idle."""
        durations: dict[str, list[float]] = {}
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            ms = (end - start) / 1e6
            durations.setdefault(name, []).append(ms)
            if parent >= 0:
                child_ms[parent] += ms
        group_sums = {kind: {} for kind in GROUPS}
        for kind, group_name in GROUPS.items():
            for i, span in enumerate(self.spans):
                if span[0] == group_name:
                    group_sums[kind][i] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            for kind, group_name in GROUPS.items():
                anc = self._ancestor(i, group_name)
                if anc >= 0:
                    sums = group_sums[kind][anc]
                    sums[name] = sums.get(name, 0.0) + (end - start) / 1e6

        out: dict[str, float] = {}
        for metric, (names, kind) in LAYER_TIMES.items():
            if kind == "call":
                values = [ms for n in names for ms in durations.get(n, [])]
            else:
                values = [sum(s.get(n, 0.0) for n in names) for s in group_sums[kind].values()]
                values = values if any(values) else []
            out[metric] = statistics.median(values) if values else 0.0
        for metric, name in LAYER_SELF.items():
            selfs = [(s[2] - s[1]) / 1e6 - child_ms[i] for i, s in enumerate(self.spans) if s[0] == name]
            out[metric] = statistics.median(selfs) if selfs else 0.0
        rounds = max(1, len(group_sums["round"]))
        for metric, name in LAYER_COUNTS.items():
            total = len(durations.get(name, [])) if name in durations else self.counts.get(name, 0)
            out[metric] = total / rounds
        cands = out["borders.candidates"]
        out["borders.kept_per_candidate"] = out["borders.kept"] / cands if cands else 0.0
        return out
