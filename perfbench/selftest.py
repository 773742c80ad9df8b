"""Quick check of the benchmark's own writers, readers and oracles; no timing.

    python3 perfbench/selftest.py      # from the root of a checkout

* the MVBE/MVBM/PNM writers round-trip through avbinder's readers, and
  avbinder's writers through the benchmark's readers;
* the brute-force Recall@K and top-K match hand-worked cases;
* the frame generator's ground truth holds on tiny frames.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))
import avbinder  # noqa: E402
from avbinder import embedio, pnm, training  # noqa: E402

import gen  # noqa: E402
import oracles  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok  " if ok else "FAIL") + "  " + what)
    if not ok:
        FAILURES.append(what)


def small_head(rng, d_in: int, d_hid: int, d_out: int) -> dict:
    head = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in (
        ("w1", (d_in, d_hid)), ("b1", (d_hid,)), ("bn_gamma", (d_hid,)), ("bn_beta", (d_hid,)),
        ("bn_running_mean", (d_hid,)), ("w2", (d_hid, d_out)), ("b2", (d_out,)))}
    head["bn_running_var"] = rng.uniform(0.5, 2.0, d_hid).astype(np.float32)
    return head


def round_trips(tmp: Path) -> None:
    rng = np.random.default_rng(0)
    ids = ["b", "a", "ü-3"]
    data = rng.standard_normal((3, 5)).astype(np.float32)
    gen.write_mvbe(tmp / "x.mvbe", ids, data)
    m = embedio.load_embeddings(tmp / "x.mvbe")
    expect(list(m.ids) == ids and np.array_equal(m.data, data), "MVBE writer -> avbinder reader")
    embedio.save_embeddings(m, tmp / "y.mvbe")
    got_ids, got = oracles.read_mvbe(tmp / "y.mvbe")
    expect(got_ids == ids and np.array_equal(got, data), "avbinder MVBE writer -> benchmark reader")

    video, audio = small_head(rng, 7, 6, 4), small_head(rng, 5, 6, 4)
    meta = {"video_head": {"bn_eps": 1e-3, "bn_momentum": 0.2, "dropout_p": 0.25},
            "audio_head": {"bn_eps": 1e-4, "bn_momentum": 0.3, "dropout_p": 0.0}, "config": {"k": 1}}
    gen.write_mvbm(tmp / "m.mvbm", video, audio, tau=0.05, step=12, seed=34, meta=meta)
    model, state = training.load_checkpoint(tmp / "m.mvbm")
    same = all(
        np.array_equal(getattr(h, name), want[name])
        for h, want in ((model.video_head, video), (model.audio_head, audio))
        for name in gen.HEAD_BLOCKS
    )
    expect(same and state.step == 12 and state.seed == 34 and model.temperature == np.float32(0.05)
           and model.video_head.bn_eps == 1e-3 and model.audio_head.dropout_p == 0.0,
           "MVBM writer -> avbinder load_checkpoint")
    training.save_checkpoint(model, state, tmp / "n.mvbm")
    ck = oracles.read_mvbm(tmp / "n.mvbm")
    expect(ck["dims"] == (7, 5, 6, 4) and ck["step"] == 12 and ck["meta"] == meta
           and all(np.array_equal(ck["video"][n], video[n]) for n in gen.HEAD_BLOCKS),
           "avbinder save_checkpoint -> benchmark reader")
    expect((tmp / "n.mvbm").read_bytes() == (tmp / "m.mvbm").read_bytes(),
           "benchmark MVBM writer is byte-identical to avbinder's")

    for shape, name in (((5, 7), "g.pgm"), ((4, 6, 3), "c.ppm")):
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        gen.write_pnm(tmp / name, img)
        expect(np.array_equal(pnm.read_image(tmp / name), img), f"PNM writer -> avbinder reader ({name})")
        pnm.write_image(tmp / ("p" + name), img)
        want = (img.shape[2] if img.ndim == 3 else 1, shape[1], shape[0], img.tobytes())
        expect(oracles.read_pnm(tmp / ("p" + name)) == want, f"avbinder PNM writer -> benchmark reader ({name})")


def hand_worked_rankings() -> None:
    # rows are queries, columns candidates, the diagonal the true pairs:
    # row 0 has one better candidate (rank 2), row 1 is best (rank 1), row 2
    # has two better ones (rank 3)
    scores = np.array([[0.6, 0.1, 0.9], [0.2, 0.5, 0.1], [0.7, 0.8, 0.4]])
    bounds = oracles.recall_bounds(scores, ["a", "b", "c"], [1, 2, 3])
    expect(bounds == {1: (1 / 3, 1 / 3), 2: (2 / 3, 2 / 3), 3: (1.0, 1.0)}, "Recall@K on a 3x3 case")
    # an exact tie with the partner may fall either way
    tied = np.array([[0.5, 0.5], [0.1, 0.9]])
    expect(oracles.recall_bounds(tied, ["a", "b"], [1]) == {1: (0.5, 1.0)}, "Recall@1 bounds on a tie")
    ids = ["c", "b", "a", "d"]
    order = oracles.topk_full_sort(oracles.id_ranks(ids), np.array([0.5, 0.7, 0.7, 0.1]), 3)
    expect(order.tolist() == [2, 1, 0], "top-K breaks score ties by ascending id")
    s = np.array([0.5, 0.7, 0.7, 0.1])
    good = [("a", 0.7), ("b", 0.7), ("c", 0.5)]
    expect(oracles.check_ranking(good, order, ids, s, 1e-6) is None, "a correct list passes")
    expect(oracles.check_ranking([("a", 0.7), ("c", 0.5), ("b", 0.7)], order, ids, s, 1e-6) is not None,
           "a misordered list fails")
    expect(oracles.check_ranking([("a", 0.7), ("b", 0.7), ("c", 0.49)], order, ids, s, 1e-6) is not None,
           "a wrong score fails")


def generator_truth(tmp: Path) -> None:
    for layout, content in (("letterbox", "smooth"), ("pillarbox", "smooth"), ("windowbox", "smooth"),
                            ("gap", "gap-noise"), ("borderless", "noise")):
        rng = np.random.default_rng(5)
        height, width = 300, 400
        rect = gen.layout_rect(rng, layout, height, width)
        left, top, right, bottom = rect
        for channels in (1, 3):
            img = gen.make_frame(rng, layout, content, channels, rect, height, width)
            mask = np.zeros((height, width), bool)
            mask[top:bottom, left:right] = True
            luma = img.mean(axis=-1) if channels == 3 else img
            floor = 0 if content == "noise" else (gen.GAP_LOW if content == "gap-noise" else 90)
            symmetric = abs(top - (height - bottom)) <= 2 and abs(left - (width - right)) <= 2
            expect(bool((luma[~mask] <= 3).all() and (luma[mask] >= floor).all()) and symmetric,
                   f"{layout}/{content} x{channels}: borders only outside the drawn rectangle {rect}")
    cut = np.arange(60, dtype=np.uint8).reshape(6, 10)
    gen.write_pnm(tmp / "f.pgm", cut)
    expect(oracles.expected_crop(tmp / "f.pgm", (2, 1, 7, 5)) == (1, 5, 4, cut[1:5, 2:7].tobytes()),
           "expected_crop slices left/top/right/bottom")


def main() -> int:
    print(f"avbinder {avbinder.__version__} from {Path(avbinder.__file__).parent}")
    scratch = Path.cwd() / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        round_trips(Path(tmp))
        generator_truth(Path(tmp))
    hand_worked_rankings()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
