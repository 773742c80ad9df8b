"""Loading a file holds about its payload, writing one holds no copy of
it, the search path's transient memory does not grow with the library,
and crop holds one frame at a time.

numpy reports its array allocations to ``tracemalloc``, so the traced peak
of a call, less what was live before it, is what the call held at its
worst: its result plus every temporary.
"""

import struct
import tracemalloc
from functools import partial

import numpy as np
import pytest

from avbinder import binder
from avbinder.binder import BindModel, project_audio
from avbinder.borders import detect_crop_rect
from avbinder.cli import run_cli
from avbinder.embedio import EmbeddingMatrix, load_embeddings, save_embeddings
from avbinder.errors import TruncatedPayloadError
from avbinder.kernels import hist256
from avbinder.pnm import read_image, write_image
from avbinder.projection import HEAD_BLOCKS, adam_step, dropout_uniforms, head_forward, init_head
from avbinder.retrieval import build_index, retrieve_topk
from avbinder.training import TrainState, load_checkpoint, save_checkpoint

MB = 1 << 20


def traced_peak(fn, *args):
    """(result, peak bytes held during ``fn(*args)`` beyond those live before)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_load_embeddings_peaks_near_the_payload(tmp_path):
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(tuple(f"trk-{i:05d}" for i in range(4000)), rng.standard_normal((4000, 1024)).astype(np.float32))
    save_embeddings(m, tmp_path / "lib.mvbe")
    del m
    loaded, peak = traced_peak(load_embeddings, tmp_path / "lib.mvbe")
    payload = loaded.data.nbytes
    assert loaded.count == 4000
    # the whole file and a copy of its payload together were twice this
    assert peak <= payload * 1.1 + MB, (peak, payload)


@pytest.fixture(scope="module")
def library():
    """2000 x 1024 float32 rows, a 7.8 MiB payload."""
    rng = np.random.default_rng(7)
    ids = tuple(f"trk-{i:05d}" for i in range(2000))
    return EmbeddingMatrix(ids, rng.standard_normal((2000, 1024)).astype(np.float32))


def test_save_embeddings_mvbe_holds_no_copy(tmp_path, library):
    _, peak = traced_peak(save_embeddings, library, tmp_path / "lib.mvbe")
    # the parts of the file, then their join, took twice the payload
    assert peak <= MB, peak


def test_tsv_is_written_and_read_line_by_line(tmp_path, library):
    _, peak = traced_peak(save_embeddings, library, tmp_path / "lib.tsv")
    # the text of every line, its join and its encoding took eight times the payload
    assert peak <= MB, peak
    loaded, peak = traced_peak(load_embeddings, tmp_path / "lib.tsv")
    assert loaded.data.tobytes() == library.data.tobytes()
    # the whole file, its decoded text and every line's fields took nine times
    # the payload; one array per row, then their stack, took twice it
    assert peak <= 1.5 * library.data.nbytes + MB, (peak, library.data.nbytes)


def test_tsv_block_holds_only_rows_shaped_like_the_first(tmp_path):
    # a 10,000-value first row, then 10,000 one-value rows: a block sized by
    # the line count alone would take 400 MB before the second row fails
    path = tmp_path / "ragged.tsv"
    path.write_text("a" + "\t0" * 10_000 + "\n" + "b\t0\n" * 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayloadError, match=r"ragged\.tsv:2: expected 10000 values, found 1"):
            load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * MB, peak


def test_save_checkpoint_holds_no_copy(tmp_path, model):
    _, peak = traced_peak(save_checkpoint, model, TrainState.for_model(model), tmp_path / "model.mvbm")
    # a bytes copy of every block, then their join, took twice the 15 MiB file
    assert peak <= MB, peak


def test_write_image_holds_no_copy(tmp_path):
    frame = np.random.default_rng(4).integers(0, 256, (1080, 1920, 3), dtype=np.uint8)
    _, peak = traced_peak(write_image, tmp_path / "frame.ppm", frame)
    # the raster's bytes, then header + raster, took twice the 5.9 MiB raster
    assert peak <= MB, peak


def test_crop_detection_holds_one_gray_frame_at_a_time():
    rng = np.random.default_rng(9)
    frames = []
    for _ in range(8):  # 540 x 960 RGB letterbox frames, 0.5 MB of gray each
        frame = rng.integers(40, 256, (540, 960, 3), dtype=np.uint8)
        frame[:60] = frame[-60:] = 0
        frames.append(frame)
    peaks = {}
    for n in (2, 8):
        rect, peaks[n] = traced_peak(detect_crop_rect, frames[:n])
        assert (rect.top, rect.bottom) == (60, 480)
    # a gray copy of every frame, made before the first was looked at, grew
    # the peak by 0.5 MB a frame
    assert peaks[8] <= peaks[2] + MB, peaks


def test_hist256_holds_no_widened_copy_of_the_frame():
    frame = np.random.default_rng(10).integers(0, 256, (1080, 1920), dtype=np.uint8)
    counts, peak = traced_peak(hist256, frame)
    assert counts.sum() == frame.size
    # bincount of the whole frame widened it to a 15.8 MiB intp copy first
    assert peak <= 2.5 * MB, peak


def test_crop_out_holds_one_frame_at_a_time(tmp_path, capsys):
    rng = np.random.default_rng(11)
    paths = []
    for i in range(16):  # 240 x 320 RGB letterbox frames, 225 KiB each
        frame = rng.integers(40, 256, (240, 320, 3), dtype=np.uint8)
        frame[:30] = frame[-30:] = 0
        paths.append(tmp_path / f"frame{i:02d}.ppm")
        write_image(paths[-1], frame)
    peaks = {}
    for n in (4, 16):
        code, peaks[n] = traced_peak(run_cli, ["crop", *map(str, paths[:n]), "--out", str(tmp_path / f"out{n}")])
        assert code == 0 and capsys.readouterr().out == "left\t0\ntop\t30\nright\t320\nbottom\t210\n"
    # every frame was read before the first was looked at: 225 KiB more a frame
    assert peaks[16] <= peaks[4] + MB, peaks


def _mvbe_with_2_40_rows(path):
    save_embeddings(EmbeddingMatrix(("a", "b"), np.ones((2, 3), np.float32)), path)
    blob = bytearray(path.read_bytes())
    blob[12:20] = struct.pack("<Q", 2**40)  # count
    path.write_bytes(bytes(blob))


def _mvbm_with_2_31_row_video_w1(path):
    model = BindModel(video_head=init_head(1, 3, 2, 2), audio_head=init_head(2, 2, 2, 2))
    save_checkpoint(model, TrainState.for_model(model), path)
    blob = bytearray(path.read_bytes())
    blob[12:16] = struct.pack("<I", 2**31)  # video d_in
    path.write_bytes(bytes(blob))


def _pgm_of_4e9_by_4e9(path):
    path.write_bytes(b"P5\n4000000000 4000000000\n255\n" + bytes(16))


@pytest.mark.parametrize(
    "name, write, load",
    [
        ("m.mvbe", _mvbe_with_2_40_rows, load_embeddings),
        ("m.mvbm", _mvbm_with_2_31_row_video_w1, load_checkpoint),
        ("f.pgm", _pgm_of_4e9_by_4e9, read_image),
    ],
    ids=["mvbe", "mvbm", "pgm"],
)
def test_declared_payload_past_the_end_fails_before_allocating(tmp_path, name, write, load):
    write(tmp_path / name)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayloadError, match=name):
            load(tmp_path / name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MB


def test_load_checkpoint_peaks_near_the_file_size(tmp_path, model):
    save_checkpoint(model, TrainState.for_model(model), tmp_path / "model.mvbm")
    size = (tmp_path / "model.mvbm").stat().st_size
    (loaded, _state), peak = traced_peak(load_checkpoint, tmp_path / "model.mvbm")
    assert loaded.video_head.d_in == 1024
    # the file's bytes and a copy of every block together were twice this
    assert peak <= size * 1.1 + MB, (peak, size)


def test_eval_only_load_peaks_near_the_heads(tmp_path, model):
    save_checkpoint(model, TrainState.for_model(model), tmp_path / "model.mvbm")
    (loaded, state), peak = traced_peak(partial(load_checkpoint, with_optimizer=False), tmp_path / "model.mvbm")
    heads = sum(getattr(h, name).nbytes for h in (loaded.video_head, loaded.audio_head) for name in HEAD_BLOCKS)
    assert state is None
    # the moments, two thirds of the file, were read and kept as in the full
    # load; now the 256 KiB buffer remains
    assert peak <= heads + MB, (peak, heads)


def test_adam_step_holds_two_blocks_of_scratch():
    rng = np.random.default_rng(8)
    w, g = (rng.standard_normal((1024, 512)).astype(np.float32) for _ in range(2))
    m, v = np.zeros_like(w), np.zeros_like(w)
    _, peak = traced_peak(adam_step, w, g, m, v, 3, 1e-3)
    # two whole-array scratch buffers took 4 MiB
    assert peak <= MB, peak


def test_read_image_peaks_near_the_raster(tmp_path):
    frame = np.random.default_rng(4).integers(0, 256, (1080, 1920, 3), dtype=np.uint8)
    write_image(tmp_path / "frame.ppm", frame)
    del frame
    img, peak = traced_peak(read_image, tmp_path / "frame.ppm")
    assert img.shape == (1080, 1920, 3)
    # the file's bytes and a copy of the raster together were twice this
    assert peak <= img.nbytes * 1.1 + MB, (peak, img.nbytes)


@pytest.fixture(scope="module")
def model():
    return BindModel(video_head=init_head(1, 1024, 512, 256), audio_head=init_head(2, 1024, 512, 256))


def test_eval_forward_of_a_block_holds_its_hidden_rows_gate_and_output(model):
    x = np.random.default_rng(1).standard_normal((256, 1024)).astype(np.float32)
    (y, cache), peak = traced_peak(partial(head_forward, training=False), model.audio_head, x)
    assert y.shape == (256, 256) and cache is None
    # a temporary per step (the hidden rows, each batch-norm step, the gate,
    # the gated rows and the output) took 2.72 MiB; the forward holds three
    # arrays, allocated up front: the hidden rows, their bool gate and the
    # output, 0.875 MiB in all
    assert peak <= MB, peak


def test_training_forward_holds_little_beyond_what_it_returns():
    head = init_head(3, 1024, 512, 256, dropout_p=0.5)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((128, 1024)).astype(np.float32)
    uniforms = dropout_uniforms(head, 128, rng)
    (y, cache), peak = traced_peak(partial(head_forward, training=True, uniforms=uniforms), head, x)
    assert cache.x is x
    returned = y.nbytes + sum(a.nbytes for a in (cache.x_hat, cache.batch_var, cache.gate, cache.dropped))
    # a new array per step (the hidden rows after each step, the bool masks,
    # the output before its bias) held 740 KiB beyond the 898 KiB returned
    assert peak - returned <= 256 * 1024, (peak, returned)


def test_projection_temporaries_do_not_grow_with_rows(model):
    x = np.random.default_rng(1).standard_normal((8192, 1024)).astype(np.float32)
    extra = {}
    for n in (2048, 8192):
        y, peak = traced_peak(project_audio, model, x[:n])
        extra[n] = peak - y.nbytes
    # whole-matrix projection held several n x 512 intermediates
    assert extra[8192] <= extra[2048] + 64 * 1024, extra


def test_build_index_temporaries_do_not_grow_with_rows():
    rng = np.random.default_rng(2)
    extra = {}
    for n in (2048, 8192):
        m = EmbeddingMatrix(tuple(map(str, range(n))), rng.standard_normal((n, 256)).astype(np.float32))
        index, peak = traced_peak(build_index, m)
        total = index.rows.nbytes + index.screen.nbytes + index.norms.nbytes
        # float32 rows and screen rows take the bytes the float64 rows did
        assert total <= n * 256 * 8 + n * 8, total
        assert index.rows is m.data  # shared, so not allocated in the call
        extra[n] = peak - (total - index.rows.nbytes)
    # whole-matrix normalization held a float64 copy and its square
    assert extra[8192] <= extra[2048] + 64 * 1024, extra


@pytest.mark.parametrize("k", [10, 8192])
def test_topk_makes_no_float64_copy_of_the_library(k):
    rng = np.random.default_rng(3)
    m = EmbeddingMatrix(tuple(map(str, range(8192))), rng.standard_normal((8192, 256)).astype(np.float32))
    index = build_index(m)
    result, peak = traced_peak(retrieve_topk, index, rng.standard_normal(256), k)
    assert len(result.items) == k
    # float64 unit rows of the whole library would take 16 MB; the screen
    # holds one float32 score per row, and rescoring every row (k = count)
    # rebuilds them a block at a time
    assert peak <= 4 * MB, peak


def _save_rows(path, prefix, n, dim, rng):
    ids = tuple(f"{prefix}{i:05d}" for i in range(n))
    save_embeddings(EmbeddingMatrix(ids, rng.standard_normal((n, dim)).astype(np.float32)), path)


def test_eval_peaks_below_its_two_raw_files(tmp_path, capsys):
    rng = np.random.default_rng(5)
    n = 4000
    for side in ("video", "audio"):
        _save_rows(tmp_path / f"{side}.mvbe", "p", n, 1024, rng)
    small = BindModel(video_head=init_head(1, 1024, 64, 32), audio_head=init_head(2, 1024, 64, 32))
    save_checkpoint(small, TrainState.for_model(small), tmp_path / "m.mvbm")
    argv = ["eval", "--checkpoint", str(tmp_path / "m.mvbm"), "--video", str(tmp_path / "video.mvbe"),
            "--audio", str(tmp_path / "audio.mvbe")]
    code, peak = traced_peak(run_cli, argv)
    assert code == 0 and capsys.readouterr().out.count("\n") == 3
    raw = 2 * n * 1024 * 4
    # each file is projected as it is read; pairing the raw rows held both
    # files and their paired copies, twice this
    assert peak < raw, (peak, raw)


def test_retrieve_one_query_projects_one_block(tmp_path, monkeypatch, capsys):
    # 48-d video queries and 64-d audio candidates tell the heads apart
    model = BindModel(video_head=init_head(1, 48, 16, 8), audio_head=init_head(2, 64, 16, 8))
    save_checkpoint(model, TrainState.for_model(model), tmp_path / "m.mvbm")
    rng = np.random.default_rng(6)
    _save_rows(tmp_path / "q.mvbe", "q", 600, 48, rng)
    _save_rows(tmp_path / "c.mvbe", "c", 300, 64, rng)
    shapes = []
    real = binder.head_forward

    def spy(head, x, training):
        shapes.append((x.shape, training))
        return real(head, x, training)

    monkeypatch.setattr(binder, "head_forward", spy)
    argv = ["retrieve", "--checkpoint", str(tmp_path / "m.mvbm"), "--queries", str(tmp_path / "q.mvbe"),
            "--candidates", str(tmp_path / "c.mvbe"), "--query-id", "q00321", "--k", "5"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.count("q00321\t") == 5
    # one block of the query row, then the 300 candidates in two blocks
    assert shapes == [((256, 48), False)] + [((256, 64), False)] * 2
