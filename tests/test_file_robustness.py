"""Every reader fails cleanly on damaged input, and every writer is atomic.

The readers are where outside bytes enter the program: the MVBE and TSV
embedding files, MVBM checkpoints and PGM/PPM frames. Whatever a file
holds, loading it either succeeds or raises a ``DataFormatError`` subclass,
which the CLI turns into exit 2; any other exception would surface as a
traceback. The writers replace their target in one step, so a failed
write leaves the previous file intact and no temporary file behind.
"""

import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import load_outcome

from avbinder.binder import BindModel
from avbinder.cli import run_cli
from avbinder.embedio import EmbeddingMatrix, load_embeddings, save_embeddings
from avbinder.errors import DataFormatError, TruncatedPayloadError
from avbinder.pnm import read_image, write_image
from avbinder.projection import init_head
from avbinder.training import TrainConfig, TrainState, gen_synthetic, load_checkpoint, save_checkpoint

FILE_NAMES = {"mvbe": "m.mvbe", "tsv": "m.tsv", "mvbm": "m.mvbm", "pgm": "f.pgm", "ppm": "f.ppm"}
LOADERS = {
    "mvbe": load_embeddings,
    "tsv": load_embeddings,
    "mvbm": load_checkpoint,
    "pgm": read_image,
    "ppm": read_image,
}


def small_matrix() -> EmbeddingMatrix:
    data = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    return EmbeddingMatrix(ids=("a", "clip-β", "c"), data=data)


def small_checkpoint(path) -> None:
    # tiny dims keep the share of header and metadata bytes high
    model = BindModel(
        video_head=init_head(1, 3, 2, 2), audio_head=init_head(2, 2, 2, 2), temperature=0.07
    )
    cfg = TrainConfig(batch_size=4, epochs=1, seed=5)
    state = TrainState.for_model(model, seed=5, config=cfg.as_dict())
    save_checkpoint(model, state, path)


def write_valid(kind: str, path) -> None:
    if kind in ("mvbe", "tsv"):
        save_embeddings(small_matrix(), path)
    elif kind == "mvbm":
        small_checkpoint(path)
    else:
        shape = (3, 4) if kind == "pgm" else (2, 3, 3)
        write_image(path, np.random.default_rng(1).integers(0, 256, shape, dtype=np.uint8))


@pytest.fixture(scope="module")
def valid_blobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    blobs = {}
    for kind, name in FILE_NAMES.items():
        write_valid(kind, root / name)
        blobs[kind] = (root / name).read_bytes()
    return blobs


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def load_bytes(kind: str, blob: bytes, scratch: Path):
    path = scratch / FILE_NAMES[kind]
    path.write_bytes(blob)
    return LOADERS[kind](path)


def mutations(blob: bytes):
    """Overwritten bytes, an overwritten float32, a truncation, or bytes
    appended."""
    n = len(blob)

    def overwrite(edits):
        out = bytearray(blob)
        for pos, raw in edits:
            out[pos : pos + len(raw)] = raw
        return bytes(out)

    byte = (st.sampled_from([0x00, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)).map(lambda b: bytes([b]))
    # values the format admits but a model or matrix may not
    special = st.sampled_from([float("nan"), float("inf"), -1.0, 0.0, 2.0]).map(lambda x: struct.pack("<f", x))
    edit = st.tuples(st.integers(0, n - 1), byte) | st.tuples(st.integers(0, n - 4), special)
    return st.one_of(
        st.lists(edit, min_size=1, max_size=4).map(overwrite),
        st.integers(0, n - 1).map(lambda k: blob[:k]),
        st.binary(min_size=1, max_size=16).map(lambda tail: blob + tail),
    )


class TestReadersFuzz:
    @pytest.mark.parametrize("kind", sorted(FILE_NAMES))
    def test_valid_sample_loads(self, kind, valid_blobs, scratch):
        load_bytes(kind, valid_blobs[kind], scratch)

    @pytest.mark.parametrize("kind", sorted(FILE_NAMES))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_damaged_file_loads_or_raises_a_data_error(self, kind, valid_blobs, scratch, data):
        blob = data.draw(mutations(valid_blobs[kind]))
        try:
            load_bytes(kind, blob, scratch)
        except DataFormatError as exc:
            assert FILE_NAMES[kind] in str(exc)

    @pytest.mark.parametrize("kind", ["mvbe", "mvbm", "pgm", "ppm"])
    def test_every_proper_prefix_is_truncated(self, kind, valid_blobs, scratch):
        blob = valid_blobs[kind]
        for k in range(len(blob)):
            with pytest.raises(TruncatedPayloadError):
                load_bytes(kind, blob[:k], scratch)


class TestEvalOnlyCheckpointLoad:
    """``eval`` and ``retrieve`` load checkpoints without the Adam moments,
    and must accept and reject exactly what the full load does, with the
    same error."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_damaged_file_fails_as_in_the_full_load(self, valid_blobs, scratch, data):
        path = scratch / "eval_only.mvbm"
        path.write_bytes(data.draw(mutations(valid_blobs["mvbm"])))
        assert load_outcome(path, with_optimizer=False) == load_outcome(path)

    def test_every_proper_prefix_fails_as_in_the_full_load(self, valid_blobs, scratch):
        path = scratch / "eval_only.mvbm"
        blob = valid_blobs["mvbm"]
        for k in range(len(blob)):
            path.write_bytes(blob[:k])
            assert load_outcome(path, with_optimizer=False) == load_outcome(path)


def write_history(path, work: Path) -> int:
    data = gen_synthetic(16, 4, 0.1, seed=0, dim=8)
    save_embeddings(data.video, work / "video.mvbe")
    save_embeddings(data.audio, work / "audio.mvbe")
    return run_cli([
        "train", "--video", str(work / "video.mvbe"), "--audio", str(work / "audio.mvbe"),
        "--out", str(work / "model.mvbm"), "--history", str(path), "--batch", "8", "--epochs", "1",
    ])


WRITERS = {
    "embeddings.mvbe": lambda path, work: save_embeddings(small_matrix(), path),
    "embeddings.tsv": lambda path, work: save_embeddings(small_matrix(), path),
    "model.mvbm": lambda path, work: small_checkpoint(path),
    "frame.ppm": lambda path, work: write_image(path, np.zeros((2, 3, 3), np.uint8)),
    "loss.tsv": write_history,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(name, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    target = out / name
    target.write_bytes(b"old bytes")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == target:
            raise OSError("simulated failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    # the library writers raise the OSError; `avbinder train` exits 2 on it
    try:
        code = WRITERS[name](target, tmp_path)
    except OSError:
        code = 2
    assert code == 2
    assert target.read_bytes() == b"old bytes"
    assert [p.name for p in out.iterdir()] == [name]

    monkeypatch.undo()
    assert WRITERS[name](target, tmp_path) in (None, 0)
    assert target.read_bytes() != b"old bytes"
    assert [p.name for p in out.iterdir()] == [name]


def test_symlinked_target_is_written_through(tmp_path):
    real = tmp_path / "real.mvbe"
    link = tmp_path / "link.mvbe"
    real.write_bytes(b"old bytes")
    link.symlink_to(real)
    save_embeddings(small_matrix(), link)
    assert link.is_symlink()
    assert load_embeddings(real).ids == small_matrix().ids
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.mvbe", "real.mvbe"]
