import numpy as np
import pytest

from avbinder.errors import BadMagicError, DataFormatError, TruncatedPayloadError
from avbinder.pnm import read_image, write_image


def test_pgm_round_trip(tmp_path):
    img = np.random.default_rng(0).integers(0, 256, (17, 23)).astype(np.uint8)
    path = tmp_path / "frame.pgm"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)


def test_ppm_round_trip(tmp_path):
    img = np.random.default_rng(1).integers(0, 256, (9, 11, 3)).astype(np.uint8)
    path = tmp_path / "frame.ppm"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)


def test_written_header_layout(tmp_path):
    path = tmp_path / "f.pgm"
    write_image(path, np.zeros((2, 3), np.uint8))
    assert path.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_comments_and_whitespace_tolerated(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5 # comment\n# another line\n 3\t2 \n255\n" + bytes(range(6)))
    img = read_image(path)
    assert img.shape == (2, 3)
    assert img[1, 2] == 5


def test_unsupported_maxval_rejected(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n2 2\n128\n" + b"\x00" * 4)
    with pytest.raises(DataFormatError, match="maxval"):
        read_image(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P3\n2 2\n255\n0 0 0 0")
    with pytest.raises(BadMagicError):
        read_image(path)


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 15)
    with pytest.raises(TruncatedPayloadError):
        read_image(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 5)
    with pytest.raises(TruncatedPayloadError):
        read_image(path)


def test_bad_shape_write_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_image(tmp_path / "f.pgm", np.zeros((2, 2, 4), np.uint8))


def test_long_comment_tolerated(tmp_path):
    # header tokens are bounded in length, comments are not
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n#" + b"9" * 100_000 + b"\n3 2\n255\n" + bytes(6))
    assert read_image(path).shape == (2, 3)
