"""Binary PGM (P5) and PPM (P6) reading/writing, maxval 255 only.

The reader goes through ``embedio.BinaryReader``: the magic and header
tokens are read from the open file, and the raster straight into the
returned array once the file is known to hold it, so a declared size past
the end is a ``TruncatedPayloadError`` before anything is allocated.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .embedio import BinaryReader, _open_input, write_atomic
from .errors import BadMagicError, DataFormatError


_MAX_TOKEN = 20  # bytes: the digits of 2**64, more than any real width, height or maxval


def _read_token(reader: BinaryReader) -> bytes:
    """Read the next header token, after any whitespace and '#' comment
    lines, and the one whitespace byte that ends it; return the token. A
    token longer than ``_MAX_TOKEN`` bytes is a ``DataFormatError`` that
    does not echo it; comments may be any length."""
    c = reader.take(1)
    while c == b"#" or c.isspace():
        if c == b"#":
            while reader.take(1) != b"\n":
                pass
        c = reader.take(1)
    token = bytearray()
    while not c.isspace():
        if len(token) == _MAX_TOKEN:
            raise DataFormatError(f"{reader.source}: header token longer than {_MAX_TOKEN} bytes")
        token += c
        c = reader.take(1)
    return bytes(token)


def read_image(path) -> np.ndarray:
    """Load a P5/P6 file as uint8 (H, W) or (H, W, 3)."""
    path = Path(path)
    source = path.name
    with _open_input(path, source) as fh:
        reader = BinaryReader(fh, source)
        magic = reader.take(2)
        if magic not in (b"P5", b"P6"):
            raise BadMagicError(f"{source}: not a binary PGM/PPM file")
        fields = []
        for _ in range(3):
            token = _read_token(reader)
            try:
                fields.append(int(token))
            except ValueError as exc:
                raise DataFormatError(f"{source}: bad header token {token!r}") from exc
        width, height, maxval = fields
        if width < 1 or height < 1:
            raise DataFormatError(f"{source}: bad dimensions {width}x{height}")
        if maxval != 255:
            raise DataFormatError(f"{source}: only maxval 255 is supported, got {maxval}")
        # the single whitespace byte after maxval ended its token
        img = reader.array((height, width) if magic == b"P5" else (height, width, 3), np.uint8)
        reader.finish()
    return img


def write_image(path, img: np.ndarray) -> None:
    """Write uint8 (H, W) as P5 or (H, W, 3) as P6, atomically."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        magic = b"P5"
        height, width = img.shape
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
        height, width = img.shape[:2]
    else:
        raise ValueError(f"expected (H, W) or (H, W, 3) uint8 image, got {img.shape}")
    write_atomic(path, (magic + f"\n{width} {height}\n255\n".encode("ascii"), img))
