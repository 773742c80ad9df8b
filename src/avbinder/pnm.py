"""Binary PGM (P5) and PPM (P6) reading/writing, maxval 255 only."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .embedio import write_atomic
from .errors import BadMagicError, DataFormatError, TruncatedPayloadError


def _read_token(blob: bytes, offset: int, source: str) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines between header tokens
    n = len(blob)
    while offset < n:
        c = blob[offset : offset + 1]
        if c == b"#":
            while offset < n and blob[offset : offset + 1] != b"\n":
                offset += 1
        elif c.isspace():
            offset += 1
        else:
            break
    start = offset
    while offset < n and not blob[offset : offset + 1].isspace():
        offset += 1
    if start == offset:
        raise TruncatedPayloadError(f"{source}: header truncated")
    return blob[start:offset], offset


def read_image(path) -> np.ndarray:
    """Load a P5/P6 file as uint8 (H, W) or (H, W, 3)."""
    path = Path(path)
    blob = path.read_bytes()
    source = path.name
    if blob[:2] not in (b"P5", b"P6"):
        raise BadMagicError(f"{source}: not a binary PGM/PPM file")
    channels = 1 if blob[:2] == b"P5" else 3
    offset = 2
    fields = []
    for _ in range(3):
        token, offset = _read_token(blob, offset, source)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise DataFormatError(f"{source}: bad header token {token!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataFormatError(f"{source}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise DataFormatError(f"{source}: only maxval 255 is supported, got {maxval}")
    offset += 1  # single whitespace byte after maxval
    expected = width * height * channels
    raster = blob[offset : offset + expected]
    if len(raster) != expected or offset + expected != len(blob):
        raise TruncatedPayloadError(
            f"{source}: raster size mismatch (expected {expected} bytes)"
        )
    img = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return img.reshape(height, width).copy()
    return img.reshape(height, width, 3).copy()


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
    header = magic + f"\n{width} {height}\n255\n".encode("ascii")
    write_atomic(path, header + img.tobytes())
