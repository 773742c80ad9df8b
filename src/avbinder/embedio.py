"""Embedding dataset I/O, pairing and splitting.

Two interchange formats, selected by file extension (``.tsv`` for text,
anything else is the canonical binary):

Binary (little-endian throughout)::

    bytes 0-3    magic  b"MVBE"
    bytes 4-7    format version, uint32 (currently 1)
    bytes 8-11   dim, uint32
    bytes 12-19  count, uint64
    next         count id records: uint16 byte-length + UTF-8 bytes
    next         count*dim float32 values, row-major

TSV: one row per item, ``id TAB v1 TAB ... TAB v_dim`` terminated by ``\\n``,
no header. Values are written with the shortest decimal that round-trips to
the same float32, so text round trips are bit-exact too.

Writers are byte-deterministic: the same matrix always serializes to the
same bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DataFormatError,
    DuplicateIdError,
    NonFiniteValueError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)

MAGIC = b"MVBE"
FORMAT_VERSION = 1
MAX_ID_BYTES = 0xFFFF  # id length is stored as uint16


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Named rows of fixed-dimension float32 vectors, immutable once built."""

    ids: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        if data.shape[1] < 1:
            raise ValueError("dim must be positive")
        if data.shape[0] != len(ids):
            raise ValueError(
                f"row count {data.shape[0]} != id count {len(ids)}"
            )
        if len(set(ids)) != len(ids):
            raise DuplicateIdError("duplicate id in embedding matrix")
        if not np.isfinite(data).all():
            raise NonFiniteValueError("non-finite value in embedding matrix")
        for item_id in ids:
            if len(item_id.encode("utf-8")) > MAX_ID_BYTES:
                raise ValueError(f"id longer than {MAX_ID_BYTES} UTF-8 bytes")
        data.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "data", data)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def take(self, indices) -> "EmbeddingMatrix":
        """New matrix holding the given rows, in the given order."""
        idx = list(indices)
        return EmbeddingMatrix(
            ids=tuple(self.ids[i] for i in idx),
            data=self.data[idx].copy(),
        )


@dataclass(frozen=True)
class PairedDataset:
    """Aligned video/audio matrices; index i is a ground-truth pair."""

    video: EmbeddingMatrix
    audio: EmbeddingMatrix

    def __post_init__(self) -> None:
        if self.video.count != self.audio.count:
            raise ValueError("video/audio counts differ")
        if self.video.ids != self.audio.ids:
            raise ValueError("video/audio ids are not aligned")
        if self.video.dim != self.audio.dim:
            raise ValueError("video/audio dims differ")

    @property
    def count(self) -> int:
        return self.video.count

    @property
    def ids(self) -> tuple[str, ...]:
        return self.video.ids

    def take(self, indices) -> "PairedDataset":
        idx = list(indices)
        return PairedDataset(self.video.take(idx), self.audio.take(idx))


@dataclass(frozen=True)
class SplitSpec:
    """How many pairs go to validation, and the shuffle seed."""

    n_val: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_val < 0:
            raise ValueError("n_val must be non-negative")


def _validate_for_save(m: EmbeddingMatrix) -> None:
    # Matrices are validated on construction, but arrays can be poked at
    # afterwards; re-check before any bytes hit the disk.
    if not np.isfinite(m.data).all():
        raise NonFiniteValueError("non-finite value in embedding matrix")


def _encode_binary(m: EmbeddingMatrix) -> bytes:
    parts = [struct.pack("<4sIIQ", MAGIC, FORMAT_VERSION, m.dim, m.count)]
    for item_id in m.ids:
        raw = item_id.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    parts.append(np.ascontiguousarray(m.data, dtype="<f4").tobytes())
    return b"".join(parts)


def _decode_binary(blob: bytes, source: str) -> EmbeddingMatrix:
    if len(blob) < 20:
        raise TruncatedPayloadError(f"{source}: header truncated")
    magic, version, dim, count = struct.unpack_from("<4sIIQ", blob, 0)
    if magic != MAGIC:
        raise BadMagicError(f"{source}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{source}: unsupported version {version}")
    if dim < 1:
        raise DataFormatError(f"{source}: dim must be positive")
    offset = 20
    ids: list[str] = []
    for _ in range(count):
        if offset + 2 > len(blob):
            raise TruncatedPayloadError(f"{source}: id table truncated")
        (id_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + id_len > len(blob):
            raise TruncatedPayloadError(f"{source}: id table truncated")
        try:
            ids.append(blob[offset : offset + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{source}: id is not valid UTF-8") from exc
        offset += id_len
    want = count * dim * 4
    got = len(blob) - offset
    if got < want:
        raise TruncatedPayloadError(
            f"{source}: truncated payload, expected {want} data bytes, found {got}"
        )
    if got > want:
        raise TruncatedPayloadError(
            f"{source}: trailing data, expected {want} data bytes, found {got}"
        )
    data = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=offset)
    data = data.reshape(count, dim).copy()
    if len(set(ids)) != len(ids):
        raise DuplicateIdError(f"{source}: duplicate id")
    if not np.isfinite(data).all():
        raise NonFiniteValueError(f"{source}: non-finite value")
    return EmbeddingMatrix(ids=tuple(ids), data=data)


def _format_f32(value: np.float32) -> str:
    # Shortest decimal that parses back to the identical float32.
    return np.format_float_positional(value, unique=True)


def _encode_tsv(m: EmbeddingMatrix) -> bytes:
    lines = []
    for item_id, row in zip(m.ids, m.data):
        if "\t" in item_id or "\n" in item_id or "\r" in item_id:
            raise ValueError(f"id {item_id!r} contains TSV delimiter characters")
        lines.append(item_id + "\t" + "\t".join(_format_f32(v) for v in row) + "\n")
    return "".join(lines).encode("utf-8")


def _decode_tsv(blob: bytes, source: str) -> EmbeddingMatrix:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{source}: not valid UTF-8 text") from exc
    ids: list[str] = []
    rows: list[list[float]] = []
    dim: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise DataFormatError(f"{source}:{lineno}: expected id + values")
        if dim is None:
            dim = len(fields) - 1
        elif len(fields) - 1 != dim:
            raise TruncatedPayloadError(
                f"{source}:{lineno}: expected {dim} values, found {len(fields) - 1}"
            )
        ids.append(fields[0])
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise DataFormatError(f"{source}:{lineno}: unparseable value") from exc
        if not all(math.isfinite(v) for v in values):
            raise NonFiniteValueError(f"{source}:{lineno}: non-finite value")
        rows.append(values)
    if dim is None:
        raise DataFormatError(f"{source}: empty TSV file")
    if len(set(ids)) != len(ids):
        raise DuplicateIdError(f"{source}: duplicate id")
    return EmbeddingMatrix(
        ids=tuple(ids), data=np.array(rows, dtype=np.float32)
    )


def save_embeddings(m: EmbeddingMatrix, path) -> None:
    """Write ``m`` to ``path``; format chosen by extension (.tsv = text)."""
    path = Path(path)
    _validate_for_save(m)
    if path.suffix == ".tsv":
        blob = _encode_tsv(m)
    else:
        blob = _encode_binary(m)
    path.write_bytes(blob)


def load_embeddings(path) -> EmbeddingMatrix:
    """Read an embedding matrix from ``path``; format chosen by extension."""
    path = Path(path)
    blob = path.read_bytes()
    if path.suffix == ".tsv":
        return _decode_tsv(blob, path.name)
    return _decode_binary(blob, path.name)


def pair_by_id(video: EmbeddingMatrix, audio: EmbeddingMatrix) -> PairedDataset:
    """Align two matrices on their common ids, sorted lexicographically."""
    common = sorted(set(video.ids) & set(audio.ids))
    if not common:
        raise ValueError("no common ids")
    v_pos = {item_id: i for i, item_id in enumerate(video.ids)}
    a_pos = {item_id: i for i, item_id in enumerate(audio.ids)}
    return PairedDataset(
        video=video.take(v_pos[i] for i in common),
        audio=audio.take(a_pos[i] for i in common),
    )


def split_dataset(
    d: PairedDataset, spec: SplitSpec
) -> tuple[PairedDataset, PairedDataset]:
    """Seeded validation split; returns (train, val), both in dataset order."""
    if spec.n_val > d.count:
        raise ValueError(f"n_val {spec.n_val} exceeds dataset count {d.count}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(d.count)
    val_idx = np.sort(perm[: spec.n_val])
    train_idx = np.sort(perm[spec.n_val :])
    return d.take(train_idx), d.take(val_idx)
