"""Embedding dataset I/O, pairing and splitting, the bounded reader that
every binary format goes through, and the atomic writer every format uses.

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
the same float32, so text round trips are bit-exact too. Lines split only at
``\\n`` (a ``\\r`` before it is dropped). A TSV id has no length limit; an
MVBE id, whose length is a uint16, holds at most 65535 UTF-8 bytes.

Every binary format of the package (MVBE here, MVBM checkpoints, PGM/PPM
frames) is read through one ``BinaryReader`` over the open file. It checks
each declared length against the file's size before allocating, fails with
a ``DataFormatError`` naming the file, and reads each array straight into
its own memory, so a load peaks at about its payload's size. TSV is read
line by line into one float32 block, sized by a first byte pass. Every
writer hands ``write_atomic`` its file in parts, so no file is built
whole. Writers are atomic and byte-deterministic: the same
matrix always serializes to the same bytes.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

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
_ID_LENGTH = struct.Struct("<H")


class BinaryReader:
    """Little-endian cursor over one open binary file. It takes the file's
    size once, and every read first checks that the file holds the bytes it
    asks for, so a declared length past the end fails before anything of
    that length is allocated."""

    def __init__(self, fh: BinaryIO, source: str) -> None:
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0
        self.source = source

    def expect(self, magic: bytes, version: int) -> None:
        """Read and check the magic + uint32 version that both binary formats open with."""
        found, found_version = self.unpack("<4sI")
        if found != magic:
            raise BadMagicError(f"{self.source}: bad magic {found!r}")
        if found_version != version:
            raise UnsupportedVersionError(f"{self.source}: unsupported version {found_version}")

    def take(self, n: int) -> bytes:
        self._advance(n)
        blob = self.fh.read(n)
        self._check_read(len(blob), n)
        return blob

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape: tuple[int, ...], dtype="<f4") -> np.ndarray:
        """The next prod(shape) values of ``dtype``, read straight into a
        fresh array once the file is known to hold them."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        self._advance(nbytes)
        out = np.empty(shape, dtype)
        self._check_read(self.fh.readinto(out), nbytes)
        return out

    def pieces(self, count: int, buffer: np.ndarray) -> Iterator[np.ndarray]:
        """The next ``count`` values of ``buffer``'s dtype, read through
        ``buffer`` a piece at a time once the file is known to hold them all;
        each piece is a view of ``buffer``, overwritten by the next."""
        nbytes = count * buffer.itemsize
        self._advance(nbytes)
        for start in range(0, count, buffer.size):
            piece = buffer[: min(buffer.size, count - start)]
            self._check_read(self.fh.readinto(piece), piece.nbytes)
            yield piece

    def finish(self) -> None:
        if self.offset != self.size:
            raise TruncatedPayloadError(f"{self.source}: trailing data after byte {self.offset}")

    def _advance(self, n: int) -> None:
        if self.offset + n > self.size:
            raise TruncatedPayloadError(f"{self.source}: truncated, {n} bytes needed at byte {self.offset}")
        self.offset += n

    def _check_read(self, got: int, n: int) -> None:
        # the size was taken at open; a file cut short since then reads less
        if got != n:
            raise TruncatedPayloadError(f"{self.source}: truncated while it was read")


def _open_input(path, source: str) -> BinaryIO:
    """``open(path, "rb")`` for a reader, refusing what is not a regular
    file: opening a FIFO would block, and every reader needs the file's
    size or a second pass over it."""
    fh = open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK))
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        fh.close()
        raise OSError(f"{source}: not a regular file")
    return fh


@contextmanager
def naming_file(source: str):
    """Re-raise a validator's ``ValueError`` as a ``DataFormatError`` naming
    ``source``; a ``DataFormatError`` keeps its subclass."""
    try:
        yield
    except ValueError as exc:
        kind = type(exc) if isinstance(exc, DataFormatError) else DataFormatError
        raise kind(f"{source}: {exc}") from exc


def write_atomic(path, parts: Iterable[bytes | np.ndarray]) -> None:
    """Write ``parts`` (bytes and C-contiguous arrays) in order to a
    temporary file beside ``path``, then ``os.replace`` it over ``path``: a
    failed write, also one a generator of parts raises, leaves the old file
    as it was and no temporary behind. Nothing is fsynced, so this survives
    a crash of the process, not a power loss. A target that exists and is
    not a regular file (a directory, a FIFO, a device) is refused."""
    path = Path(path).resolve()  # a symlinked target is written through, as before
    if path.exists() and not path.is_file():
        raise OSError(f"{path}: not a regular file, so not replaced")
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _all_finite(data: np.ndarray) -> bool:
    """Whether every value is finite, without a temporary the size of
    ``data``: ``min`` and ``max`` propagate a NaN and surface an infinity."""
    return data.size == 0 or bool(np.isfinite(data.min()) and np.isfinite(data.max()))


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
        if not _all_finite(data):
            raise NonFiniteValueError("non-finite value in embedding matrix")
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
        return EmbeddingMatrix(ids=tuple(self.ids[i] for i in idx), data=self.data[idx])


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


def _binary_parts(m: EmbeddingMatrix):
    yield struct.pack("<4sIIQ", MAGIC, FORMAT_VERSION, m.dim, m.count)
    for item_id in m.ids:
        raw = item_id.encode("utf-8")
        if len(raw) > MAX_ID_BYTES:
            raise ValueError(f"id of {len(raw)} UTF-8 bytes; MVBE ids are at most {MAX_ID_BYTES}")
        yield struct.pack("<H", len(raw)) + raw
    yield np.ascontiguousarray(m.data, dtype="<f4")


def _load_binary(path: Path, source: str) -> EmbeddingMatrix:
    with _open_input(path, source) as fh:
        reader = BinaryReader(fh, source)
        reader.expect(MAGIC, FORMAT_VERSION)
        dim, count = reader.unpack("<IQ")
        if dim < 1:
            raise DataFormatError(f"{source}: dim must be positive")
        payload_bytes = 4 * count * dim
        if reader.offset + payload_bytes > reader.size:
            raise TruncatedPayloadError(
                f"{source}: truncated, {payload_bytes} payload bytes declared in a {reader.size}-byte file"
            )
        # the id records fill the bytes up to the payload: one read, split here
        ids_at = reader.offset
        section = reader.take(reader.size - payload_bytes - ids_at)
        ids, pos = [], 0
        try:
            for _ in range(count):
                end = pos + 2 + _ID_LENGTH.unpack_from(section, pos)[0]
                if end > len(section):
                    break
                ids.append(section[pos + 2 : end].decode("utf-8"))
                pos = end
        except struct.error:  # fewer than the two length bytes left
            pass
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{source}: id is not valid UTF-8") from exc
        if len(ids) < count:
            raise TruncatedPayloadError(
                f"{source}: truncated, the id record at byte {ids_at + pos} runs into the payload"
            )
        if pos != len(section):  # the file is longer than its ids and payload
            raise TruncatedPayloadError(f"{source}: trailing data after byte {ids_at + pos + payload_bytes}")
        data = reader.array((count, dim))
        reader.finish()
    with naming_file(source):
        return EmbeddingMatrix(ids=tuple(ids), data=data)


def _tsv_lines(m: EmbeddingMatrix):
    for item_id, row in zip(m.ids, m.data):
        if "\t" in item_id or "\n" in item_id or "\r" in item_id:
            raise ValueError(f"id {item_id!r} contains TSV delimiter characters")
        # each value as the shortest decimal that parses back to the identical float32
        values = "\t".join(np.format_float_positional(v, unique=True) for v in row)
        yield f"{item_id}\t{values}\n".encode("utf-8")


_BLANK_LINES = (b"\n", b"\r\n", b"\r")  # what a line holds that decodes to no text


def _tsv_shape(fh) -> tuple[int, int]:
    """(rows, tabs per row) of the leading non-blank lines of ``fh`` whose
    tab count matches the first one's: a bound on the rows a valid file
    holds, found without decoding. A tab is one byte in UTF-8, so a row's
    tab count is its value count, and the block holds no more values than
    the file has tabs."""
    rows = tabs = 0
    for raw in fh:
        if raw in _BLANK_LINES:
            continue
        if rows == 0:
            tabs = raw.count(b"\t")
        elif raw.count(b"\t") != tabs:
            break  # the second pass fails at this line, or at an earlier one
        rows += 1
    return rows, tabs


def _load_tsv(path: Path, source: str) -> EmbeddingMatrix:
    ids: list[str] = []
    dim: int | None = None
    with _open_input(path, source) as fh:  # binary lines split only at b"\n"
        # one byte pass sizes the float32 block, the second fills it row by row
        data = np.empty(_tsv_shape(fh), np.float32)
        fh.seek(0)
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").removesuffix("\n").removesuffix("\r")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{source}:{lineno}: not valid UTF-8 text") from exc
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
            if len(ids) == len(data) or dim != data.shape[1]:
                raise TruncatedPayloadError(f"{source}:{lineno}: the file changed while it was read")
            try:
                with np.errstate(over="raise"):
                    data[len(ids)] = [float(f) for f in fields[1:]]
            except ValueError as exc:
                raise DataFormatError(f"{source}:{lineno}: unparseable value") from exc
            except FloatingPointError as exc:  # finite as a double, inf as float32
                raise NonFiniteValueError(f"{source}:{lineno}: value outside float32 range") from exc
            ids.append(fields[0])
    if dim is None:
        raise DataFormatError(f"{source}: empty TSV file")
    if len(ids) != len(data):
        raise TruncatedPayloadError(f"{source}: the file changed while it was read")
    with naming_file(source):
        return EmbeddingMatrix(ids=tuple(ids), data=data)


def save_embeddings(m: EmbeddingMatrix, path) -> None:
    """Write ``m`` to ``path``; format chosen by extension (.tsv = text)."""
    path = Path(path)
    # Matrices are validated on construction, but arrays can be poked at
    # afterwards; re-check before any bytes hit the disk.
    if not _all_finite(m.data):
        raise NonFiniteValueError("non-finite value in embedding matrix")
    write_atomic(path, _tsv_lines(m) if path.suffix == ".tsv" else _binary_parts(m))


def load_embeddings(path) -> EmbeddingMatrix:
    """Read an embedding matrix from ``path``; format chosen by extension."""
    path = Path(path)
    if path.suffix == ".tsv":
        return _load_tsv(path, path.name)
    return _load_binary(path, path.name)


def pair_by_id(video: EmbeddingMatrix, audio: EmbeddingMatrix) -> PairedDataset:
    """Align two matrices on their common ids, sorted lexicographically. A
    side whose ids are already those, in that order, is used as it is."""
    common = tuple(sorted(set(video.ids) & set(audio.ids)))
    if not common:
        raise ValueError("no common ids")

    def aligned(m: EmbeddingMatrix) -> EmbeddingMatrix:
        if m.ids == common:
            return m
        pos = {item_id: i for i, item_id in enumerate(m.ids)}
        return m.take(pos[i] for i in common)

    return PairedDataset(video=aligned(video), audio=aligned(audio))


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
