import struct
import warnings

import numpy as np
import pytest

from avbinder import embedio
from avbinder.embedio import (
    EmbeddingMatrix,
    PairedDataset,
    SplitSpec,
    load_embeddings,
    pair_by_id,
    save_embeddings,
    split_dataset,
)
from avbinder.errors import (
    BadMagicError,
    DataFormatError,
    DuplicateIdError,
    NonFiniteValueError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)


def random_matrix(n=7, dim=12, seed=0, ids=None):
    rng = np.random.default_rng(seed)
    if ids is None:
        ids = tuple(f"clip-{i:03d}" for i in range(n))
    return EmbeddingMatrix(ids=ids, data=rng.standard_normal((n, dim)).astype(np.float32))


def bitwise_equal(a: EmbeddingMatrix, b: EmbeddingMatrix) -> bool:
    return (
        a.ids == b.ids
        and a.data.dtype == b.data.dtype
        and a.data.tobytes() == b.data.tobytes()
    )


class TestBinaryFormat:
    def test_round_trip_is_bitwise_identity(self, tmp_path):
        m = random_matrix(ids=("a", "b", "clip-β", "d", "e", "f", "g"))
        path = tmp_path / "m.mvbe"
        save_embeddings(m, path)
        assert bitwise_equal(load_embeddings(path), m)

    def test_save_is_deterministic(self, tmp_path):
        m = random_matrix()
        p1, p2 = tmp_path / "a.mvbe", tmp_path / "b.mvbe"
        save_embeddings(m, p1)
        save_embeddings(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_rejected_before_any_bytes_written(self, tmp_path):
        m = random_matrix()
        m.data.setflags(write=True)
        m.data[2, 3] = np.nan
        path = tmp_path / "bad.mvbe"
        with pytest.raises(NonFiniteValueError):
            save_embeddings(m, path)
        assert not path.exists()

    def test_empty_matrix_round_trips(self, tmp_path):
        m = EmbeddingMatrix(ids=(), data=np.zeros((0, 1024), np.float32))
        path = tmp_path / "empty.mvbe"
        save_embeddings(m, path)
        loaded = load_embeddings(path)
        assert loaded.count == 0 and loaded.dim == 1024

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mvbe"
        save_embeddings(random_matrix(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_embeddings(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.mvbe"
        save_embeddings(random_matrix(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_embeddings(path)

    def test_declared_count_exceeds_rows(self, tmp_path):
        # header says 3 rows but the data section holds 2
        m = random_matrix(n=3, dim=4)
        path = tmp_path / "m.mvbe"
        save_embeddings(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 4 * 4])
        with pytest.raises(TruncatedPayloadError):
            load_embeddings(path)

    def test_id_length_running_into_the_payload_is_truncated(self, tmp_path):
        m = random_matrix(n=3, dim=4)
        path = tmp_path / "m.mvbe"
        save_embeddings(m, path)
        blob = bytearray(path.read_bytes())
        last = 20 + 2 * (2 + 8)  # the third record, after two "clip-00X" ids
        blob[last : last + 2] = struct.pack("<H", 8 + 5)  # 5 bytes past the last id
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedPayloadError, match=rf"m\.mvbe: truncated, the id record at byte {last} runs"):
            load_embeddings(path)

    def test_id_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "m.mvbe"
        save_embeddings(random_matrix(n=2, dim=3), path)
        blob = bytearray(path.read_bytes())
        blob[20 + 2] = 0xFF  # the first id's first byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=r"m\.mvbe: id is not valid UTF-8"):
            load_embeddings(path)

    def test_trailing_byte_names_the_files_end(self, tmp_path):
        path = tmp_path / "m.mvbe"
        save_embeddings(random_matrix(n=2, dim=3), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TruncatedPayloadError, match=rf"m\.mvbe: trailing data after byte {size}$"):
            load_embeddings(path)

    def test_duplicate_id(self, tmp_path):
        m = random_matrix(n=2, dim=3)
        path = tmp_path / "m.mvbe"
        save_embeddings(m, path)
        blob = bytearray(path.read_bytes())
        # both id records are "clip-00X" with the same length; clone the first
        first = bytes(blob[20 : 20 + 2 + 8])
        blob[20 + 2 + 8 : 20 + 2 * (2 + 8)] = first
        path.write_bytes(bytes(blob))
        with pytest.raises(DuplicateIdError):
            load_embeddings(path)

    def test_non_finite_payload(self, tmp_path):
        m = random_matrix(n=2, dim=3)
        path = tmp_path / "m.mvbe"
        save_embeddings(m, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValueError):
            load_embeddings(path)

    def test_corrupted_headers_always_error(self, tmp_path):
        """Flipping any header field must produce an error, never garbage."""
        m = random_matrix(n=4, dim=6)
        path = tmp_path / "m.mvbe"
        save_embeddings(m, path)
        good = path.read_bytes()

        def corrupt(mutate):
            blob = bytearray(good)
            mutate(blob)
            path.write_bytes(bytes(blob))
            with pytest.raises(DataFormatError):
                load_embeddings(path)

        corrupt(lambda b: b.__setitem__(slice(0, 4), b"MVBX"))
        corrupt(lambda b: b.__setitem__(slice(4, 8), struct.pack("<I", 2)))
        corrupt(lambda b: b.__setitem__(slice(8, 12), struct.pack("<I", 7)))  # dim + 1
        corrupt(lambda b: b.__setitem__(slice(8, 12), struct.pack("<I", 5)))  # dim - 1
        corrupt(lambda b: b.__setitem__(slice(12, 20), struct.pack("<Q", 5)))  # count + 1
        corrupt(lambda b: b.__setitem__(slice(12, 20), struct.pack("<Q", 3)))  # count - 1
        corrupt(lambda b: b.__delitem__(slice(len(b) - 1, len(b))))  # drop a byte
        corrupt(lambda b: b.extend(b"\x00"))  # trailing byte


class TestTsvFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((20, 9)).astype(np.float32)
        values[0, 0] = np.float32(1e-37)  # tiny magnitudes survive too
        values[1, 1] = np.float32(3e37)
        m = EmbeddingMatrix(ids=tuple(f"t{i}" for i in range(20)), data=values)
        path = tmp_path / "m.tsv"
        save_embeddings(m, path)
        assert bitwise_equal(load_embeddings(path), m)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\t1.0\t2.0\nb\t3.0\n")
        with pytest.raises(TruncatedPayloadError):
            load_embeddings(path)

    def test_duplicate_and_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\t1.0\na\t2.0\n")
        with pytest.raises(DuplicateIdError):
            load_embeddings(path)
        path.write_text("a\t1.0\nb\tnan\n")
        with pytest.raises(NonFiniteValueError):
            load_embeddings(path)

    def test_value_outside_float32_names_the_line(self, tmp_path):
        path = tmp_path / "big.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's cast warning must not escape
            for value in ("1e39", "-3.4028236e38"):
                path.write_text(f"a\t1.0\nb\t{value}\n")
                with pytest.raises(NonFiniteValueError, match=r"big\.tsv:2: value outside float32 range"):
                    load_embeddings(path)
            path.write_text("a\t3.4028235e38\n")  # float32 max still loads
            assert load_embeddings(path).data[0, 0] == np.finfo(np.float32).max

    def test_invalid_utf8_is_a_data_error_naming_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"a\t1.0\n\xff\t2.0\n")
        with pytest.raises(DataFormatError, match="m.tsv"):
            load_embeddings(path)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_ids_with_other_line_breaks_round_trip(self, tmp_path, char):
        # str.splitlines breaks lines at these too; the writer ends lines only at "\n"
        m = random_matrix(n=3, dim=4, ids=("a", f"b{char}c", f"{char}d{char}"))
        save_embeddings(m, tmp_path / "m.tsv")
        assert bitwise_equal(load_embeddings(tmp_path / "m.tsv"), m)

    def test_crlf_line_ends_load(self, tmp_path):
        m = random_matrix(n=4, dim=3)
        save_embeddings(m, tmp_path / "m.tsv")
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes((tmp_path / "m.tsv").read_bytes().replace(b"\n", b"\r\n"))
        assert bitwise_equal(load_embeddings(crlf), m)

    @pytest.mark.parametrize("rows_sized", [2, 4])
    def test_rows_that_change_between_the_passes_are_truncation(self, tmp_path, monkeypatch, rows_sized):
        # the byte pass sized the block for another row count than the second pass reads
        save_embeddings(random_matrix(n=3, dim=2), tmp_path / "m.tsv")
        real = embedio._tsv_shape
        monkeypatch.setattr(embedio, "_tsv_shape", lambda fh: (rows_sized, real(fh)[1]))
        with pytest.raises(TruncatedPayloadError, match=r"m\.tsv.*changed while it was read"):
            load_embeddings(tmp_path / "m.tsv")

    def test_long_id_is_tsv_only(self, tmp_path):
        long_id = "\u00e9" * 35_000  # 70,000 UTF-8 bytes
        (tmp_path / "hand.tsv").write_bytes(f"{long_id}\t1.5\t-2\nb\t0\t3\n".encode("utf-8"))
        m = load_embeddings(tmp_path / "hand.tsv")
        assert m.ids == (long_id, "b") and m.data.tolist() == [[1.5, -2.0], [0.0, 3.0]]
        save_embeddings(m, tmp_path / "m.tsv")
        assert bitwise_equal(load_embeddings(tmp_path / "m.tsv"), m)
        # MVBE stores an id's length as a uint16
        with pytest.raises(ValueError, match="65535"):
            save_embeddings(m, tmp_path / "m.mvbe")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hand.tsv", "m.tsv"]
        at_limit = EmbeddingMatrix(("x" * 65535,), np.ones((1, 2), np.float32))
        save_embeddings(at_limit, tmp_path / "m.mvbe")
        assert bitwise_equal(load_embeddings(tmp_path / "m.mvbe"), at_limit)


class TestPairing:
    def test_intersection_sorted(self):
        video = random_matrix(n=3, ids=("a", "b", "c"))
        audio = random_matrix(n=3, seed=1, ids=("b", "c", "d"))
        paired = pair_by_id(video, audio)
        assert paired.ids == ("b", "c")
        assert np.array_equal(paired.video.data[0], video.data[1])
        assert np.array_equal(paired.audio.data[1], audio.data[1])

    def test_row_order_is_canonical(self):
        video = random_matrix(n=3, ids=("c", "a", "b"))
        audio = random_matrix(n=3, seed=1, ids=("b", "c", "a"))
        p1 = pair_by_id(video, audio)
        p2 = pair_by_id(video.take([2, 0, 1]), audio.take([1, 2, 0]))
        assert p1.ids == ("a", "b", "c") == p2.ids
        assert np.array_equal(p1.video.data, p2.video.data)
        assert np.array_equal(p1.audio.data, p2.audio.data)

    def test_disjoint_ids_error(self):
        video = random_matrix(n=2, ids=("a", "b"))
        audio = random_matrix(n=2, seed=1, ids=("c", "d"))
        with pytest.raises(ValueError, match="no common ids"):
            pair_by_id(video, audio)

    def test_paired_index_alignment(self):
        video = random_matrix(n=5, ids=("e", "d", "c", "b", "a"))
        audio = random_matrix(n=5, seed=1, ids=("a", "c", "e", "b", "d"))
        paired = pair_by_id(video, audio)
        for i in range(paired.count):
            assert paired.video.ids[i] == paired.audio.ids[i]

    def test_an_aligned_side_is_not_copied(self):
        video = random_matrix(n=6)
        audio = random_matrix(n=6, seed=1)
        paired = pair_by_id(video, audio)
        assert paired.video is video and paired.audio is audio
        shuffled = pair_by_id(video, audio.take([3, 0, 5, 1, 4, 2]))
        assert shuffled.video is video
        assert bitwise_equal(shuffled.audio, audio)
        # the split takes the same rows as from copies of the two matrices
        copies = PairedDataset(video.take(range(6)), audio.take(range(6)))
        for got, want in zip(split_dataset(paired, SplitSpec(n_val=2, seed=4)),
                             split_dataset(copies, SplitSpec(n_val=2, seed=4))):
            assert bitwise_equal(got.video, want.video) and bitwise_equal(got.audio, want.audio)


class TestSplit:
    def make_paired(self, n, dim=6, seed=3):
        rng = np.random.default_rng(seed)
        ids = tuple(f"s{i:05d}" for i in range(n))
        return PairedDataset(
            video=EmbeddingMatrix(ids=ids, data=rng.standard_normal((n, dim)).astype(np.float32)),
            audio=EmbeddingMatrix(ids=ids, data=rng.standard_normal((n, dim)).astype(np.float32)),
        )

    def test_paper_protocol_counts(self):
        # 500 validation pairs held out of 8440 leaves 7940 for training
        d = self.make_paired(8440, dim=2)
        train, val = split_dataset(d, SplitSpec(n_val=500, seed=1))
        assert train.count == 7940
        assert val.count == 500

    def test_same_seed_same_split(self):
        d = self.make_paired(100)
        t1, v1 = split_dataset(d, SplitSpec(n_val=25, seed=9))
        t2, v2 = split_dataset(d, SplitSpec(n_val=25, seed=9))
        assert t1.ids == t2.ids and v1.ids == v2.ids

    def test_zero_validation(self):
        d = self.make_paired(10)
        train, val = split_dataset(d, SplitSpec(n_val=0, seed=0))
        assert val.count == 0
        assert train.ids == d.ids

    def test_oversized_request_errors(self):
        d = self.make_paired(10)
        with pytest.raises(ValueError):
            split_dataset(d, SplitSpec(n_val=11, seed=0))

    def test_partition_property(self):
        d = self.make_paired(137)
        for seed in range(5):
            train, val = split_dataset(d, SplitSpec(n_val=37, seed=seed))
            assert train.count + val.count == d.count
            assert set(train.ids) | set(val.ids) == set(d.ids)
            assert not set(train.ids) & set(val.ids)


class TestMatrixInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            EmbeddingMatrix(ids=("a", "a"), data=np.zeros((2, 3), np.float32))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(ids=("a",), data=np.zeros((2, 3), np.float32))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValueError):
            EmbeddingMatrix(ids=("a",), data=np.array([[np.inf, 0.0]], np.float32))

    def test_data_is_read_only(self):
        m = random_matrix()
        with pytest.raises(ValueError):
            m.data[0, 0] = 1.0

    def test_misaligned_pair_rejected(self):
        with pytest.raises(ValueError):
            PairedDataset(
                video=random_matrix(n=2, ids=("a", "b")),
                audio=random_matrix(n=2, ids=("a", "c")),
            )
