import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import make_clip

import avbinder
from avbinder import borders, pnm
from avbinder.binder import BindModel
from avbinder.cli import run_cli
from avbinder.embedio import EmbeddingMatrix, load_embeddings, pair_by_id, save_embeddings
from avbinder.errors import DataFormatError
from avbinder.projection import HEAD_BLOCKS, PARAM_FIELDS, init_head
from avbinder.seeding import derive_seed
from avbinder.training import TrainConfig, TrainState, load_checkpoint, save_checkpoint, train


def run(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "gen-synthetic" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(
            [
                "train",
                "--video", "v.mvbe",
                "--audio", "a.mvbe",
                "--out", "m.mvbm",
                "--no-such-flag",
            ],
            capsys,
        )
        assert code == 1
        assert "no-such-flag" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run(["train", "--no-such-flag"], capsys)
        assert code == 1
        assert "required" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 1

    def test_missing_input_file_is_data_error(self, capsys):
        code, _, err = run(
            [
                "train",
                "--video", "/nonexistent/v.mvbe",
                "--audio", "/nonexistent/a.mvbe",
                "--out", "/tmp/x.mvbm",
            ],
            capsys,
        )
        assert code == 2
        assert "/nonexistent/v.mvbe" in err

    def test_directory_as_input_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            ["train", "--video", str(tmp_path), "--audio", str(tmp_path), "--out", str(tmp_path / "m.mvbm")],
            capsys,
        )
        assert code == 2
        assert str(tmp_path) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("gen-synthetic", "--pairs", "0"),
            ("gen-synthetic", "--latent-dim", "0"),
            ("gen-synthetic", "--dim", "-3"),
            ("train", "--batch", "1"),
            ("train", "--epochs", "0"),
            ("train", "--tau", "-1"),
            ("train", "--tau", "nan"),
            ("train", "--lr", "0"),
            ("train", "--lr", "1e39"),
            ("train", "--tau", "1e39"),
            ("train", "--tau", "1e-50"),
            ("train", "--n-val", "-5"),
            ("train", "--eval-every", "-1"),
            ("gen-synthetic", "--noise", "-1"),
            ("gen-synthetic", "--noise", "nan"),
            ("crop", "--edge-fraction", "nan"),
            ("crop", "--edge-fraction", "1.5"),
            ("crop", "--nms-radius", "-1"),
            ("crop", "--hist-std-threshold", "nan"),
            ("crop", "--black-threshold", "inf"),
            ("crop", "--contrast-margin", "inf"),
            ("train", "--batch", "two"),
            ("train", "--lr", "fast"),
            ("crop", "--nms-radius", "2.5"),
            ("crop", "--edge-fraction", "x"),
            ("gen-synthetic", "--seed", "-1"),
            ("train", "--seed", "18446744073709551616"),
        ],
    )
    def test_out_of_range_number_is_usage_error(self, command, flag, value, capsys):
        required = {
            "gen-synthetic": ["--out-video", "v.mvbe", "--out-audio", "a.mvbe"],
            "train": ["--video", "v.mvbe", "--audio", "a.mvbe", "--out", "m.mvbm"],
            "crop": ["f.pgm"],
        }
        code, out, err = run([command, *required[command], flag, value], capsys)
        assert code == 1
        assert out == "" and flag in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--epochs", "1_000"),
            ("gen-synthetic", "--pairs", "１"),
            ("train", "--batch", "+16"),
            ("train", "--seed", " 3"),
            ("crop", "--nms-radius", "٣"),
            ("train", "--k", "1,1_0"),
        ],
    )
    def test_integer_takes_plain_decimal_digits_only(self, command, flag, value, capsys):
        # Python's int reads each of these as a number
        required = {
            "gen-synthetic": ["--out-video", "v.mvbe", "--out-audio", "a.mvbe"],
            "train": ["--video", "v.mvbe", "--audio", "a.mvbe", "--out", "m.mvbm"],
            "crop": ["f.pgm"],
        }
        code, out, err = run([command, *required[command], flag, value], capsys)
        assert code == 1
        assert out == "" and "not plain decimal digits" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--n-val", "0", "--val-video-out", "held.mvbe"], ["--val-video-out", "--n-val"]),
            (["--n-val", "0", "--val-audio-out", "held.mvbe"], ["--val-audio-out", "--n-val"]),
            (["--n-val", "0", "--eval-every", "1"], ["--eval-every", "--n-val"]),
            (["--n-val", "20"], ["--n-val", "--val-video-out", "--val-audio-out", "--eval-every"]),
            (["--k", "3"], ["--k", "--eval-every"]),
            (["--n-val", "20", "--val-video-out", "held.mvbe", "--k", "3"], ["--k", "--eval-every"]),
            (["--n-val", "20", "--eval-every", "2"], ["--eval-every", "--epochs"]),
        ],
        ids=[
            "val-video-out", "val-audio-out", "eval-every", "n-val-unused", "k", "k-without-eval",
            "eval-every-past-epochs",
        ],
    )
    def test_held_out_flags_need_a_split(self, workspace, tmp_path, capsys, flags, named):
        # each once exited 0 and ignored a flag: a held-out flag with no
        # split, a split that nothing used, --k with no eval to cut, or an
        # eval interval longer than the run
        flags = [str(tmp_path / f) if f.endswith(".mvbe") else f for f in flags]
        code, out, err = run(
            [
                "train",
                "--video", str(workspace["video"]),
                "--audio", str(workspace["audio"]),
                "--out", str(tmp_path / "m.mvbm"),
                "--batch", "16",
                "--epochs", "1",
                *flags,
            ],
            capsys,
        )
        assert code == 1
        assert out == "" and all(flag in err for flag in named), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--history", "--val-video-out", "--val-audio-out"])
    @pytest.mark.parametrize("bad", ["dir", "nodir/x", "file/x"])
    def test_train_checks_output_paths_before_any_work(self, workspace, tmp_path, capsys, flag, bad):
        # --history under a missing directory once trained, wrote the
        # checkpoint and only then exited 2; --out naming a directory
        # failed only after the whole run
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_bytes(b"")
        outputs = {f: str(tmp_path / f"{f[2:]}.out") for f in ("--out", "--history", "--val-video-out", "--val-audio-out")}
        outputs[flag] = str(tmp_path / bad)
        code, out, err = run(
            [
                "train",
                "--video", str(workspace["video"]),
                "--audio", str(workspace["audio"]),
                "--n-val", "20",
                "--batch", "16",
                "--epochs", "1",
                *(part for pair in outputs.items() for part in pair),
            ],
            capsys,
        )
        assert code == 2
        assert out == "" and outputs[flag] in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out-video", "--out-audio"])
    @pytest.mark.parametrize("bad", ["", "dir", "nodir/x", "file/x"], ids=["empty", "dir", "nodir", "under-file"])
    def test_gen_synthetic_checks_both_output_paths_first(self, tmp_path, capsys, flag, bad):
        # an --out-audio that could not be written once exited 2 after
        # --out-video had been written
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_bytes(b"")
        outputs = {"--out-video": str(tmp_path / "v.mvbe"), "--out-audio": str(tmp_path / "a.mvbe")}
        outputs[flag] = str(tmp_path / bad) if bad else ""
        code, out, err = run(
            ["gen-synthetic", "--pairs", "8", "--dim", "4", *(part for pair in outputs.items() for part in pair)],
            capsys,
        )
        assert code == 2
        assert out == "" and (outputs[flag] or flag) in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--history", "--val-video-out", "--val-audio-out"])
    def test_train_rejects_an_empty_output_path_before_any_work(self, workspace, tmp_path, capsys, flag):
        # --out "" once trained a whole run and then exited 2, and
        # --history "" exited 0 and wrote no history
        flags = ("--out", "--history", "--val-video-out", "--val-audio-out")
        outputs = {f: "" if f == flag else str(tmp_path / f"{f[2:]}.out") for f in flags}
        code, out, err = run(
            [
                "train",
                "--video", str(workspace["video"]),
                "--audio", str(workspace["audio"]),
                "--n-val", "20",
                "--batch", "16",
                "--epochs", "1",
                *(part for pair in outputs.items() for part in pair),
            ],
            capsys,
        )
        assert code == 2
        assert out == "" and f"{flag}: empty output path" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "avbinder", "--help"], capture_output=True, text=True
        )
        assert out.returncode == 0
        assert "crop" in out.stdout


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synthetic -> train -> eval artifacts shared by the chain tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "video": root / "video.mvbe",
        "audio": root / "audio.mvbe",
        "ckpt": root / "model.mvbm",
        "hist": root / "loss.tsv",
        "val_v": root / "val_video.mvbe",
        "val_a": root / "val_audio.mvbe",
    }
    assert run_cli(
        [
            "gen-synthetic",
            "--pairs", "160",
            "--latent-dim", "8",
            "--noise", "0.05",
            "--dim", "64",
            "--seed", "11",
            "--out-video", str(paths["video"]),
            "--out-audio", str(paths["audio"]),
        ]
    ) == 0
    assert run_cli(
        [
            "train",
            "--video", str(paths["video"]),
            "--audio", str(paths["audio"]),
            "--out", str(paths["ckpt"]),
            "--history", str(paths["hist"]),
            "--n-val", "40",
            "--val-video-out", str(paths["val_v"]),
            "--val-audio-out", str(paths["val_a"]),
            "--batch", "16",
            "--epochs", "8",
            "--seed", "11",
        ]
    ) == 0
    return paths


class TestChain:
    def test_generated_files_load(self, workspace):
        video = load_embeddings(workspace["video"])
        assert video.count == 160 and video.dim == 64

    def test_validation_split_written(self, workspace):
        val_v = load_embeddings(workspace["val_v"])
        val_a = load_embeddings(workspace["val_a"])
        assert val_v.count == val_a.count == 40
        assert val_v.ids == val_a.ids

    def test_history_is_step_loss_tsv(self, workspace):
        lines = workspace["hist"].read_text().strip().split("\n")
        assert len(lines) == 8 * (120 // 16)
        first_step, first_loss = lines[0].split("\t")
        assert first_step == "1"
        assert float(first_loss) > 0

    def test_eval_prints_one_tsv_row_per_k(self, workspace, capsys):
        code, out, _ = run(
            [
                "eval",
                "--checkpoint", str(workspace["ckpt"]),
                "--video", str(workspace["val_v"]),
                "--audio", str(workspace["val_a"]),
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert [r[0] for r in rows] == ["1", "5", "10"]
        values = [float(r[1]) for r in rows]
        assert all(a <= b for a, b in zip(values, values[1:]))  # monotone in K
        assert all("." in r[1] for r in rows)  # one-decimal percentages

    def test_eval_line_format(self, workspace, capsys):
        code, out, _ = run(
            [
                "eval",
                "--checkpoint", str(workspace["ckpt"]),
                "--video", str(workspace["val_v"]),
                "--audio", str(workspace["val_a"]),
                "--k", "1,5",
                "--format", "line",
                "--direction", "a2v",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("direction=audio-to-video\tqueries=40\tR@1=")

    def test_retrieve_single_query(self, workspace, capsys):
        queries = load_embeddings(workspace["val_v"])
        code, out, _ = run(
            [
                "retrieve",
                "--checkpoint", str(workspace["ckpt"]),
                "--queries", str(workspace["val_v"]),
                "--candidates", str(workspace["val_a"]),
                "--query-id", queries.ids[0],
                "--k", "5",
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert len(rows) == 5
        assert [r[0] for r in rows] == [queries.ids[0]] * 5
        assert [int(r[1]) for r in rows] == [1, 2, 3, 4, 5]
        scores = [float(r[3]) for r in rows]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_retrieve_unknown_query_id(self, workspace, capsys):
        code, _, err = run(
            [
                "retrieve",
                "--checkpoint", str(workspace["ckpt"]),
                "--queries", str(workspace["val_v"]),
                "--candidates", str(workspace["val_a"]),
                "--query-id", "nope",
            ],
            capsys,
        )
        assert code == 2
        assert "nope" in err

    def test_retrieve_k_zero_is_usage_error(self, workspace, capsys):
        code, out, err = run(
            [
                "retrieve",
                "--checkpoint", str(workspace["ckpt"]),
                "--queries", str(workspace["val_v"]),
                "--candidates", str(workspace["val_a"]),
                "--k", "0",
            ],
            capsys,
        )
        assert code == 1
        assert out == "" and "--k" in err

    def test_eval_rejects_non_object_metadata(self, workspace, tmp_path, capsys):
        # metadata is the last field: <u32 length><JSON>; make it valid JSON
        # that is not an object
        blob = workspace["ckpt"].read_bytes()
        start = blob.rindex(b'{"audio_head"')
        assert struct.unpack("<I", blob[start - 4 : start])[0] == len(blob) - start
        ckpt = tmp_path / "list_meta.mvbm"
        ckpt.write_bytes(blob[: start - 4] + struct.pack("<I", 2) + b"[]")
        code, _, err = run(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--video", str(workspace["val_v"]),
                "--audio", str(workspace["val_a"]),
            ],
            capsys,
        )
        assert code == 2
        assert "metadata" in err

    @pytest.mark.parametrize("value", [b"NaN", b"Infinity"])
    def test_eval_rejects_non_finite_hyperparameter(self, workspace, tmp_path, capsys, value):
        # Python's JSON reader takes NaN and Infinity; bn_eps = NaN once made
        # every Recall@K read 100.0 with exit 0
        blob = workspace["ckpt"].read_bytes()
        start = blob.rindex(b'{"audio_head"')
        meta = blob[start:].replace(b'"bn_eps":1e-05', b'"bn_eps":' + value, 1)
        assert meta != blob[start:]
        ckpt = tmp_path / "nan_meta.mvbm"
        ckpt.write_bytes(blob[: start - 4] + struct.pack("<I", len(meta)) + meta)
        code, out, err = run(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--video", str(workspace["val_v"]),
                "--audio", str(workspace["val_a"]),
            ],
            capsys,
        )
        assert code == 2
        assert out == "" and "bn_eps" in err


    @pytest.mark.parametrize(
        "key", ["video_head.bn_eps", "audio_head.dropout_p", "audio_head"]
    )
    def test_eval_rejects_missing_head_metadata(self, workspace, tmp_path, capsys, key):
        # a missing hyperparameter once loaded as the head's default: with
        # bn_eps dropped, eval exited 0 with a different Recall@K
        blob = workspace["ckpt"].read_bytes()
        start = blob.rindex(b'{"audio_head"')
        meta = json.loads(blob[start:])
        *owner, name = key.split(".")
        del (meta[owner[0]] if owner else meta)[name]
        text = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        ckpt = tmp_path / "short_meta.mvbm"
        ckpt.write_bytes(blob[: start - 4] + struct.pack("<I", len(text)) + text)
        code, out, err = run(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--video", str(workspace["val_v"]),
                "--audio", str(workspace["val_a"]),
            ],
            capsys,
        )
        assert code == 2
        assert out == "" and "short_meta.mvbm" in err and key in err

    def test_eval_rejects_invalid_adam_moment(self, workspace, tmp_path, capsys):
        # -1.0 and NaN over the first two values of the video head's
        # second-moment w1 block, which follows both heads' parameters and
        # both heads' first moments
        model, _ = load_checkpoint(workspace["ckpt"])
        heads = (model.video_head, model.audio_head)
        offset = 28 + sum(getattr(h, name).nbytes for h in heads for name in HEAD_BLOCKS)
        offset += sum(getattr(h, name).nbytes for h in heads for name in PARAM_FIELDS)
        blob = bytearray(workspace["ckpt"].read_bytes())
        blob[offset : offset + 8] = struct.pack("<2f", -1.0, float("nan"))
        ckpt = tmp_path / "bad_moment.mvbm"
        ckpt.write_bytes(bytes(blob))
        code, out, err = run(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--video", str(workspace["val_v"]),
                "--audio", str(workspace["val_a"]),
            ],
            capsys,
        )
        assert code == 2
        assert out == "" and "bad_moment.mvbm" in err and "Traceback" not in err

    def test_retrieve_rejects_invalid_adam_moment(self, workspace, tmp_path, capsys):
        # the damage of the eval case above
        ckpt = damaged_w1_moment(workspace["ckpt"], tmp_path / "bad_moment.mvbm", "v", 0, 0,
                                 struct.pack("<2f", -1.0, float("nan")))
        code, out, err = run(
            [
                "retrieve",
                "--checkpoint", str(ckpt),
                "--queries", str(workspace["val_v"]),
                "--candidates", str(workspace["val_a"]),
            ],
            capsys,
        )
        assert code == 2
        assert out == "" and "bad_moment.mvbm" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    @pytest.mark.parametrize(
        "kind, head, value",
        [("m", 1, float("inf")), ("v", 0, -1.0), ("v", 1, float("nan"))],
        ids=["audio-m-inf", "video-v-minus1", "audio-v-nan"],
    )
    def test_moment_damage_reads_as_in_the_full_load(self, workspace, tmp_path, capsys, command, kind, head, value):
        # eval and retrieve check the moments without keeping them; their
        # stderr is the full load's error. The last value of the w1 block:
        w1_bytes = load_checkpoint(workspace["ckpt"])[0].video_head.w1.nbytes
        ckpt = damaged_w1_moment(workspace["ckpt"], tmp_path / "bad_moment.mvbm", kind, head, w1_bytes - 4,
                                 struct.pack("<f", value))
        with pytest.raises(DataFormatError) as full:
            load_checkpoint(ckpt)
        files = ("--video", "--audio") if command == "eval" else ("--queries", "--candidates")
        code, out, err = run(
            [command, "--checkpoint", str(ckpt), files[0], str(workspace["val_v"]), files[1], str(workspace["val_a"])],
            capsys,
        )
        assert code == 2
        assert out == "" and err == f"avbinder: {full.value}\n"


def damaged_w1_moment(source, target, kind, head, at, raw):
    """``target``, a copy of checkpoint ``source`` with ``raw`` written ``at``
    bytes into the ``kind`` ("m" or "v") moment block of w1 of head ``head``
    (0 video, 1 audio). Both heads' parameters come first, then both heads'
    first moments, then their second moments, each head's in PARAM_FIELDS
    order."""
    model, _ = load_checkpoint(source)
    heads = (model.video_head, model.audio_head)
    offset = 28 + sum(getattr(h, name).nbytes for h in heads for name in HEAD_BLOCKS)
    offset += sum(getattr(h, name).nbytes for h in heads for name in PARAM_FIELDS) * (kind == "v")
    offset += sum(getattr(h, name).nbytes for h in heads[:head] for name in PARAM_FIELDS)
    blob = bytearray(source.read_bytes())
    blob[offset + at : offset + at + len(raw)] = raw
    target.write_bytes(bytes(blob))
    return target


class TestDivergence:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_non_finite_final_update_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # the loss is checked before each update, so the one update of this
        # run went unchecked: it overflowed w1 and the command exited 0 with
        # a checkpoint that eval rejected. The rate is finite as a float32,
        # but the low temperature lifts gradients above 1 and lr * m_hat overflows
        rng = np.random.default_rng(0)
        ids = tuple(f"p{i:02d}" for i in range(64))
        for side in ("v", "a"):
            save_embeddings(EmbeddingMatrix(ids, rng.standard_normal((64, 32)).astype(np.float32)),
                            tmp_path / f"{side}.mvbe")
        argv = ["train", "--video", str(tmp_path / "v.mvbe"), "--audio", str(tmp_path / "a.mvbe"),
                "--out", str(tmp_path / "m.mvbm"), "--history", str(tmp_path / "h.tsv"),
                "--batch", "64", "--epochs", "1", "--lr", "3e38", "--tau", "1e-3"]
        code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert "diverged at step 1" in err and "non-finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.mvbe", "v.mvbe"]


class TestMixedDims:
    """Each head takes its own side's width: 48-d video with 64-d audio."""

    @pytest.fixture(scope="class")
    def mixed(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mixed")
        rng = np.random.default_rng(5)
        ids = tuple(f"m{i:02d}" for i in range(40))
        paths = {"video": str(root / "v48.mvbe"), "audio": str(root / "a64.mvbe"), "ckpt": str(root / "m.mvbm")}
        save_embeddings(EmbeddingMatrix(ids, rng.standard_normal((40, 48)).astype(np.float32)), paths["video"])
        save_embeddings(EmbeddingMatrix(ids, rng.standard_normal((40, 64)).astype(np.float32)), paths["audio"])
        argv = ["train", "--video", paths["video"], "--audio", paths["audio"], "--out", paths["ckpt"],
                "--batch", "8", "--epochs", "2"]
        assert run_cli(argv) == 0
        return paths

    @pytest.mark.parametrize("direction", ["v2a", "a2v"])
    def test_eval_and_retrieve_run(self, mixed, direction, capsys):
        code, out, _ = run(["eval", "--checkpoint", mixed["ckpt"], "--video", mixed["video"],
                            "--audio", mixed["audio"], "--direction", direction], capsys)
        assert code == 0 and out.count("\n") == 3
        queries, cands = (mixed["video"], mixed["audio"]) if direction == "v2a" else (mixed["audio"], mixed["video"])
        code, out, _ = run(["retrieve", "--checkpoint", mixed["ckpt"], "--queries", queries,
                            "--candidates", cands, "--direction", direction, "--k", "3"], capsys)
        assert code == 0 and out.count("\n") == 40 * 3

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_swapped_files_name_the_file(self, mixed, command, capsys):
        flags = ["--video", "--audio"] if command == "eval" else ["--queries", "--candidates"]
        argv = [command, "--checkpoint", mixed["ckpt"], flags[0], mixed["audio"], flags[1], mixed["video"]]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert mixed["audio"] in err and "64-d" in err and "video head takes 48-d" in err


    @pytest.mark.parametrize("empty_side, dim", [("--queries", 48), ("--candidates", 64)])
    def test_retrieve_with_an_empty_file(self, mixed, empty_side, dim, tmp_path, capsys):
        # zero queries answer nothing; zero candidates leave nothing to
        # search, and the message names the file
        empty = str(tmp_path / "empty.mvbe")
        save_embeddings(EmbeddingMatrix((), np.empty((0, dim), np.float32)), empty)
        files = {"--queries": mixed["video"], "--candidates": mixed["audio"], empty_side: empty}
        argv = ["retrieve", "--checkpoint", mixed["ckpt"], "--k", "3"]
        code, out, err = run(argv + [part for item in files.items() for part in item], capsys)
        assert out == ""
        if empty_side == "--queries":
            assert code == 0 and err == ""
        else:
            assert code == 2 and empty in err and "no candidate rows" in err


class TestRetrieveRowIndependence:
    def test_query_alone_prints_its_lines_from_the_full_file(self, tmp_path, capsys):
        # A query alone in a 1-row file once printed other scores than the
        # same row inside a larger file (99 of 3000 lines here), because the
        # BLAS projected a 1-row batch with other bits. 260 rows put the
        # last four in a second, padded block.
        model = BindModel(video_head=init_head(1, 64, 32, 16), audio_head=init_head(2, 64, 32, 16))
        save_checkpoint(model, TrainState.for_model(model, seed=0, config={}), tmp_path / "m.mvbm")
        rng = np.random.default_rng(0)
        queries = EmbeddingMatrix(
            tuple(f"q{i:03d}" for i in range(260)), rng.standard_normal((260, 64)).astype(np.float32)
        )
        library = EmbeddingMatrix(
            tuple(f"c{i:03d}" for i in range(64)), rng.standard_normal((64, 64)).astype(np.float32)
        )
        save_embeddings(queries, tmp_path / "q.mvbe")
        save_embeddings(library, tmp_path / "c.mvbe")

        def retrieve(path):
            code, out, _ = run(
                ["retrieve", "--checkpoint", str(tmp_path / "m.mvbm"), "--queries", str(path),
                 "--candidates", str(tmp_path / "c.mvbe"), "--k", "10"],
                capsys,
            )
            assert code == 0
            return out

        whole = retrieve(tmp_path / "q.mvbe").splitlines(keepends=True)
        assert len(whole) == 10 * queries.count
        for i in range(queries.count):
            save_embeddings(queries.take([i]), tmp_path / "one.mvbe")
            assert retrieve(tmp_path / "one.mvbe") == "".join(whole[10 * i : 10 * i + 10]), queries.ids[i]


class TestReproducibility:
    def test_same_seed_reproduces_all_artifact_bytes(self, tmp_path, capsys):
        blobs = []
        for run_dir in ("a", "b"):
            d = tmp_path / run_dir
            d.mkdir()
            args_gen = [
                "gen-synthetic",
                "--pairs", "60", "--latent-dim", "4", "--noise", "0.1", "--dim", "32",
                "--seed", "5",
                "--out-video", str(d / "v.mvbe"),
                "--out-audio", str(d / "a.mvbe"),
            ]
            args_train = [
                "train",
                "--video", str(d / "v.mvbe"),
                "--audio", str(d / "a.mvbe"),
                "--out", str(d / "m.mvbm"),
                "--batch", "8", "--epochs", "2", "--seed", "5",
            ]
            assert run_cli(args_gen) == 0
            assert run_cli(args_train) == 0
            capsys.readouterr()
            blobs.append(
                (
                    (d / "v.mvbe").read_bytes(),
                    (d / "a.mvbe").read_bytes(),
                    (d / "m.mvbm").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_eval_and_retrieve_print_the_same_bytes_under_one_or_two_blas_threads(self, tmp_path, capsys):
        # 600 rows make three blocks, so the worker thread projects one while
        # this one projects two; 1024-d rows make every GEMM large enough for
        # BLAS to split it
        model = BindModel(video_head=init_head(1, 1024, 512, 256), audio_head=init_head(2, 1024, 512, 256))
        save_checkpoint(model, TrainState.for_model(model), tmp_path / "m.mvbm")
        rng = np.random.default_rng(12)
        ids = tuple(f"p{i:03d}" for i in range(600))
        for side in ("video", "audio"):
            save_embeddings(EmbeddingMatrix(ids, rng.standard_normal((600, 1024)).astype(np.float32)),
                            tmp_path / f"{side}.mvbe")
        files = ["--checkpoint", str(tmp_path / "m.mvbm")]
        argvs = [
            ["eval", *files, "--video", str(tmp_path / "video.mvbe"), "--audio", str(tmp_path / "audio.mvbe")],
            ["retrieve", *files, "--queries", str(tmp_path / "video.mvbe"),
             "--candidates", str(tmp_path / "audio.mvbe"), "--k", "5"],
        ]
        src = str(Path(avbinder.__file__).resolve().parents[1])
        for argv in argvs:
            outs = []
            for threads in ("1", "2"):
                env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
                done = subprocess.run([sys.executable, "-m", "avbinder", *argv], env=env,
                                      capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr
                outs.append(done.stdout)
            code, here, _ = run(argv, capsys)
            assert code == 0 and outs[0].count("\n") >= 3
            assert outs[0] == outs[1] == here


class TestNoShuffle:
    def test_runs_repeat_and_match_the_unshuffled_api(self, workspace, tmp_path, capsys):
        def train_cli(name, *extra):
            argv = [
                "train",
                "--video", str(workspace["video"]),
                "--audio", str(workspace["audio"]),
                "--out", str(tmp_path / f"{name}.mvbm"),
                "--history", str(tmp_path / f"{name}.tsv"),
                "--batch", "16", "--epochs", "2", "--seed", "6",
                *extra,
            ]
            assert run_cli(argv) == 0
            return (tmp_path / f"{name}.mvbm").read_bytes(), (tmp_path / f"{name}.tsv").read_text()

        first, second = train_cli("a", "--no-shuffle"), train_cli("b", "--no-shuffle")
        assert first == second
        assert train_cli("shuffled")[1] != first[1]
        capsys.readouterr()

        dataset = pair_by_id(load_embeddings(workspace["video"]), load_embeddings(workspace["audio"]))
        model = BindModel(
            video_head=init_head(derive_seed(6, "video-head"), d_in=dataset.video.dim),
            audio_head=init_head(derive_seed(6, "audio-head"), d_in=dataset.audio.dim),
        )
        losses = train(model, dataset, TrainConfig(batch_size=16, epochs=2, seed=6, shuffle=False))
        # each history line holds the shortest decimal that round-trips its loss
        history = [line.split("\t") for line in first[1].splitlines()]
        assert [(int(step), float(loss)) for step, loss in history] == list(enumerate(losses, start=1))


class TestCrop:
    def test_crop_reports_rect_and_writes_frames(self, tmp_path, capsys):
        frames = make_clip((5, 5, 0, 0), n_frames=4)
        frame_paths = []
        for i, frame in enumerate(frames):
            p = tmp_path / f"frame{i:02d}.pgm"
            pnm.write_image(p, frame)
            frame_paths.append(str(p))
        out_dir = tmp_path / "cropped"
        code, out, _ = run(["crop", *frame_paths, "--out", str(out_dir)], capsys)
        assert code == 0
        report = dict(line.split("\t") for line in out.strip().split("\n"))
        assert report == {"left": "0", "top": "5", "right": "192", "bottom": "139"}
        cropped = pnm.read_image(out_dir / "frame00.pgm")
        assert cropped.shape == (134, 192)
        assert np.array_equal(cropped, frames[0][5:139, :])

    def test_threshold_overrides_accepted(self, tmp_path, capsys):
        p = tmp_path / "f.pgm"
        pnm.write_image(p, make_clip((0, 0, 0, 0), n_frames=1)[0])
        code, out, _ = run(["crop", str(p), "--black-threshold", "32"], capsys)
        assert code == 0
        assert out.strip().split("\n")[0] == "left\t0"

    def test_out_rejects_frames_that_share_a_file_name(self, tmp_path, capsys):
        # the second frame's crop once overwrote the first, and the command
        # still reported both as written
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(str(tmp_path / sub / "f.pgm"))
            (tmp_path / sub / "f.pgm").write_bytes(b"not read")  # no frame is read before the check
        code, out, err = run(["crop", *paths, "--out", str(tmp_path / "o")], capsys)
        assert code == 1 and out == ""
        assert paths[0] in err and paths[1] in err and "f.pgm" in err
        assert not (tmp_path / "o").exists()

    def test_out_writes_every_distinctly_named_frame(self, tmp_path, capsys):
        frames = make_clip((5, 5, 0, 0), n_frames=2)
        paths = []
        for sub, name, frame in zip(("a", "b"), ("f.pgm", "g.pgm"), frames):
            (tmp_path / sub).mkdir()
            paths.append(str(tmp_path / sub / name))
            pnm.write_image(paths[-1], frame)
        code, _, err = run(["crop", *paths, "--out", str(tmp_path / "o")], capsys)
        assert code == 0 and "wrote 2 cropped frames" in err
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["f.pgm", "g.pgm"]
        for name, frame in zip(("f.pgm", "g.pgm"), frames):
            assert np.array_equal(pnm.read_image(tmp_path / "o" / name), frame[5:139, :])

    @pytest.mark.parametrize("out_dir", ["file", "file/sub"])
    def test_out_that_cannot_be_a_directory_prints_nothing(self, tmp_path, capsys, out_dir):
        # the rectangle was once printed before --out failed with exit 2
        p = tmp_path / "f.pgm"
        pnm.write_image(p, make_clip((5, 5, 0, 0), n_frames=1)[0])
        (tmp_path / "file").write_bytes(b"")
        code, out, err = run(["crop", str(p), "--out", str(tmp_path / out_dir)], capsys)
        assert code == 2 and out == ""
        assert str(tmp_path / "file") in err and "Traceback" not in err
        assert (tmp_path / "file").read_bytes() == b""

    def test_empty_out_is_data_error(self, tmp_path, capsys):
        # --out "" once printed the rectangle, wrote nothing and exited 0
        p = tmp_path / "f.pgm"
        pnm.write_image(p, make_clip((5, 5, 0, 0), n_frames=1)[0])
        code, out, err = run(["crop", str(p), "--out", ""], capsys)
        assert code == 2 and out == ""
        assert "--out: empty output path" in err and "Traceback" not in err
        assert [q.name for q in tmp_path.iterdir()] == ["f.pgm"]

    def test_frame_that_changes_shape_between_the_passes_is_data_error(self, tmp_path, capsys, monkeypatch):
        # crop reads every frame twice: once to detect, once to crop and write
        paths = []
        for i, frame in enumerate(make_clip((5, 5, 0, 0), n_frames=3)):
            paths.append(str(tmp_path / f"frame{i}.pgm"))
            pnm.write_image(paths[-1], frame)
        real = borders.detect_crop_rect

        def detect_then_rewrite(frames, params):
            rect = real(frames, params)
            pnm.write_image(paths[1], np.zeros((144, 190), np.uint8))
            return rect

        monkeypatch.setattr(borders, "detect_crop_rect", detect_then_rewrite)
        code, _, err = run(["crop", *paths, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert paths[1] in err and "between the passes" in err and "Traceback" not in err
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["frame0.pgm"]

    def test_frame_with_an_overlong_header_token_is_a_short_data_error(self, tmp_path, capsys):
        # the 2,000,000-digit width was once echoed to stderr in full
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n" + b"1" * 2_000_000 + b" 2\n255\n")
        code, out, err = run(["crop", str(p)], capsys)
        assert code == 2 and out == ""
        assert "header token" in err and len(err.encode()) < 200

    def test_corrupt_frame_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"not an image")
        code, _, err = run(["crop", str(p)], capsys)
        assert code == 2
        assert err
