import struct
import subprocess
import sys

import numpy as np
import pytest

from helpers import make_clip

from avbinder import pnm
from avbinder.cli import run_cli
from avbinder.embedio import load_embeddings


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
            ("train", "--n-val", "-5"),
            ("train", "--eval-every", "-1"),
        ],
    )
    def test_out_of_range_number_is_usage_error(self, command, flag, value, capsys):
        required = {
            "gen-synthetic": ["--out-video", "v.mvbe", "--out-audio", "a.mvbe"],
            "train": ["--video", "v.mvbe", "--audio", "a.mvbe", "--out", "m.mvbm"],
        }
        code, out, err = run([command, *required[command], flag, value], capsys)
        assert code == 1
        assert out == "" and flag in err and "Traceback" not in err

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

    def test_corrupt_frame_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"not an image")
        code, _, err = run(["crop", str(p)], capsys)
        assert code == 2
        assert err
