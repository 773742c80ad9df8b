"""Every command against a matrix of bad arguments.

Each valued flag of each subcommand, found through ``build_parser()`` so a
new flag joins by itself, gets odd numbers and odd text; each flag that
takes free text also gets odd paths. Whatever the argv, the command must
end in a documented exit code (0 success, 1 usage, 2 data, 3 divergence)
with no traceback, and a command that fails must leave every file as it
found it: none created, none changed.
"""

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import shutil
import signal
import stat
import subprocess
import sys

import pytest

from helpers import make_clip

import avbinder
from avbinder import pnm
from avbinder.cli import build_parser, run_cli
from avbinder.embedio import load_embeddings, write_atomic
from avbinder.training import load_checkpoint

HUGE = "9" * 400
ODD_VALUES = ("nan", "inf", "1e400", "", "-0", "0x10", "1_000", "１", HUGE)
# a valid request for ages of training, so not run: 10**400 - 1 epochs
LONG_RUNS = {("--epochs", HUGE)}


def odd_paths(root):
    """Paths that no command can use as a file: a directory, a path under a
    regular file, a missing parent, the empty path and a FIFO."""
    return (str(root / "a-dir"), str(root / "a-file" / "x"), str(root / "no-dir" / "x"), "", str(root / "fifo"))


def make_inputs(root):
    """Tiny valid inputs: 100 paired 8-d rows, a checkpoint trained on them
    and a two-frame letterboxed clip."""
    (root / "a-dir").mkdir()
    (root / "out").mkdir()
    (root / "a-file").write_bytes(b"x")
    os.mkfifo(root / "fifo")
    video, audio, model = (str(root / n) for n in ("video.mvbe", "audio.mvbe", "model.mvbm"))
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(["gen-synthetic", "--pairs", "100", "--latent-dim", "4", "--dim", "8",
                        "--out-video", video, "--out-audio", audio]) == 0
        assert run_cli(["train", "--video", video, "--audio", audio, "--out", model,
                        "--batch", "32", "--epochs", "1"]) == 0
    frames = []
    for i, frame in enumerate(make_clip((4, 4, 0, 0), n_frames=2, height=24, width=32)):
        frames.append(str(root / f"frame{i}.pgm"))
        pnm.write_image(frames[-1], frame)
    return video, audio, model, frames


def base_argvs(root, video, audio, model, frames):
    """One argv per subcommand that exits 0, with its outputs under out/."""
    out = root / "out"
    return {
        "gen-synthetic": ["gen-synthetic", "--pairs", "8", "--latent-dim", "2", "--dim", "4",
                          "--out-video", str(out / "v.mvbe"), "--out-audio", str(out / "a.mvbe")],
        "train": ["train", "--video", video, "--audio", audio, "--out", str(out / "m.mvbm"),
                  "--history", str(out / "h.tsv"), "--n-val", "20", "--val-video-out", str(out / "vv.mvbe"),
                  "--val-audio-out", str(out / "va.mvbe"), "--batch", "40", "--epochs", "1",
                  "--eval-every", "1", "--k", "1,2"],
        "eval": ["eval", "--checkpoint", model, "--video", video, "--audio", audio, "--k", "1,2"],
        "retrieve": ["retrieve", "--checkpoint", model, "--queries", video, "--candidates", audio, "--k", "3"],
        "crop": ["crop", *frames, "--out", str(out / "crop")],
    }


def with_value(argv, action, value):
    """``argv`` with the action's value set to ``value``."""
    if not action.option_strings:  # crop's frames: one odd frame in place of the clip
        return [argv[0], value, *argv[argv.index("--out"):]]
    flag = action.option_strings[0]
    if flag in argv:
        i = argv.index(flag)
        return [*argv[: i + 1], value, *argv[i + 2 :]]
    return [*argv, flag, value]


def matrix_argvs(root, bases):
    """An argv for each odd value of each valued flag of each subcommand."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.nargs == 0:  # --help and switches take no value
                continue
            values = ODD_VALUES + (odd_paths(root) if action.type is None and not action.choices else ())
            flag = action.option_strings[0] if action.option_strings else action.dest
            for value in values:
                if (flag, value) not in LONG_RUNS:
                    yield with_value(bases[command], action, value)


def snapshot(root):
    """Every entry under ``root``: a regular file by size and SHA-256, any
    other entry by its kind. A FIFO is never opened."""
    entries = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    entries[path] = (os.path.getsize(path), hashlib.sha256(fh.read()).hexdigest())
            else:
                entries[path] = "dir" if os.path.isdir(path) else "fifo"
    return entries


def restore(root, before, saved):
    """Put ``root`` back as ``before`` found it: remove what a run created,
    and remake what it changed from the ``saved`` bytes."""
    after = snapshot(root)
    for path in sorted(set(after) - set(before), key=len, reverse=True):  # deepest first
        os.rmdir(path) if after[path] == "dir" else os.unlink(path)
    for path in sorted(p for p in before if after.get(p) != before[p]):  # parents first
        if os.path.lexists(path):
            shutil.rmtree(path) if os.path.isdir(path) else os.unlink(path)
        if before[path] == "dir":
            os.mkdir(path)
        elif before[path] == "fifo":
            os.mkfifo(path)
        else:
            pathlib.Path(path).write_bytes(saved[path])


class _Overran(BaseException):
    """Raised in code that runs past its time: no handler of the CLI
    catches it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise :class:`_Overran` in the body after ``seconds``: a signal stops
    even an open() that blocks."""

    def overran(signum, frame):
        raise _Overran

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_bounded(argv, seconds=10.0):
    """(exit code, stderr) of ``argv``, or (None, "") if it is still running
    after ``seconds``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with time_limit(seconds), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    except _Overran:
        code = None
    return code, err.getvalue()


def test_bad_argument_matrix(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a relative odd value is written
    video, audio, model, frames = make_inputs(tmp_path)
    bases = base_argvs(tmp_path, video, audio, model, frames)
    before = snapshot(tmp_path)
    saved = {p: pathlib.Path(p).read_bytes() for p, entry in before.items() if isinstance(entry, tuple)}
    for argv in bases.values():  # the matrix varies argv that work
        assert run_bounded(argv)[0] == 0, argv
        restore(tmp_path, before, saved)
    out, train = tmp_path / "out", bases["train"][: bases["train"].index("--n-val")]
    argvs = list(matrix_argvs(tmp_path, bases)) + [
        # train runs that fail in training, after the held-out split
        [*train, "--n-val", n_val, "--val-video-out", str(out / "vv.mvbe"), "--val-audio-out", str(out / "va.mvbe"),
         *odd]
        for n_val, odd in (("90", ["--batch", "16"]), ("10", ["--batch", "16", "--lr", "3e38"]))
    ]
    failures = []
    for argv in argvs:
        code, err = run_bounded(argv)
        after = snapshot(tmp_path)
        # an input is never changed; a failed run also creates nothing
        changed = sorted(p for p in set(before) | set(after)
                         if after.get(p) != before.get(p) and (code != 0 or p in before))
        if code not in (0, 1, 2, 3) or "Traceback" in err or changed:
            failures.append(f"exit {code}: {' '.join(argv)}: {changed or err}".replace(f"{tmp_path}/", ""))
        restore(tmp_path, before, saved)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("odd, code", [(["--n-val", "90", "--batch", "16"], 2),
                                       (["--n-val", "10", "--batch", "16", "--lr", "3e38"], 3)])
def test_train_that_fails_writes_no_held_out_file(tmp_path, odd, code):
    # 90 of 100 pairs held out leave 10 for a batch of 16; lr 3e38 diverges
    video, audio, _, _ = make_inputs(tmp_path)
    out = tmp_path / "out"
    argv = ["train", "--video", video, "--audio", audio, "--out", str(out / "m.mvbm"),
            "--val-video-out", str(out / "vv.mvbe"), "--val-audio-out", str(out / "va.mvbe"), *odd]
    assert run_bounded(argv)[0] == code
    assert list(out.iterdir()) == []


def test_diverging_train_prints_one_line(tmp_path):
    # in a child process, where numpy's warnings reach stderr as a user sees them
    video, audio, _, _ = make_inputs(tmp_path)
    out = tmp_path / "out"
    src = str(pathlib.Path(avbinder.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "avbinder", "train", "--video", video, "--audio", audio, "--out", str(out / "m.mvbm"),
         "--val-video-out", str(out / "vv.mvbe"), "--n-val", "10", "--batch", "16", "--lr", "3e38"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3
    assert done.stderr.splitlines() == ["avbinder: training diverged at step 2: loss=nan"], done.stderr


def test_a_fifo_is_neither_written_over_nor_read(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="not a regular file"):
        write_atomic(fifo, [b"x"])
    # opening a FIFO to read would wait for a writer
    for read in (load_embeddings, pnm.read_image, load_checkpoint):
        with time_limit(10.0), pytest.raises(OSError, match="not a regular file"):
            read(fifo)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(tmp_path) == ["fifo"]
