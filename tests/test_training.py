import os
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import abs_latent_split, load_outcome, pls_projected_pairs, projected_pairs, reference_train_step

import avbinder
from avbinder.binder import BindModel, project_audio
from avbinder.embedio import SplitSpec, save_embeddings, split_dataset
from avbinder.errors import (
    BadMagicError,
    DataFormatError,
    DivergenceError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from avbinder.projection import HEAD_BLOCKS, PARAM_FIELDS, init_head
from avbinder.retrieval import recall_at_k
from avbinder.seeding import derive_seed
from avbinder import projection, training
from avbinder.training import (
    TrainConfig,
    TrainState,
    gen_synthetic,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
)


def noisy_split(seed):
    """(train, held-out) halves of the noise-16 task: 2000 and 500 pairs."""
    data = gen_synthetic(2500, 32, 16.0, seed=seed)
    return split_dataset(data, SplitSpec(n_val=500, seed=derive_seed(seed, "split")))


def full_size_model(seed):
    """Both heads at their default 1024 -> 512 -> 256 shape, as ``avbinder
    train --seed SEED`` builds them at the default tau."""
    return BindModel(
        video_head=init_head(derive_seed(seed, "video-head"), d_in=1024),
        audio_head=init_head(derive_seed(seed, "audio-head"), d_in=1024),
        temperature=0.07,
    )


def small_model(seed=0, d_in=64, tau=0.07):
    return BindModel(
        video_head=init_head(seed + 1, d_in, 32, 16),
        audio_head=init_head(seed + 2, d_in, 32, 16),
        temperature=tau,
    )


def head_bytes(model):
    return b"".join(
        getattr(h, n).tobytes()
        for h in (model.video_head, model.audio_head)
        for n in PARAM_FIELDS
    )


class TestTrainStep:
    def test_deterministic_given_seed(self):
        data = gen_synthetic(8, 4, 0.1, seed=3, dim=64)
        results = []
        for _ in range(2):
            model = small_model()
            state = TrainState.for_model(model)
            loss = train_step(
                model,
                data.video.data,
                data.audio.data,
                state,
                lr=1e-3,
                rng=np.random.default_rng(5),
            )
            results.append((loss, head_bytes(model)))
        assert results[0] == results[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_formulas_bit_for_bit(self, dtype):
        # the reference replays the step in the head's dtype, so each case
        # pins the operation order of forward, backward and Adam in that
        # dtype. Both sides run the same GEMMs on the same shapes, so the
        # bits do not depend on the BLAS build.
        def build():
            model = BindModel(
                video_head=init_head(1, 24, 16, 8, dtype=dtype),
                audio_head=init_head(2, 20, 16, 8, dtype=dtype),
                temperature=0.1,
            )
            return model, TrainState.for_model(model), np.random.default_rng(7)

        data_rng = np.random.default_rng(3)
        model, state, rng = build()
        ref_model, ref_state, ref_rng = build()
        for _ in range(3):
            xv = data_rng.standard_normal((12, 24)).astype(np.float32)
            xa = data_rng.standard_normal((12, 20)).astype(np.float32)
            loss = train_step(model, xv, xa, state, 1e-2, rng)
            assert loss.hex() == reference_train_step(ref_model, xv, xa, ref_state, 1e-2, ref_rng).hex()
        for kind in ("video", "audio"):
            head, ref_head = getattr(model, f"{kind}_head"), getattr(ref_model, f"{kind}_head")
            opt, ref_opt = getattr(state, f"{kind}_opt"), getattr(ref_state, f"{kind}_opt")
            for name in training.HEAD_BLOCKS:
                assert getattr(head, name).tobytes() == getattr(ref_head, name).tobytes(), name
            for name in PARAM_FIELDS:
                assert opt.m[name].tobytes() == ref_opt.m[name].tobytes(), name
                assert opt.v[name].tobytes() == ref_opt.v[name].tobytes(), name
        assert state.step == ref_state.step == 3

    def test_zero_gradients_leave_parameters_unchanged(self, monkeypatch):
        monkeypatch.setattr(
            training, "info_nce_backward", lambda s, tau: np.zeros_like(np.asarray(s))
        )
        data = gen_synthetic(8, 4, 0.1, seed=3, dim=64)
        model = small_model()
        before = head_bytes(model)
        train_step(
            model,
            data.video.data,
            data.audio.data,
            TrainState.for_model(model),
            lr=1e-3,
            rng=np.random.default_rng(5),
        )
        assert head_bytes(model) == before

    def test_batch_of_one_rejected(self):
        data = gen_synthetic(2, 4, 0.1, seed=3, dim=64)
        model = small_model()
        with pytest.raises(ValueError):
            train_step(
                model,
                data.video.data[:1],
                data.audio.data[:1],
                TrainState.for_model(model),
                lr=1e-3,
                rng=np.random.default_rng(5),
            )

    def test_divergence_aborts_loudly(self, monkeypatch):
        monkeypatch.setattr(training, "info_nce_loss", lambda s, tau: float("inf"))
        data = gen_synthetic(8, 4, 0.1, seed=3, dim=64)
        model = small_model()
        with pytest.raises(DivergenceError):
            train_step(
                model,
                data.video.data,
                data.audio.data,
                TrainState.for_model(model),
                lr=1e-3,
                rng=np.random.default_rng(5),
            )

    def test_loss_decreases_on_bindable_data(self):
        data = gen_synthetic(64, 8, 0.05, seed=1, dim=64)
        model = small_model(seed=4)
        state = TrainState.for_model(model)
        rng = np.random.default_rng(9)
        order_rng = np.random.default_rng(10)
        losses = []
        for _ in range(200):
            idx = order_rng.choice(64, size=32, replace=False)
            losses.append(
                train_step(
                    model, data.video.data[idx], data.audio.data[idx], state, 1e-3, rng
                )
            )
        assert losses[-1] < losses[0]
        # trend property: trailing moving average well below the leading one
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


def model_bytes(model, state):
    """Every block of both heads, both Adam states and the step count."""
    heads = [getattr(h, n).tobytes() for h in (model.video_head, model.audio_head) for n in HEAD_BLOCKS]
    moments = [getattr(opt, kind)[n].tobytes()
               for opt in (state.video_opt, state.audio_opt) for kind in ("m", "v") for n in PARAM_FIELDS]
    return heads, moments, state.step


class _Interrupt(BaseException):
    """Raised by a signal handler, as KeyboardInterrupt is."""


class TestTwoThreads:
    """The video head's work runs on a second thread, the audio head's on the caller's."""

    @pytest.fixture()
    def stepped(self):
        """A model and state one step in, and a fresh batch."""
        data = gen_synthetic(16, 4, 0.1, seed=8, dim=64)
        model = small_model(seed=3)
        state = TrainState.for_model(model)
        train_step(model, data.video.data[:8], data.audio.data[:8], state, 1e-2, np.random.default_rng(5))
        return model, state, data.video.data[8:].copy(), data.audio.data[8:].copy()

    def test_both_batches_non_finite_raise_the_video_heads_error(self, stepped):
        model, state, xv, xa = stepped
        xv[0, 0] = np.nan
        xa[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite input batch") as excinfo:
            train_step(model, xv, xa, state, 1e-2, np.random.default_rng(1))
        assert excinfo.traceback[-1].locals["head"] is model.video_head

    def test_both_tasks_failing_raise_the_video_tasks_error(self):
        def video():
            time.sleep(0.05)  # the audio task fails first
            raise KeyError("video")

        def audio():
            raise KeyError("audio")

        with pytest.raises(KeyError, match="video") as excinfo:
            projection.on_worker_and_caller(video, audio)
        assert str(excinfo.value.__context__) == "'audio'"

    def test_results_come_back_video_first(self):
        assert projection.on_worker_and_caller(lambda: "video", lambda: "audio") == ("video", "audio")

    def test_audio_failure_changes_nothing(self, stepped):
        model, state, xv, xa = stepped
        xa[3, 2] = np.nan
        before = model_bytes(model, state)
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="non-finite input batch"):
            train_step(model, xv, xa, state, 1e-2, rng)
        assert model_bytes(model, state) == before
        assert rng.random() == np.random.default_rng(1).random()  # no dropout drawn

    @pytest.mark.parametrize(
        "fail", [None, "video forward", "audio forward", "divergence", "video backward", "audio update"]
    )
    def test_no_thread_outlives_a_train_step(self, stepped, monkeypatch, fail):
        model, state, xv, xa = stepped
        failing_head = {"video forward": model.video_head, "audio forward": model.audio_head}.get(fail)
        real_forward, real_backward, real_update = training.head_forward, training.head_backward, training.apply_update

        def forward(head, *args, **kwargs):
            if head is failing_head:
                raise ArithmeticError(fail)
            return real_forward(head, *args, **kwargs)

        def backward(head, *args):
            if fail == "video backward" and head is model.video_head:
                raise ArithmeticError(fail)
            return real_backward(head, *args)

        def update(head, *args):
            if fail == "audio update" and head is model.audio_head:
                raise ArithmeticError(fail)
            return real_update(head, *args)

        monkeypatch.setattr(training, "head_forward", forward)
        monkeypatch.setattr(training, "head_backward", backward)
        monkeypatch.setattr(training, "apply_update", update)
        if fail == "divergence":
            monkeypatch.setattr(training, "info_nce_loss", lambda s, tau: float("nan"))
        before = threading.active_count()
        if fail is None:
            train_step(model, xv, xa, state, 1e-2, np.random.default_rng(1))
        else:
            with pytest.raises((ArithmeticError, DivergenceError)):
                train_step(model, xv, xa, state, 1e-2, np.random.default_rng(1))
        assert threading.active_count() == before

    def test_a_step_is_two_task_pairs(self, stepped, monkeypatch):
        model, state, xv, xa = stepped
        pairs = []
        real_pair = training.on_worker_and_caller

        def pair(worker_task, caller_task):
            pairs.append(worker_task)
            return real_pair(worker_task, caller_task)

        monkeypatch.setattr(training, "on_worker_and_caller", pair)
        train_step(model, xv, xa, state, 1e-2, np.random.default_rng(1))
        assert len(pairs) == 2

    def test_a_diverging_step_runs_no_backward_and_no_update(self, stepped, monkeypatch):
        model, state, xv, xa = stepped
        calls = []
        monkeypatch.setattr(training, "head_backward", lambda head, *args: calls.append("backward"))
        monkeypatch.setattr(training, "apply_update", lambda head, *args: calls.append("update"))
        monkeypatch.setattr(training, "info_nce_loss", lambda s, tau: float("nan"))
        with pytest.raises(DivergenceError, match="step 2"):
            train_step(model, xv, xa, state, 1e-2, np.random.default_rng(1))
        assert calls == [] and state.step == 1

    def test_the_video_heads_step_runs_on_the_worker_in_two_tasks(self, stepped, monkeypatch):
        # forward in one worker task, then backward and update in the next;
        # the video head's gradients never reach the caller's thread
        model, state, xv, xa = stepped
        events = []
        real_pair = training.on_worker_and_caller

        def pair(worker_task, caller_task):
            def task():
                events.append(("task", threading.get_ident()))
                return worker_task()

            return real_pair(task, caller_task)

        def recorded(name):
            real = getattr(training, name)

            def call(head, *args, **kwargs):
                if head is model.video_head:
                    events.append((name, threading.get_ident()))
                return real(head, *args, **kwargs)

            return call

        monkeypatch.setattr(training, "on_worker_and_caller", pair)
        for name in ("head_forward", "head_backward", "apply_update"):
            monkeypatch.setattr(training, name, recorded(name))
        with projection.worker_thread():
            for _ in range(2):
                train_step(model, xv, xa, state, 1e-2, np.random.default_rng(1))
        step = ["task", "head_forward", "task", "head_backward", "apply_update"]
        assert [name for name, _ in events] == step * 2
        threads = {ident for _, ident in events}
        assert len(threads) == 1 and threading.get_ident() not in threads

    @pytest.mark.parametrize("rows", [600, 0])
    def test_no_thread_outlives_a_projection(self, stepped, rows):
        model = stepped[0]
        before = threading.active_count()
        assert project_audio(model, np.ones((rows, 64), np.float32)).shape == (rows, 16)
        with pytest.raises(ValueError, match="shape"):
            project_audio(model, np.ones((rows, 63), np.float32))
        assert threading.active_count() == before

    @pytest.mark.parametrize("diverge", [False, True])
    def test_train_runs_the_video_tasks_on_one_thread_it_joins(self, monkeypatch, diverge):
        data = gen_synthetic(64, 4, 0.1, seed=8, dim=64)
        model = small_model(seed=3)
        video_threads, losses = set(), []
        real_forward, real_loss = training.head_forward, training.info_nce_loss

        def forward(head, *args, **kwargs):
            if head is model.video_head:
                video_threads.add(threading.get_ident())
            return real_forward(head, *args, **kwargs)

        def loss(s, tau):
            losses.append(real_loss(s, tau))
            return float("nan") if diverge and len(losses) == 3 else losses[-1]

        monkeypatch.setattr(training, "head_forward", forward)
        monkeypatch.setattr(training, "info_nce_loss", loss)
        before = threading.active_count()
        cfg = TrainConfig(batch_size=16, epochs=2, seed=1)
        if diverge:
            with pytest.raises(DivergenceError, match="step 3"):
                train(model, data, cfg)
        else:
            assert len(train(model, data, cfg)) == 8
        assert threading.active_count() == before
        assert len(video_threads) == 1 and threading.get_ident() not in video_threads

    def test_pairs_stay_paired_under_contention(self):
        # three callers, each with its own second thread: more threads than cores
        def caller(k, out):
            with projection.worker_thread():
                out.extend(projection.on_worker_and_caller(lambda i=i: (k, i), lambda i=i: (k, -i)) for i in range(500))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [[] for _ in range(3)]
            callers = [threading.Thread(target=caller, args=(k, results[k])) for k in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in callers)
        finally:
            sys.setswitchinterval(interval)
        for k, pairs in enumerate(results):
            assert pairs == [((k, i), (k, -i)) for i in range(500)]

    def test_a_base_exception_in_the_video_task_reaches_the_caller(self):
        def video():
            raise _Interrupt

        before = threading.active_count()
        with pytest.raises(_Interrupt):
            projection.on_worker_and_caller(video, lambda: "audio")
        with projection.worker_thread():  # an open worker outlives the exception
            with pytest.raises(_Interrupt):
                projection.on_worker_and_caller(video, lambda: "audio")
            assert projection.on_worker_and_caller(lambda: "video", lambda: "audio") == ("video", "audio")
        assert threading.active_count() == before

    def test_importing_the_cli_loads_no_executor(self):
        # concurrent.futures, and the logging it imports, load on first training use
        src = str(Path(avbinder.__file__).resolve().parents[1])
        code = "import sys, avbinder.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_an_error_waits_for_the_second_thread(self):
        finished = []
        before = threading.active_count()
        with pytest.raises(KeyError):
            projection.on_worker_and_caller(lambda: time.sleep(0.2) or finished.append(True), lambda: {}["audio"])
        assert finished == [True] and threading.active_count() == before

    def test_an_interrupt_during_the_join_waits_for_the_second_thread(self):
        def interrupt(signum, frame):
            raise _Interrupt

        finished = []
        before = threading.active_count()
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.05)  # while the caller joins
        try:
            with pytest.raises(_Interrupt):
                projection.on_worker_and_caller(lambda: time.sleep(0.3) or finished.append(True), lambda: None)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert finished == [True] and threading.active_count() == before


class TestTrainLoop:
    def test_step_count_arithmetic(self):
        data = gen_synthetic(100, 4, 0.1, seed=2, dim=64)
        model = small_model()
        cfg = TrainConfig(batch_size=32, epochs=3, seed=0)
        losses = train(model, data, cfg)
        assert len(losses) == 9  # 3 * floor(100 / 32)

    def test_unshuffled_runs_are_identical(self):
        data = gen_synthetic(40, 4, 0.1, seed=2, dim=64)
        histories = []
        for _ in range(2):
            model = small_model(seed=7)
            cfg = TrainConfig(batch_size=8, epochs=1, seed=3, shuffle=False)
            histories.append(train(model, data, cfg))
        assert histories[0] == histories[1]

    def test_training_beats_untrained_recall(self):
        data = gen_synthetic(300, 8, 0.05, seed=5, dim=64)
        train_set = data.take(range(240))
        val_set = data.take(range(240, 300))
        model = small_model(seed=6)
        untrained = recall_at_k(projected_pairs(model, val_set), ks=[1]).recall[1]
        cfg = TrainConfig(batch_size=32, epochs=12, seed=5)
        train(model, train_set, cfg)
        trained = recall_at_k(projected_pairs(model, val_set), ks=[1]).recall[1]
        assert trained > untrained

    def test_heldout_recall_on_noisy_data(self):
        # noise 16 keeps held-out R@1 near 60 % (criterion 3's noise-0.1
        # task reads 100 %), so a loss of training quality shows here
        seed = 0
        train_set, val_set = noisy_split(seed)
        model = full_size_model(seed)
        train(model, train_set, TrainConfig(epochs=10, seed=seed))
        assert recall_at_k(projected_pairs(model, val_set), ks=[1]).recall[1] >= 0.55

    @pytest.mark.parametrize("seed", [0, 1])
    def test_closed_form_reference_recall_on_noisy_data(self, seed):
        # the ceiling the trained heads are read against: PLS on the same
        # split reads 98.4 and 99.2 % R@1, so the task can show a quality gap
        train_set, val_set = noisy_split(seed)
        assert recall_at_k(pls_projected_pairs(train_set, val_set), ks=[1]).recall[1] >= 0.95

    @pytest.mark.parametrize("seed", [0, 1])
    def test_heads_bind_what_no_linear_map_can(self, seed):
        # audio carries |z| where video carries z, so the two sides have no
        # cross-covariance: PLS reads 0.0 % R@1 at seeds 0 and 1 (chance is
        # 0.2 %), while the MLP heads read 99.8 and 100 % after 10 epochs
        train_set, val_set = abs_latent_split(seed)
        model = full_size_model(seed)
        train(model, train_set, TrainConfig(epochs=10, seed=seed))
        assert recall_at_k(projected_pairs(model, val_set), ks=[1]).recall[1] >= 0.90
        assert recall_at_k(pls_projected_pairs(train_set, val_set), ks=[1]).recall[1] <= 0.02

    def test_eval_callback_cadence(self):
        data = gen_synthetic(40, 4, 0.1, seed=2, dim=64)
        model = small_model()
        calls = []
        cfg = TrainConfig(batch_size=8, epochs=4, seed=0, eval_every=2)
        train(model, data, cfg, eval_fn=lambda m: calls.append(1) or len(calls))
        assert calls == [1, 1]

    @pytest.mark.parametrize("field", ["lr", "temperature"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_non_positive_or_non_finite_rates(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
    def test_config_rejects_a_seed_a_checkpoint_cannot_store(self, seed):
        # 2**64 once trained every epoch and then failed in save_checkpoint
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=seed)
        TrainConfig(seed=2**64 - 1)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 4.5), ("batch_size", 4.0), ("epochs", 1.5), ("eval_every", 0.5), ("eval_every", True),
    ])
    def test_config_rejects_a_non_integer_count(self, field, value):
        # batch_size 4.5 and epochs 1.5 failed in range(); eval_every 0.5 evaluated every epoch
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_batch_larger_than_dataset_rejected(self):
        data = gen_synthetic(8, 4, 0.1, seed=2, dim=64)
        with pytest.raises(ValueError):
            train(small_model(), data, TrainConfig(batch_size=16, epochs=1))

    def test_empty_dataset_rejected(self):
        from avbinder.embedio import EmbeddingMatrix, PairedDataset

        empty = PairedDataset(
            video=EmbeddingMatrix(ids=(), data=np.zeros((0, 64), np.float32)),
            audio=EmbeddingMatrix(ids=(), data=np.zeros((0, 64), np.float32)),
        )
        with pytest.raises(ValueError, match="empty dataset"):
            train(small_model(), empty, TrainConfig(batch_size=2, epochs=1))

    def test_moving_average_trend(self):
        data = gen_synthetic(64, 8, 0.05, seed=1, dim=64)
        model = small_model(seed=4)
        losses = train(model, data, TrainConfig(batch_size=16, epochs=40, seed=2))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(12, 4, 0.3, seed=9, dim=32)
        b = gen_synthetic(12, 4, 0.3, seed=9, dim=32)
        assert a.ids == b.ids
        assert np.array_equal(a.video.data, b.video.data)
        assert np.array_equal(a.audio.data, b.audio.data)

    def test_noiseless_data_has_latent_rank(self):
        data = gen_synthetic(64, 8, 0.0, seed=1, dim=128)
        for side in (data.video.data, data.audio.data):
            x = side.astype(np.float64)
            # rank up to float32 storage rounding of the exact product
            tol = np.linalg.norm(x, 2) * max(x.shape) * np.finfo(np.float32).eps
            assert np.linalg.matrix_rank(x, tol=tol) <= 8

    def test_ids_sorted_and_padded(self):
        data = gen_synthetic(11, 2, 0.1, seed=0, dim=8)
        assert data.ids == tuple(sorted(data.ids))
        assert data.ids[0] == "syn-00000"

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 4, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(4, 4, -0.1, seed=0)
        for noise in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise"):
                gen_synthetic(4, 4, noise, seed=0)


class TestCheckpoint:
    def trained_pair(self, tmp_path):
        data = gen_synthetic(24, 4, 0.1, seed=8, dim=64)
        model = small_model(seed=3)
        cfg = TrainConfig(batch_size=8, epochs=2, seed=4)
        state = TrainState.for_model(model, seed=4, config=cfg.as_dict())
        train(model, data, cfg, state=state)
        path = tmp_path / "model.mvbm"
        save_checkpoint(model, state, path)
        return model, state, path

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model, state, path = self.trained_pair(tmp_path)
        loaded_model, loaded_state = load_checkpoint(path)
        second = tmp_path / "again.mvbm"
        save_checkpoint(loaded_model, loaded_state, second)
        assert path.read_bytes() == second.read_bytes()

    def test_round_trip_restores_every_field(self, tmp_path):
        model, state, path = self.trained_pair(tmp_path)
        loaded_model, loaded_state = load_checkpoint(path)
        assert head_bytes(loaded_model) == head_bytes(model)
        for name in ("bn_running_mean", "bn_running_var"):
            assert np.array_equal(
                getattr(loaded_model.video_head, name), getattr(model.video_head, name)
            )
        assert loaded_model.temperature == np.float32(model.temperature)
        assert loaded_state.step == state.step
        assert loaded_state.seed == state.seed
        assert loaded_state.config == state.config
        for name in PARAM_FIELDS:
            assert np.array_equal(loaded_state.video_opt.m[name], state.video_opt.m[name])
            assert np.array_equal(loaded_state.audio_opt.v[name], state.audio_opt.v[name])

    def test_eval_identical_before_and_after_round_trip(self, tmp_path):
        model, state, path = self.trained_pair(tmp_path)
        val = gen_synthetic(30, 4, 0.1, seed=11, dim=64)
        before = recall_at_k(projected_pairs(model, val), ks=[1, 5, 10]).recall
        loaded_model, _ = load_checkpoint(path)
        after = recall_at_k(projected_pairs(loaded_model, val), ks=[1, 5, 10]).recall
        assert before == after

    def test_unsupported_version(self, tmp_path):
        _, _, path = self.trained_pair(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(path)

    def test_bad_magic_and_truncation(self, tmp_path):
        _, _, path = self.trained_pair(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(BadMagicError):
            load_checkpoint(path)
        path.write_bytes(blob[:-5])
        with pytest.raises(TruncatedPayloadError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "block, value",
        [("bn_running_var", -1.0), ("w1", float("nan")), ("temperature", float("nan"))],
    )
    def test_invalid_model_values_are_a_data_error_naming_the_file(self, tmp_path, block, value):
        # each passes the format checks and fails only the model's own
        # validation
        model, _, path = self.trained_pair(tmp_path)
        if block == "temperature":
            offset = 8
        else:
            earlier = training.HEAD_BLOCKS[: training.HEAD_BLOCKS.index(block)]
            offset = 28 + sum(getattr(model.video_head, name).nbytes for name in earlier)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="model.mvbm"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "kind, values",
        [("v", (-1.0,)), ("v", (float("nan"),)), ("m", (float("inf"),)), ("v", (-1.0, float("nan")))],
    )
    def test_invalid_adam_moments_are_a_data_error_naming_the_file(self, tmp_path, kind, values):
        # overwrite the first values of the video head's w1 moment block;
        # m blocks for both heads come first, then the v blocks
        model, _, path = self.trained_pair(tmp_path)
        heads = (model.video_head, model.audio_head)
        offset = 28 + sum(getattr(h, name).nbytes for h in heads for name in training.HEAD_BLOCKS)
        if kind == "v":
            offset += sum(getattr(h, name).nbytes for h in heads for name in PARAM_FIELDS)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 4 * len(values)] = struct.pack(f"<{len(values)}f", *values)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="model.mvbm: .*Adam"):
            load_checkpoint(path)

    @staticmethod
    def moments_checkpoint(tmp_path, edits=()):
        """A checkpoint with random valid moments, then ``edits``, each
        (kind, head index, parameter, flat index, value). The video head's
        w1 moments span two 256 KiB pieces of the eval-only load."""
        model = BindModel(video_head=init_head(1, 1024, 80, 16), audio_head=init_head(2, 64, 80, 16))
        state = TrainState.for_model(model, seed=4)
        rng = np.random.default_rng(9)
        opts = (state.video_opt, state.audio_opt)
        for opt in opts:
            for name in PARAM_FIELDS:
                opt.m[name][...] = rng.standard_normal(opt.m[name].shape)
                opt.v[name][...] = rng.random(opt.v[name].shape)
        for kind, head, name, index, value in edits:
            getattr(opts[head], kind)[name].reshape(-1)[index] = value
        path = tmp_path / "model.mvbm"
        save_checkpoint(model, state, path)
        return path

    def test_eval_only_load_keeps_the_heads_and_drops_the_moments(self, tmp_path):
        path = self.moments_checkpoint(tmp_path)
        full = load_outcome(path)
        assert isinstance(full, bytes)
        assert load_outcome(path, with_optimizer=False) == full
        assert load_checkpoint(path, with_optimizer=False)[1] is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "minus1"])
    @pytest.mark.parametrize("kind", ["m", "v"])
    @pytest.mark.parametrize("head, name, index", [(0, "w1", -1), (1, "b2", 0)], ids=["video", "audio"])
    def test_eval_only_load_reports_a_damaged_moment_as_the_full_load_does(
        self, tmp_path, head, name, index, kind, value
    ):
        # the last w1 value of the video head lies in the second piece
        path = self.moments_checkpoint(tmp_path, [(kind, head, name, index, value)])
        full = load_outcome(path)
        assert load_outcome(path, with_optimizer=False) == full
        if kind == "m" and value == -1.0:  # a negative first moment is valid
            assert isinstance(full, bytes)
        else:
            assert full[0] is DataFormatError and full[1].startswith("model.mvbm: ") and "Adam" in full[1]

    @pytest.mark.parametrize(
        "edits, message",
        [
            # m blocks are checked before v blocks, whatever the file order
            ([("v", 0, "w1", -1, float("nan")), ("m", 0, "b2", 0, float("inf"))], "m['b2']"),
            # the video head's moments are checked before the audio head's
            ([("v", 1, "bn_gamma", 0, float("nan")), ("v", 0, "w1", -1, -1.0)], "non-negative"),
            # non-finite values before negative ones
            ([("v", 0, "w1", 0, -1.0), ("v", 0, "w2", 5, float("inf"))], "v['w2']"),
        ],
        ids=["m-before-v", "video-before-audio", "non-finite-before-negative"],
    )
    def test_eval_only_load_reports_the_first_of_two_damaged_blocks(self, tmp_path, edits, message):
        path = self.moments_checkpoint(tmp_path, edits)
        full = load_outcome(path)
        assert load_outcome(path, with_optimizer=False) == full
        assert full[0] is DataFormatError and message in full[1]

    @pytest.mark.parametrize("where", ["second-piece", "trailing"])
    def test_eval_only_load_reports_a_short_or_long_file_as_the_full_load_does(self, tmp_path, where):
        path = self.moments_checkpoint(tmp_path)
        blob = path.read_bytes()
        heads = 4 * (1024 * 80 + 64 * 80 + 2 * (5 * 80 + 80 * 16 + 16))
        # a cut 300 KiB into the video head's first-moment w1 block
        path.write_bytes(blob[: 28 + heads + 300 * 1024] if where == "second-piece" else blob + b"\0")
        full = load_outcome(path)
        assert load_outcome(path, with_optimizer=False) == full
        assert full[0] is TruncatedPayloadError

    def test_full_run_reproducibility(self, tmp_path):
        # (seed, config, dataset) fully determine the checkpoint bytes
        blobs = []
        for run in range(2):
            data = gen_synthetic(40, 4, 0.1, seed=13, dim=64)
            model = small_model(seed=13)
            cfg = TrainConfig(batch_size=8, epochs=3, seed=13)
            state = TrainState.for_model(model, seed=13, config=cfg.as_dict())
            train(model, data, cfg, state=state)
            path = tmp_path / f"run{run}.mvbm"
            save_checkpoint(model, state, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_bytes_do_not_depend_on_blas_thread_count(self, tmp_path):
        # 1024-d inputs make every GEMM large enough for BLAS to split it
        data = gen_synthetic(512, 16, 1.0, seed=4)
        save_embeddings(data.video, tmp_path / "video.mvbe")
        save_embeddings(data.audio, tmp_path / "audio.mvbe")
        src = str(Path(avbinder.__file__).resolve().parents[1])
        blobs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
            out = tmp_path / f"threads{threads}.mvbm"
            done = subprocess.run(
                [sys.executable, "-m", "avbinder", "train", "--video", str(tmp_path / "video.mvbe"),
                 "--audio", str(tmp_path / "audio.mvbe"), "--out", str(out), "--epochs", "2", "--seed", "3"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("tau", [
        0.125,
        pytest.param(0.07, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: the checkpoint stores tau as float32, a fresh model trains with the "
            "Python float, so the resumed step scores with another tau"))),
    ])
    def test_resumed_run_matches_uninterrupted_run(self, tmp_path, tau):
        # the step counter and the moments in the checkpoint carry Adam's
        # bias correction across the reload. tau 0.125 is a float32, so the
        # reload, which stores tau as float32, does not change it; 0.07 is not.
        data = gen_synthetic(16, 4, 0.1, seed=8, dim=64)
        xv, xa = data.video.data, data.audio.data

        def first_step():
            model = small_model(seed=3, tau=tau)
            state = TrainState.for_model(model, seed=4)
            rng = np.random.default_rng(5)
            train_step(model, xv, xa, state, 1e-2, rng)
            return model, state, rng

        model, state, rng = first_step()
        train_step(model, xv, xa, state, 1e-2, rng)
        save_checkpoint(model, state, tmp_path / "uninterrupted.mvbm")

        model, state, rng = first_step()
        save_checkpoint(model, state, tmp_path / "first.mvbm")
        model, state = load_checkpoint(tmp_path / "first.mvbm")
        train_step(model, xv, xa, state, 1e-2, rng)
        save_checkpoint(model, state, tmp_path / "resumed.mvbm")
        assert state.step == 2
        assert (tmp_path / "resumed.mvbm").read_bytes() == (tmp_path / "uninterrupted.mvbm").read_bytes()

    def test_float64_heads_rejected(self, tmp_path):
        model = BindModel(
            video_head=init_head(0, 8, 6, 4, dtype=np.float64),
            audio_head=init_head(1, 8, 6, 4, dtype=np.float64),
            temperature=0.07,
        )
        with pytest.raises(ValueError):
            save_checkpoint(model, TrainState.for_model(model), tmp_path / "x.mvbm")
