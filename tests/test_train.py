import math
from dataclasses import replace

import numpy as np
import pytest

from lrbench.data import make_blobs
from lrbench.errors import ConfigError
from lrbench.nn import (Dense, Flatten, Model, build_mlp, forward,
                        softmax_cross_entropy)
from lrbench.train import (EarlyStopState, TrainConfig, batches_per_epoch,
                           early_stop_update, evaluate, iterate_minibatches,
                           train_phase)


def blob_setup(seed=0, n_per_class=20):
    ds = make_blobs(n_per_class=n_per_class, seed=seed)
    model = build_mlp((3, 8, 8), 3, hidden=(16,), seed=seed)
    return model, ds


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 32
        assert cfg.dtype == np.float32

    def test_precision_maps_to_dtype(self):
        assert TrainConfig(precision="f64").dtype == np.float64

    def test_rejections(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(momentum=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-1e-4)
        with pytest.raises(ConfigError):
            TrainConfig(precision="f16")


class TestEarlyStop:
    def test_first_metric_always_improves(self):
        state = EarlyStopState(patience=0)
        assert early_stop_update(state, -5.0) == "continue"
        assert state.best_metric == -5.0
        assert state.epochs_since_improve == 0

    def test_plateau_sequence(self):
        state = EarlyStopState(patience=2, min_delta=1e-4)
        results = [early_stop_update(state, m)
                   for m in (0.5, 0.6, 0.6, 0.6, 0.6)]
        assert results == ["continue"] * 4 + ["stop"]

    def test_improvement_resets_counter(self):
        state = EarlyStopState(patience=1)
        early_stop_update(state, 0.5)
        early_stop_update(state, 0.5)  # counter -> 1
        assert early_stop_update(state, 0.7) == "continue"
        assert state.epochs_since_improve == 0
        assert state.best_metric == 0.7

    def test_min_delta_gates_improvement(self):
        state = EarlyStopState(patience=0, min_delta=0.1)
        early_stop_update(state, 0.5)
        # a gain smaller than min_delta is a plateau, not an improvement
        assert early_stop_update(state, 0.55) == "stop"
        assert state.best_metric == 0.5

    def test_non_finite_metric_rejected(self):
        state = EarlyStopState()
        with pytest.raises(ValueError):
            early_stop_update(state, math.nan)
        with pytest.raises(ValueError):
            early_stop_update(state, math.inf)


class TestBatches:
    def test_batches_per_epoch_ceil(self):
        assert batches_per_epoch(100, 32) == 4
        assert batches_per_epoch(96, 32) == 3
        assert batches_per_epoch(1, 32) == 1

    def test_minibatches_cover_everything_once(self):
        rng = np.random.default_rng(0)
        seen = np.concatenate(list(iterate_minibatches(50, 8, rng)))
        np.testing.assert_array_equal(np.sort(seen), np.arange(50))

    def test_last_batch_short(self):
        rng = np.random.default_rng(0)
        sizes = [len(b) for b in iterate_minibatches(50, 8, rng)]
        assert sizes == [8, 8, 8, 8, 8, 8, 2]

    def test_shuffle_depends_on_generator(self):
        a = np.concatenate(list(iterate_minibatches(50, 8, np.random.default_rng(1))))
        b = np.concatenate(list(iterate_minibatches(50, 8, np.random.default_rng(2))))
        assert not np.array_equal(a, b)


class TestEvaluate:
    def test_uniform_logits_oracle(self):
        # zero weights make every logit zero: loss is ln(k) and argmax
        # resolves to class 0 everywhere
        model = Model([Flatten(), Dense(12, 3, dtype=np.float64)],
                      dtype=np.float64)
        model.param_layers()[0].W[...] = 0.0
        model.param_layers()[0].b[...] = 0.0
        x = np.random.default_rng(0).random((9, 3, 2, 2))
        y = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        loss, acc = evaluate(model, x, y)
        assert loss == pytest.approx(math.log(3), rel=1e-12)
        assert acc == pytest.approx(3 / 9)

    def test_batching_consistent(self):
        # 300 rows: evaluate's 256 + 44-row pass agrees with one forward
        model = build_mlp((3, 8, 8), 3, dtype=np.float64, seed=0)
        ds = make_blobs(n_per_class=100)
        logits, _ = forward(model, ds.images)
        loss, acc = evaluate(model, ds.images, ds.labels)
        assert loss == pytest.approx(softmax_cross_entropy(logits, ds.labels),
                                     rel=1e-12)
        assert acc == np.mean(np.argmax(logits, axis=1) == ds.labels)
        assert type(acc) is float


class TestTrainPhase:
    def test_learns_separable_blobs(self):
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0, max_epochs=5)
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", phase_index=1, lr_fn=lambda t: 0.05, cfg=cfg)
        assert result.epochs_run == 5
        assert result.final_valid_acc > 0.9

    def test_deterministic_given_config(self):
        histories = []
        for _ in range(2):
            model, ds = blob_setup(seed=3)
            cfg = TrainConfig(batch_size=8, seed=3, max_epochs=3)
            history = []
            train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                        phase_name="p", phase_index=1, lr_fn=lambda t: 0.02,
                        cfg=cfg, history=history)
            histories.append([(r.train_loss, r.valid_loss, r.valid_acc)
                              for r in history])
        assert histories[0] == histories[1]

    def test_target_accuracy_ends_phase(self):
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0, max_epochs=50)
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", phase_index=1, lr_fn=lambda t: 0.05, cfg=cfg,
            target_accuracy=0.95)
        assert result.epochs_run < 50
        assert result.final_valid_acc >= 0.95

    def test_stopper_ends_stalled_phase(self):
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0, max_epochs=50)
        # zero learning rate: accuracy never moves after the first epoch
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", phase_index=1, lr_fn=lambda t: 0.0, cfg=cfg,
            target_accuracy=0.95, stopper=EarlyStopState(patience=1))
        assert result.epochs_run == 3  # first improves, then patience+1 plateaus
        assert result.final_valid_acc < 0.95

    def test_result_matches_history(self):
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0, max_epochs=50)
        history = []
        train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                    phase_name="warm", phase_index=1, lr_fn=lambda t: 0.01,
                    cfg=replace(cfg, max_epochs=2), history=history)
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", phase_index=2, lr_fn=lambda t: 0.05, cfg=cfg,
            target_accuracy=0.95, history=history)
        rows = history[2:]
        assert result.name == "p"
        assert result.epochs_run == len(rows) > 0
        assert result.final_valid_acc == rows[-1].valid_acc
        assert result.wall_seconds >= sum(r.seconds for r in rows)

    def test_phase_starts_from_rest(self):
        # momentum left over from earlier steps does not carry into a phase
        histories = []
        for leftover in (False, True):
            model, ds = blob_setup(seed=4)
            if leftover:
                for layer in model.param_layers():
                    for v in layer.vel:
                        v[...] = 0.5
            cfg = TrainConfig(batch_size=16, seed=4, max_epochs=2)
            history = []
            train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                        phase_name="p", phase_index=1, lr_fn=lambda t: 0.02,
                        cfg=cfg, history=history)
            histories.append([(r.train_loss, r.valid_loss, r.valid_acc)
                              for r in history])
        assert histories[0] == histories[1]

    def test_iteration_counter_runs_from_zero_across_epochs(self):
        model, ds = blob_setup(n_per_class=10)  # 30 samples
        cfg = TrainConfig(batch_size=8, seed=0, max_epochs=3)
        seen = []

        def lr_fn(t):
            seen.append(t)
            return 0.01

        train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                    phase_name="p", phase_index=1, lr_fn=lr_fn, cfg=cfg)
        assert seen == list(range(3 * 4))

    def test_history_rows(self):
        # rows are numbered by their index in the history, so a second
        # phase appending to it numbers on from the first
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0)
        history = []
        for name, lr, epochs in (("warm", 0.03, 2), ("cool", 0.01, 3)):
            train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                        phase_name=name, phase_index=2,
                        lr_fn=lambda t, lr=lr: lr,
                        cfg=replace(cfg, max_epochs=epochs), history=history)
        assert [r.epoch for r in history] == [0, 1, 2, 3, 4]
        assert [r.phase for r in history] == ["warm"] * 2 + ["cool"] * 3
        assert [r.lr for r in history] == [0.03] * 2 + [0.01] * 3
        assert all(r.seconds > 0 for r in history)

    def test_history_lr_uses_final_group_rate(self):
        ds = make_blobs(n_per_class=20, seed=0)
        model = build_mlp((3, 8, 8), 3, hidden=(16, 16), seed=0)
        cfg = TrainConfig(batch_size=16, seed=0, max_epochs=1)
        history = []
        train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                    phase_name="p", phase_index=1,
                    lr_fn=lambda t: (1e-4, 1e-3, 1e-2), cfg=cfg,
                    history=history)
        assert history[0].lr == 1e-2

    def test_augmentation_changes_training_stream(self):
        losses = []
        for augment in (False, True):
            model, ds = blob_setup(seed=2)
            cfg = TrainConfig(batch_size=16, seed=2, augment=augment,
                              max_epochs=1)
            history = []
            train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                        phase_name="p", phase_index=1, lr_fn=lambda t: 0.02,
                        cfg=cfg, history=history)
            losses.append(history[0].train_loss)
        assert losses[0] != losses[1]
