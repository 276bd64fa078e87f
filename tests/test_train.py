import math
from dataclasses import replace

import numpy as np
import pytest

from lrbench.data import make_blobs
from lrbench.errors import ConfigError
from lrbench.nn import (Dense, Model, build_mlp, forward,
                        softmax_cross_entropy)
from lrbench import train
from lrbench.train import (EpochRecord, PhaseResult, TrainConfig, evaluate,
                           iterate_minibatches, train_phase)


def blob_setup(seed=0, n_per_class=20):
    ds = make_blobs(n_per_class=n_per_class, seed=seed)
    model = build_mlp((3, 8, 8), 3, hidden=(16,), seed=seed)
    return model, ds


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 32

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
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)


def scripted_phase(monkeypatch, accuracies, history=None, **stopping):
    """Run train_phase with evaluate replaced by a scripted accuracy per
    epoch, on a budget of one epoch per score; returns the epochs run."""
    scores = iter(accuracies)
    monkeypatch.setattr(train, "evaluate", lambda model, x, y: (0.0, next(scores)))
    model, ds = blob_setup(n_per_class=2)
    result = train_phase(
        model, ds.images, ds.labels, ds.images, ds.labels,
        phase_name="p", stream=1, lr_fn=lambda t: 0.0,
        cfg=TrainConfig(max_epochs=len(accuracies)),
        history=[] if history is None else history, **stopping)
    return result.epochs_run


class TestEarlyStop:
    def test_first_metric_always_improves(self, monkeypatch):
        # even an accuracy of 0: the first epoch beats -inf, so patience 0
        # stops on the second, not the first
        assert scripted_phase(monkeypatch, (0.0, 0.0, 0.0),
                              patience=0) == 2

    def test_plateau_sequence(self, monkeypatch):
        # two improvements, then the third plateau epoch exceeds patience 2
        assert scripted_phase(monkeypatch, (0.5, 0.6, 0.6, 0.6, 0.6, 0.6),
                              patience=2) == 5

    def test_improvement_resets_counter(self, monkeypatch):
        # 0.7 resets the count that 0.5's repeat raised to 1; without the
        # reset the phase would stop there, at epoch 3
        assert scripted_phase(monkeypatch, (0.5, 0.5, 0.7, 0.7, 0.7, 0.7),
                              patience=1) == 5

    def test_second_phase_starts_with_a_fresh_best(self, monkeypatch):
        # a later phase appending to the same history is not measured
        # against the earlier phase's higher accuracy
        history = []
        assert scripted_phase(monkeypatch, (0.9,), history, patience=0) == 1
        assert scripted_phase(monkeypatch, (0.5, 0.5, 0.5), history,
                              patience=0) == 2
        assert [r.valid_acc for r in history] == [0.9, 0.5, 0.5]


class TestBatches:
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
        model = Model([Dense(12, 3, dtype=np.float64)])
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
            phase_name="p", stream=1, lr_fn=lambda t: 0.05, cfg=cfg,
            history=[], patience=cfg.max_epochs)
        assert result.epochs_run == 5
        assert result.final_valid_acc > 0.9

    def test_deterministic_given_config(self):
        histories = []
        for _ in range(2):
            model, ds = blob_setup(seed=3)
            cfg = TrainConfig(batch_size=8, seed=3, max_epochs=3)
            history = []
            train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                        phase_name="p", stream=1, lr_fn=lambda t: 0.02,
                        cfg=cfg, history=history, patience=cfg.max_epochs)
            histories.append([(r.train_loss, r.valid_loss, r.valid_acc)
                              for r in history])
        assert histories[0] == histories[1]

    def test_target_accuracy_ends_phase(self):
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0, max_epochs=50)
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", stream=1, lr_fn=lambda t: 0.05, cfg=cfg,
            history=[], patience=cfg.max_epochs, target_accuracy=0.95)
        assert result.epochs_run < 50
        assert result.final_valid_acc >= 0.95

    def test_stopper_ends_stalled_phase(self):
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0, max_epochs=50)
        # zero learning rate: accuracy never moves after the first epoch
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", stream=1, lr_fn=lambda t: 0.0, cfg=cfg,
            history=[], target_accuracy=0.95, patience=1)
        assert result.epochs_run == 3  # first improves, then patience+1 plateaus
        assert result.final_valid_acc < 0.95

    def test_result_matches_history(self):
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0, max_epochs=50)
        history = []
        train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                    phase_name="warm", stream=1, lr_fn=lambda t: 0.01,
                    cfg=replace(cfg, max_epochs=2), history=history,
                    patience=cfg.max_epochs)
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", stream=2, lr_fn=lambda t: 0.05, cfg=cfg,
            history=history, patience=cfg.max_epochs, target_accuracy=0.95)
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
                        phase_name="p", stream=1, lr_fn=lambda t: 0.02,
                        cfg=cfg, history=history, patience=cfg.max_epochs)
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
                    phase_name="p", stream=1, lr_fn=lr_fn, cfg=cfg,
                    history=[], patience=cfg.max_epochs)
        assert seen == list(range(3 * 4))

    def test_history_rows(self):
        # rows are numbered by their index in the history, so a second
        # phase appending to it numbers on from the first
        model, ds = blob_setup()
        cfg = TrainConfig(batch_size=16, seed=0)
        history = []
        for name, stream, lr, epochs in (("warm", 1, 0.03, 2),
                                         ("cool", 2, 0.01, 3)):
            train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                        phase_name=name, stream=stream,
                        lr_fn=lambda t, lr=lr: lr,
                        cfg=replace(cfg, max_epochs=epochs), history=history,
                        patience=cfg.max_epochs)
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
                    phase_name="p", stream=1,
                    lr_fn=lambda t: (1e-4, 1e-3, 1e-2), cfg=cfg,
                    history=history, patience=cfg.max_epochs)
        assert history[0].lr == 1e-2

    def test_draws_the_stream_it_is_passed(self, epoch_seeds):
        # the stream is the caller's choice, not the phase's position in a
        # run: stream 3 on an empty history still draws [seed, 3, epoch]
        model, ds = blob_setup(seed=7)
        cfg = TrainConfig(seed=7, max_epochs=2)
        train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                    phase_name="p", stream=3, lr_fn=lambda t: 0.02, cfg=cfg,
                    history=[], patience=cfg.max_epochs)
        assert epoch_seeds == [[7, 3, 0], [7, 3, 1]]

    def test_augmentation_changes_training_stream(self):
        losses = []
        for augment in (False, True):
            model, ds = blob_setup(seed=2)
            cfg = TrainConfig(batch_size=16, seed=2, augment=augment,
                              max_epochs=1)
            history = []
            train_phase(model, ds.images, ds.labels, ds.images, ds.labels,
                        phase_name="p", stream=1, lr_fn=lambda t: 0.02,
                        cfg=cfg, history=history, patience=cfg.max_epochs)
            losses.append(history[0].train_loss)
        assert losses[0] != losses[1]


class TestSkipWhenMet:
    def met_history(self):
        return [EpochRecord(epoch=0, phase="earlier", lr=0.1, train_loss=1.0,
                            valid_loss=1.0, valid_acc=0.9, seconds=0.5)]

    def test_met_target_skips_the_phase(self, monkeypatch):
        def never(*args):
            raise AssertionError("a skipped phase trains or evaluates")

        monkeypatch.setattr(train, "evaluate", never)
        model, ds = blob_setup(n_per_class=2)
        for layer in model.param_layers():
            for v in layer.vel:
                v[...] = 0.5
        history = self.met_history()
        cfg = TrainConfig()
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", stream=2, lr_fn=never, cfg=cfg,
            history=history, patience=cfg.max_epochs, target_accuracy=0.9)
        assert result == PhaseResult("p", 0, 0.9, 0.0)
        assert history == self.met_history()
        assert all((v == 0.5).all() for layer in model.param_layers()
                   for v in layer.vel)

    @pytest.mark.parametrize("target, rows", [
        (None, 1),  # no target: nothing to skip on
        (0.9, 0),   # no earlier row
        (0.95, 1),  # the earlier row misses the target
    ])
    def test_phase_without_a_met_target_runs(self, target, rows):
        model, ds = blob_setup(n_per_class=2)
        steps = []
        history = self.met_history()[:rows]
        cfg = TrainConfig(max_epochs=1)
        result = train_phase(
            model, ds.images, ds.labels, ds.images, ds.labels,
            phase_name="p", stream=2,
            lr_fn=lambda t: steps.append(t) or 0.01, cfg=cfg,
            history=history, patience=cfg.max_epochs, target_accuracy=target)
        assert result.epochs_run == 1 and steps == [0]
        assert [r.phase for r in history] == ["earlier"] * rows + ["p"]
