import csv
import math

import numpy as np
import pytest

import lrbench.bench
from lrbench.bench import (BenchConfig, RunReport, _time_to_target,
                           build_model, confusion, emit_report,
                           load_bench_dataset, predictions, run_conventional,
                           run_optimized, run_range_test, speedup)
from lrbench.data import (CIFAR10_MEAN, CIFAR10_STD, Dataset, load_cifar10,
                          normalize, split)
from lrbench.errors import ConfigError
from lrbench.finder import RangeTestConfig, write_trace_csv
from lrbench.groups import precompute_features, split_head
from lrbench.nn import (_BLOCK_ROWS, Conv2d, Dense, build_cnn, build_mlp,
                        forward, train_step)
from lrbench.schedule import CosineCycleConfig
from lrbench.train import EpochRecord, PhaseResult, TrainConfig, evaluate


def tiny_config(seed=0, **kwargs):
    defaults = dict(
        train=TrainConfig(max_epochs=4, batch_size=16, seed=seed),
        finder=RangeTestConfig(lr_lo=1e-3, lr_hi=2.0, n_steps=25,
                               smoothing_beta=0.9),
        finder_batch=64,
        n_per_class=40,
        head_epochs=2,
        patience=2,
        target_accuracy=0.95,
    )
    defaults.update(kwargs)
    return BenchConfig(**defaults)


class TestBenchConfig:
    def test_defaults_valid(self):
        cfg = BenchConfig()
        assert cfg.dataset == "blobs"
        assert cfg.lr1 > cfg.lr2

    def test_rejections(self):
        with pytest.raises(ConfigError):
            BenchConfig(target_accuracy=1.0)
        with pytest.raises(ConfigError):
            BenchConfig(lr1=0.001, lr2=0.01)
        with pytest.raises(ConfigError):
            BenchConfig(model="transformer")
        with pytest.raises(ConfigError):
            BenchConfig(head_epochs=0)
        with pytest.raises(ConfigError):
            BenchConfig(finder_batch=0)
        with pytest.raises(ConfigError):
            BenchConfig(split_num=0)
        with pytest.raises(ConfigError, match="n_per_class"):
            BenchConfig(n_per_class=0)


class TestLoadBenchDataset:
    def test_blobs_split_sizes(self):
        cfg = tiny_config()
        tr, va = load_bench_dataset(cfg)
        # 40 per class, 5:1 split -> round(40 * 5/6) = 33 train per class
        assert len(tr) == 99
        assert len(va) == 21
        assert tr.n_classes == 3

    def test_cifar_file_is_normalized_then_split(self, tmp_path):
        # six valid 3073-byte records per class: a label byte, then pixels
        rng = np.random.default_rng(3)
        labels = rng.permutation(np.repeat(np.arange(10, dtype=np.uint8), 6))
        pixels = rng.integers(0, 256, size=(60, 3072), dtype=np.uint8)
        path = tmp_path / "data_batch_1.bin"
        np.concatenate([labels[:, None], pixels], axis=1).tofile(path)
        cfg = tiny_config(dataset=f"cifar10:{path}", n_per_class=6)
        raw = load_cifar10(path, 6)
        expected = split(
            Dataset(normalize(raw.images, CIFAR10_MEAN, CIFAR10_STD),
                    raw.labels, raw.class_names),
            cfg.split_num, cfg.split_den, seed=cfg.train.seed)
        for got, want in zip(load_bench_dataset(cfg), expected):
            assert got.images.dtype == want.images.dtype
            assert np.array_equal(got.images, want.images)
            assert np.array_equal(got.labels, want.labels)
            assert got.class_names == want.class_names

    def test_cifar_spec_needs_path(self):
        with pytest.raises(ConfigError, match="cifar10:PATH"):
            load_bench_dataset(tiny_config(dataset="cifar10:"))

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigError, match="unknown dataset"):
            load_bench_dataset(tiny_config(dataset="mnist"))


class TestBuildModel:
    def test_mlp_and_cnn(self):
        mlp = build_model(tiny_config(model="mlp"), (3, 8, 8), 3)
        cnn = build_model(tiny_config(model="cnn"), (3, 8, 8), 3)
        assert isinstance(mlp.param_layers()[0], Dense)
        assert isinstance(cnn.param_layers()[0], Conv2d)
        for model in (mlp, cnn):
            assert model.dtype == np.float32
            assert all(p.dtype == np.float32
                       for layer in model.param_layers() for p in layer.params)

    @staticmethod
    def arrays(model):
        return [a for layer in model.param_layers()
                for a in (*layer.params, *layer.grads, *layer.vel)]

    @pytest.mark.parametrize("model, builder",
                             [("mlp", build_mlp), ("cnn", build_cnn)])
    def test_a_repeated_build_is_a_fresh_one(self, model, builder):
        lrbench.bench._initial_model.cache_clear()
        cfg = tiny_config(seed=3, model=model)
        fresh = self.arrays(builder((3, 8, 8), 3, seed=3))
        for _ in range(2):  # built, then copied
            built = self.arrays(build_model(cfg, (3, 8, 8), 3))
            assert [a.dtype for a in built] == [a.dtype for a in fresh]
            assert [a.strides for a in built] == [a.strides for a in fresh]
            assert [a.tobytes() for a in built] == [a.tobytes() for a in fresh]
        # the kept copy holds only parameters: its gradient and velocity
        # buffers are read-only views of one zero
        kept = lrbench.bench._initial_model(model, (3, 8, 8), 3, 3)
        for layer in kept.param_layers():
            for a in (*layer.grads, *layer.vel):
                assert not a.flags.writeable and a.strides == (0,) * a.ndim

    @pytest.mark.parametrize("model, builder",
                             [("mlp", build_mlp), ("cnn", build_cnn)])
    def test_using_a_built_model_leaves_the_next_build(self, model, builder):
        lrbench.bench._initial_model.cache_clear()
        cfg = tiny_config(model=model)
        want = [a.tobytes() for a in self.arrays(builder((3, 8, 8), 3))]
        trained = build_model(cfg, (3, 8, 8), 3)  # built, then kept
        w_before = trained.param_layers()[0].W.copy()
        rng = np.random.default_rng(0)
        train_step(trained, rng.standard_normal((16, 3, 8, 8)),
                   rng.integers(0, 3, 16), 0.1, momentum=0.9)
        assert not np.array_equal(trained.param_layers()[0].W, w_before)
        written = build_model(cfg, (3, 8, 8), 3)  # copied from the kept one
        for a in self.arrays(written):
            a[...] = 7.0
        assert [a.tobytes()
                for a in self.arrays(build_model(cfg, (3, 8, 8), 3))] == want

    @pytest.mark.parametrize("model", ["mlp", "cnn"])
    def test_built_models_share_no_array(self, model):
        lrbench.bench._initial_model.cache_clear()
        cfg = tiny_config(model=model)
        a, b, c = (build_model(cfg, (3, 8, 8), 3) for _ in range(3))
        for m, n in ((a, b), (b, c)):
            for x in self.arrays(m):
                assert not any(np.shares_memory(x, y) for y in self.arrays(n))
        for layer in (*a.param_layers(), *b.param_layers()):
            assert layer.params[0] is layer.W

    def test_one_model_is_kept_per_process(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_mlp(*args, **kwargs)

        monkeypatch.setattr(lrbench.bench, "build_mlp", counted)
        lrbench.bench._initial_model.cache_clear()
        seed1, seed2 = tiny_config(seed=1), tiny_config(seed=2)
        build_model(seed1, (3, 8, 8), 3)
        build_model(seed1, (3, 8, 8), 3)
        assert len(calls) == 1
        build_model(seed2, (3, 8, 8), 3)
        build_model(seed2, (3, 4, 4), 3)
        build_model(seed2, (3, 4, 4), 4)
        assert len(calls) == 4
        build_model(seed1, (3, 8, 8), 3)
        assert len(calls) == 5
        assert lrbench.bench._initial_model.cache_info().currsize == 1
        build_model(seed1, (3, 8, 8), 3)
        assert len(calls) == 5


class TestSpeedup:
    def test_plain_totals(self):
        assert speedup(10.0, 5.0) == 2.0

    def test_reports(self):
        def report(total):
            return RunReport(phases=[], total_seconds=total,
                             confusion=np.eye(2, dtype=np.int64),
                             reached=True, history=[], class_names=["a", "b"])
        assert speedup(report(6.0), report(3.0)) == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, -2.0)


class TestConfusion:
    def test_hand_matrix(self):
        labels = [0, 0, 1, 1, 2, 2]
        preds = [0, 1, 1, 1, 2, 0]
        conf = confusion(preds, labels, 3)
        expected = np.array([[1, 1, 0],
                             [0, 2, 0],
                             [1, 0, 1]])
        np.testing.assert_array_equal(conf, expected)

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, 200)
        preds = rng.integers(0, 4, 200)
        conf = confusion(preds, labels, 4)
        np.testing.assert_array_equal(conf.sum(axis=1), np.bincount(labels, minlength=4))

    def test_trace_counts_matches(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 100)
        preds = rng.integers(0, 3, 100)
        conf = confusion(preds, labels, 3)
        assert np.trace(conf) == int((labels == preds).sum())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            confusion([0, 1], [0, 1, 2], 3)

    def test_out_of_range_ids(self):
        with pytest.raises(ValueError, match="outside"):
            confusion([0, 5], [0, 1], 3)
        with pytest.raises(ValueError, match="outside"):
            confusion([0, 1], [-1, 1], 3)


class TestRunReport:
    def test_accuracy_from_confusion(self):
        conf = np.array([[8, 2], [1, 9]], dtype=np.int64)
        report = RunReport(phases=[], total_seconds=1.0, confusion=conf,
                           reached=True, history=[], class_names=["a", "b"])
        assert report.accuracy == pytest.approx(17 / 20)


def epoch_row(epoch, phase, valid_acc, seconds):
    return EpochRecord(epoch=epoch, phase=phase, lr=0.1, train_loss=1.0,
                       valid_loss=1.0, valid_acc=valid_acc, seconds=seconds)


class TestTimeToTarget:
    PHASES = [PhaseResult("range_test", 0, 0.25, 0.5),
              PhaseResult("head_sgdr", 2, 0.625, 2.5),
              PhaseResult("dlr_clm", 3, 0.9375, 3.0)]
    HISTORY = [epoch_row(0, "head_sgdr", 0.5, 1.0),
               epoch_row(1, "head_sgdr", 0.625, 1.25),
               epoch_row(2, "dlr_clm", 0.875, 1.0),
               epoch_row(3, "dlr_clm", 0.9375, 0.75),
               epoch_row(4, "dlr_clm", 0.9375, 1.0)]

    def test_hand_built_history(self):
        # earlier phases count whole, the hit's phase up to the hit's row
        assert _time_to_target(self.PHASES, self.HISTORY, 0.9) == (
            0.5 + 2.5 + 1.0 + 0.75, 3)
        assert _time_to_target(self.PHASES, self.HISTORY, 0.5) == (
            0.5 + 1.0, 0)
        assert _time_to_target(self.PHASES, self.HISTORY, 0.875) == (
            0.5 + 2.5 + 1.0, 2)

    def test_not_reached(self):
        assert _time_to_target(self.PHASES, self.HISTORY, 0.95) == (None, None)
        assert _time_to_target(self.PHASES, [], 0.5) == (None, None)

    def test_conventional_phase_one_meets_target_before_its_budget(self):
        # noisy blobs at a low rate: phase 1 first meets 0.6 at epoch 2 and
        # then keeps running to its 8-epoch budget
        train = TrainConfig(max_epochs=8, batch_size=16, seed=0)
        cfg = tiny_config(train=train, patience=8, target_accuracy=0.6,
                          blobs_noise=0.3, lr1=0.002, lr2=0.001)
        report = run_conventional(cfg)
        first = next(r for r in report.history
                     if r.valid_acc >= cfg.target_accuracy)
        assert first.phase == "fixed_lr1"
        assert report.phases[0].epochs_run == 8
        assert report.target_epoch == first.epoch < 7
        assert report.target_seconds == pytest.approx(
            sum(r.seconds for r in report.history[:first.epoch + 1]))
        assert report.target_seconds < report.phases[0].wall_seconds

    def test_summary_line(self, tmp_path):
        report = RunReport(phases=self.PHASES, total_seconds=6.0,
                           confusion=np.eye(2, dtype=np.int64), reached=True,
                           history=self.HISTORY, class_names=["a", "b"],
                           target_seconds=4.75, target_epoch=3)
        *_, summary = emit_report(report, tmp_path)
        text = summary.read_text()
        assert "time_to_target: 4.750 s (epoch 3)\n" in text
        # every time in four significant digits
        assert text.splitlines()[2].endswith("  2.500")
        assert "total_seconds: 6.000\n" in text
        report.target_seconds = 0.004412
        *_, summary = emit_report(report, tmp_path)
        assert "time_to_target: 0.004412 s (epoch 3)\n" in summary.read_text()
        report.target_seconds = report.target_epoch = None
        *_, summary = emit_report(report, tmp_path)
        assert "time_to_target: not reached\n" in summary.read_text()


class TestPipelines:
    def test_conventional_shape(self):
        cfg = tiny_config()
        report = run_conventional(cfg)
        assert [p.name for p in report.phases] == ["fixed_lr1", "fixed_lr2"]
        assert report.total_seconds == pytest.approx(
            sum(p.wall_seconds for p in report.phases))
        assert set(r.phase for r in report.history) <= {"fixed_lr1", "fixed_lr2"}
        assert report.confusion.sum() == 21  # one row per validation sample
        assert report.eta_max is None

    def test_optimized_shape(self):
        cfg = tiny_config()
        report = run_optimized(cfg)
        assert [p.name for p in report.phases] == [
            "range_test", "head_sgdr", "dlr_clm"]
        assert report.phases[0].epochs_run == 0
        assert report.eta_max is not None and report.eta_max > 0
        assert report.total_seconds == pytest.approx(
            sum(p.wall_seconds for p in report.phases))
        assert report.confusion.sum() == 21

    def test_head_phase_restarts_at_the_suggestion_every_epoch(self):
        # 3 * round(200 * 5/6) = 501 training rows take 16 batches of 32, the
        # last one short: a cycle one step shorter would restart mid-epoch
        cfg = tiny_config(train=TrainConfig(max_epochs=1, batch_size=32),
                          n_per_class=200, blobs_noise=2.0, head_epochs=3,
                          patience=3)
        assert len(load_bench_dataset(cfg)[0]) == 501
        report = run_optimized(cfg)
        head_rows = [r for r in report.history if r.phase == "head_sgdr"]
        assert len(head_rows) >= 2
        assert all(r.lr == report.eta_max for r in head_rows)

    def test_conventional_ignores_configured_weight_decay(self):
        # the baseline trains without an L2 penalty whatever train.weight_decay
        # says; a decay of 5.0 would change every loss if it were applied
        histories = []
        for wd in (0.0, 5.0):
            train = TrainConfig(max_epochs=2, batch_size=16, seed=1,
                                weight_decay=wd)
            report = run_conventional(tiny_config(train=train))
            histories.append([(r.epoch, r.phase, r.lr, r.train_loss,
                               r.valid_loss, r.valid_acc)
                              for r in report.history])
        assert histories[0]
        assert histories[0] == histories[1]

    def test_optimized_ignores_the_schedule_rates(self):
        # the head phase anneals from the range test's suggestion to 0 and
        # fine-tuning scales the rate_* keys, so neither reads eta_max or
        # eta_min
        outputs = []
        for sched in (BenchConfig().sched,
                      CosineCycleConfig(eta_max=0.5, eta_min=0.3, t0=100)):
            report = run_optimized(tiny_config(sched=sched))
            outputs.append(([(r.epoch, r.phase, r.lr, r.train_loss,
                              r.valid_loss, r.valid_acc)
                             for r in report.history],
                            report.confusion.tolist(), report.eta_max))
        assert outputs[0][0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("pipeline, streams", [
        (run_conventional, {"fixed_lr1": 1, "fixed_lr2": 2}),
        (run_optimized, {"head_sgdr": 2, "dlr_clm": 3}),
    ])
    def test_phase_k_draws_seed_stream_k(self, epoch_seeds, pipeline,
                                         streams):
        # the range test is the optimized run's phase 1; noisy blobs, an
        # unreachable target and a 2-epoch budget with patience 2 make
        # every phase run two epochs
        cfg = tiny_config(seed=7, blobs_noise=1.0, lr1=1e-3, lr2=1e-4,
                          train=TrainConfig(max_epochs=2, batch_size=16,
                                            seed=7),
                          head_epochs=2, patience=2, target_accuracy=0.99)
        report = pipeline(cfg)
        assert [r.phase for r in report.history] == [
            name for name in streams for _ in range(2)]
        assert epoch_seeds == [[7, k, epoch] for k in streams.values()
                               for epoch in range(2)]

    def test_reached_consistent_with_target(self):
        cfg = tiny_config()
        report = run_conventional(cfg)
        final = report.phases[-1].final_valid_acc
        if report.reached:
            assert final >= cfg.target_accuracy
        else:
            assert final < cfg.target_accuracy

    def test_shared_data_and_fresh_load_agree(self):
        cfg = tiny_config(seed=1)
        data = load_bench_dataset(cfg)
        a = run_conventional(cfg, data)
        b = run_conventional(cfg)
        assert [(r.epoch, r.train_loss, r.valid_acc) for r in a.history] == \
               [(r.epoch, r.train_loss, r.valid_acc) for r in b.history]

    def test_histories_repeat_exactly(self):
        cfg = tiny_config(seed=2)
        runs = [run_optimized(cfg) for _ in range(2)]
        key = [[(r.epoch, r.phase, r.lr, r.train_loss, r.valid_loss, r.valid_acc)
                for r in run.history] for run in runs]
        assert key[0] == key[1]
        np.testing.assert_array_equal(runs[0].confusion, runs[1].confusion)

    @pytest.mark.parametrize("model", ["mlp", "cnn"])
    def test_range_test_phase_runs_only_the_cache_build(self, model,
                                                         monkeypatch):
        # up to the first dlr_clm step the body runs forward once per cache
        # batch of each split and never backward: the range test and the
        # range-test phase's accuracy use the head view on the cache
        cfg = tiny_config(model=model, head_epochs=1, target_accuracy=0.99)
        counts = {}
        at_dlr_clm = {}
        real_build = lrbench.bench.build_model
        real_phase = lrbench.bench.train_phase

        def spied_build(*args, **kwargs):
            built = real_build(*args, **kwargs)
            for layer in split_head(built)[0].layers:
                calls = counts[layer.name] = {"forward": 0, "backward": 0}
                for method in calls:
                    def counted(*a, _real=getattr(layer, method),
                                _calls=calls, _method=method, **k):
                        _calls[_method] += 1
                        return _real(*a, **k)
                    setattr(layer, method, counted)
            return built

        def spied_phase(*args, **kwargs):
            if kwargs["phase_name"] == "dlr_clm":
                at_dlr_clm.update({k: dict(v) for k, v in counts.items()})
            return real_phase(*args, **kwargs)

        monkeypatch.setattr(lrbench.bench, "build_model", spied_build)
        monkeypatch.setattr(lrbench.bench, "train_phase", spied_phase)
        train_ds, valid_ds = load_bench_dataset(cfg)
        run_optimized(cfg, (train_ds, valid_ds))
        assert at_dlr_clm, "dlr_clm never started"
        # predict blocks the rows only for a body that holds a conv; the
        # MLP's body forwards each split in one call
        if model == "cnn":
            cache_batches = (math.ceil(len(train_ds) / _BLOCK_ROWS)
                             + math.ceil(len(valid_ds) / _BLOCK_ROWS))
        else:
            cache_batches = 2
        assert at_dlr_clm == {name: {"forward": cache_batches, "backward": 0}
                              for name in counts}

    @pytest.mark.parametrize("model", ["mlp", "cnn"])
    def test_range_test_accuracy_is_the_full_models(self, model):
        cfg = tiny_config(model=model)
        train_ds, valid_ds = load_bench_dataset(cfg)
        report = run_optimized(cfg, (train_ds, valid_ds))
        untrained = build_model(cfg, train_ds.images.shape[1:],
                                train_ds.n_classes)
        _, acc = evaluate(untrained, valid_ds.images, valid_ds.labels)
        assert report.phases[0].final_valid_acc == acc

    def test_run_range_test_leaves_the_model_unchanged(self):
        cfg = tiny_config()
        train_ds, _ = load_bench_dataset(cfg)
        model = build_model(cfg, train_ds.images.shape[1:], train_ds.n_classes)
        # one momentum step first, so that velocities are not all zero
        train_step(model, train_ds.images[:16], train_ds.labels[:16], 0.01,
                   momentum=0.9)
        before = [[a.copy() for a in layer.params + layer.vel]
                  for layer in model.param_layers()]
        body, head = split_head(model)
        trace = run_range_test(cfg, head,
                               precompute_features(body, train_ds.images),
                               train_ds.labels)
        assert len(trace.steps) > 3
        for saved, layer in zip(before, model.param_layers()):
            for a, b in zip(saved, layer.params + layer.vel):
                np.testing.assert_array_equal(a, b)
        assert any(np.any(layer.vel[0]) for layer in model.param_layers())

    def test_predictions_match_forward_argmax(self):
        cfg = tiny_config()
        tr, va = load_bench_dataset(cfg)
        model = build_model(cfg, tr.images.shape[1:], tr.n_classes)
        preds = predictions(model, va.images)
        logits, _ = forward(model, va.images)
        np.testing.assert_array_equal(preds, np.argmax(logits, axis=1))


class TestEmitReport:
    def make_report(self):
        cfg = tiny_config()
        return run_conventional(cfg)

    def test_history_csv_round_trip(self, tmp_path):
        report = self.make_report()
        paths = emit_report(report, tmp_path)
        assert [p.name for p in paths] == [
            "history.csv", "confusion.csv", "summary.txt"]
        with open(paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["epoch", "phase", "lr", "train_loss",
                                 "valid_loss", "valid_acc", "seconds"]
        assert len(rows) == len(report.history)
        for got, want in zip(rows, report.history):
            assert int(got["epoch"]) == want.epoch
            assert got["phase"] == want.phase
            # repr round-trips floats exactly
            for name in ("lr", "train_loss", "valid_loss", "valid_acc",
                         "seconds"):
                assert float(got[name]) == getattr(want, name)

    def test_confusion_csv_layout(self, tmp_path):
        report = self.make_report()
        _, conf_path, _ = emit_report(report, tmp_path)
        lines = conf_path.read_text().splitlines()
        assert lines[0] == "class,blob0,blob1,blob2"
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == f"blob{i}"
            np.testing.assert_array_equal(
                [int(c) for c in cells[1:]], report.confusion[i])

    def test_summary_contents(self, tmp_path):
        report = self.make_report()
        *_, summary = emit_report(report, tmp_path)
        text = summary.read_text()
        assert "fixed_lr1" in text and "fixed_lr2" in text
        assert f"accuracy: {report.accuracy:.4f}" in text
        assert "reached_target:" in text

    def test_prefix_applied(self, tmp_path):
        report = self.make_report()
        paths = emit_report(report, tmp_path, "conventional_")
        assert [p.name for p in paths] == [
            "conventional_history.csv", "conventional_confusion.csv",
            "conventional_summary.txt"]

    def test_eta_max_written_when_present(self, tmp_path):
        report = run_optimized(tiny_config())
        *_, summary = emit_report(report, tmp_path)
        assert f"eta_max: {report.eta_max!r}" in summary.read_text()

    def test_finder_trace_written_when_present(self, tmp_path):
        report = run_optimized(tiny_config())
        paths = emit_report(report, tmp_path, "optimized_")
        assert [p.name for p in paths] == [
            "optimized_history.csv", "optimized_confusion.csv",
            "optimized_finder_trace.csv", "optimized_summary.txt"]
        write_trace_csv(tmp_path / "expected.csv", report.finder_trace)
        assert paths[2].read_text() == (tmp_path / "expected.csv").read_text()
