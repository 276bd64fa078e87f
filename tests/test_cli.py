import csv
import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from lrbench.bench import (BenchConfig, RunReport, build_model,
                           load_bench_dataset)
import lrbench.bench
import lrbench.cli
from lrbench.cli import main, run
from lrbench.config import (_SCHEMA, CONFIG_KEYS, build_bench_config,
                            parse_config_file)
from lrbench.errors import ConfigError
from lrbench.finder import (LRFinderTrace, RangeTestConfig, range_test,
                            suggest_lr, write_trace_csv)
from lrbench.groups import LayerGroupRates, precompute_features, split_head
from lrbench.nn import NonFiniteLossError, build_mlp
from lrbench.schedule import CosineCycleConfig
from lrbench.train import PhaseResult

TINY_CONFIG = """\
# desk-scale smoke config
n_per_class = 40
max_epochs = 2
batch_size = 16
head_epochs = 2
patience = 2
finder_lo = 0.001
finder_hi = 2.0
finder_steps = 25
finder_beta = 0.9
finder_batch = 64
target_accuracy = 0.95
"""


# one out-of-range value per config key; a key missing here fails its case
BAD_VALUES = {
    "dataset": "imagenet", "model": "rnn", "seed": "-1", "batch_size": "0",
    "momentum": "1", "weight_decay": "-1", "max_epochs": "0",
    "augment": "maybe", "eta_max": "0", "eta_min": "-0.1", "t0": "0",
    "mult": "0", "rate_initial": "0", "rate_mid": "0", "rate_final": "0",
    "finder_lo": "0", "finder_hi": "0", "finder_steps": "9",
    "finder_beta": "1", "finder_divergence": "1", "finder_batch": "0",
    "target_accuracy": "1", "lr1": "0", "lr2": "0", "head_epochs": "0",
    "patience": "-1", "blobs_noise": "-1",
    "n_per_class": "0", "split_num": "0", "split_den": "0",
}


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestParseConfigFile:
    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# comment\nseed = 3\n\nmodel = cnn\n")
        assert parse_config_file(path) == {"seed": "3", "model": "cnn"}

    def test_values_keep_spaces_trimmed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("dataset =   blobs  \n")
        assert parse_config_file(path) == {"dataset": "blobs"}

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\nlearning_rate = 3\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2.*learning_rate"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")


class TestBuildBenchConfig:
    def test_empty_gives_defaults(self):
        assert build_bench_config() == BenchConfig()

    def test_raw_values_cast_per_schema(self):
        cfg = build_bench_config({"seed": "7", "momentum": "0.8",
                                  "eta_max": "0.2", "t0": "50", "mult": "3",
                                  "rate_final": "0.05", "finder_steps": "20",
                                  "augment": "yes"})
        assert cfg.train.seed == 7
        assert cfg.train.momentum == 0.8
        assert cfg.train.augment is True
        assert cfg.sched.eta_max == 0.2
        assert cfg.sched.mult == 3
        assert cfg.rates.final == 0.05
        assert cfg.finder.n_steps == 20

    def test_overrides_beat_file_values(self):
        cfg = build_bench_config({"seed": "1", "model": "mlp"},
                                 {"seed": 9, "model": None})
        assert cfg.train.seed == 9
        assert cfg.model == "mlp"  # None override leaves the file value

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="bad value for seed"):
            build_bench_config({"seed": "three"})
        with pytest.raises(ConfigError, match="bad value for augment"):
            build_bench_config({"augment": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_bench_config({"nonsense": "1"})

    def test_augment_follows_dataset_by_default(self):
        assert build_bench_config({"dataset": "blobs"}).train.augment is False
        assert build_bench_config(
            {"dataset": "cifar10:/tmp/x"}).train.augment is True
        # explicit setting wins over the dataset heuristic
        assert build_bench_config(
            {"dataset": "cifar10:/tmp/x", "augment": "off"}).train.augment is False

    def test_invalid_combination_becomes_config_error(self):
        with pytest.raises(ConfigError):
            build_bench_config({"lr1": "0.001", "lr2": "0.01"})
        with pytest.raises(ConfigError):
            build_bench_config({"momentum": "1.5"})

    @pytest.mark.parametrize("make", [
        lambda: CosineCycleConfig(eta_max=0.01, t0=0),
        lambda: RangeTestConfig(n_steps=9),
        lambda: LayerGroupRates(0.0, 1e-3, 1e-2),
    ], ids=["CosineCycleConfig", "RangeTestConfig", "LayerGroupRates"])
    def test_every_config_object_raises_config_error(self, make):
        # one error type for every bad setting, still a ValueError to
        # callers that catch that
        with pytest.raises(ConfigError) as info:
            make()
        assert isinstance(info.value, ValueError)

    def test_infinite_divergence_factor_allowed(self):
        # inf stops the range test only on a non-finite loss; nan is no
        # factor at all
        cfg = build_bench_config({"finder_divergence": "inf"})
        assert cfg.finder.divergence_factor == math.inf
        with pytest.raises(ConfigError, match="finder_divergence"):
            build_bench_config({"finder_divergence": "nan"})

    def test_every_key_has_a_caster(self):
        for key, caster in CONFIG_KEYS.items():
            assert callable(caster), key

    def test_schema_sets_each_config_field_once(self):
        # the schema's (destination, field) pairs are the leaf fields of
        # BenchConfig: its own plain fields under "bench", and the fields of
        # each nested config under the name BenchConfig gives it
        defaults = BenchConfig()
        leaves = []
        for f in fields(BenchConfig):
            value = getattr(defaults, f.name)
            if is_dataclass(value):
                leaves += [(f.name, g.name) for g in fields(value)]
            else:
                leaves.append(("bench", f.name))
        pairs = [(part, name) for _, part, name in _SCHEMA.values()]
        assert sorted(pairs) == sorted(leaves)


class TestScheduleDump:
    def test_writes_csv(self, tmp_path, capsys):
        code = run(["schedule-dump", "--out", str(tmp_path), "--iters", "250"])
        assert code == 0
        lines = (tmp_path / "schedule.csv").read_text().splitlines()
        assert lines[0] == "t,lr"
        assert len(lines) == 251
        # default schedule: eta_max=0.01 at t=0 and at the t0=100 restart
        assert float(lines[1].split(",")[1]) == 0.01
        assert float(lines[101].split(",")[1]) == 0.01
        assert "schedule.csv" in capsys.readouterr().out

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_fewer_than_one_iteration_exits_2_naming_the_flag(
            self, tmp_path, capsys, iters):
        assert run(["schedule-dump", "--out", str(tmp_path),
                    "--iters", iters]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert errors == [f"error: --iters must be >= 1, got {iters}"]
        assert not (tmp_path / "schedule.csv").exists()


class TestConfusionCommand:
    def test_happy_path(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("true,pred\n0,0\n0,1\n1,1\n1,1\n")
        code = run(["confusion", "--pred", str(pred), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "confusion.csv").read_text().splitlines()
        assert lines == ["class,c0,c1", "c0,1,1", "c1,0,2"]
        assert "accuracy: 0.750000" in capsys.readouterr().out

    def test_blank_lines_skipped(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("true,pred\n0,0\n\n  \n1,0\n\n")
        assert run(["confusion", "--pred", str(pred), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "confusion.csv").read_text().splitlines()
        assert lines == ["class,c0,c1", "c0,1,0", "c1,1,0"]
        assert "accuracy: 0.500000 over 2 samples" in capsys.readouterr().out

    def test_bad_header_exits_3(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("label,guess\n0,0\n")
        assert run(["confusion", "--pred", str(pred)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_row_cites_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("true,pred\n0,0\nx,1\n")
        assert run(["confusion", "--pred", str(pred)]) == 3
        assert ":3:" in capsys.readouterr().err

    def test_negative_id_is_a_data_error_citing_its_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("true,pred\n0,1\n1,0\n-1,0\n")
        assert run(["confusion", "--pred", str(pred), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{pred}:4: negative class id" in err
        assert not (tmp_path / "confusion.csv").exists()

    def test_missing_file_exits_3(self, tmp_path):
        assert run(["confusion", "--pred", str(tmp_path / "none.csv")]) == 3

    def test_empty_rows_exit_3(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("true,pred\n")
        assert run(["confusion", "--pred", str(pred)]) == 3

    def test_non_utf8_file_exits_3_naming_it(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_bytes(b"true,pred\n0,1\n\xff\n")
        assert run(["confusion", "--pred", str(pred), "--out", str(tmp_path)]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot read {pred}: ")
        assert not (tmp_path / "confusion.csv").exists()

    def test_huge_class_id_exits_3_naming_file_and_id(self, tmp_path, capsys):
        # a 100000001 x 100000001 matrix is larger than the address space,
        # so the allocation fails at once
        pred = tmp_path / "pred.csv"
        pred.write_text("true,pred\n0,100000000\n")
        assert run(["confusion", "--pred", str(pred), "--out", str(tmp_path)]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {pred}: class id 100000000 ")
        assert not (tmp_path / "confusion.csv").exists()


class TestLrFind:
    def test_writes_trace_and_suggestion(self, tmp_path, tiny_config_file, capsys):
        out = tmp_path / "out"
        code = run(["lr-find", "--config", str(tiny_config_file),
                    "--out", str(out)])
        assert code == 0
        trace_lines = (out / "finder_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "step,lr,raw_loss,smoothed_loss,stop_reason"
        assert len(trace_lines) > 3
        stdout = capsys.readouterr().out
        assert "suggested_lr:" in stdout

    def test_probes_at_finder_batch(self, tmp_path):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text("finder_lo = 0.001\nfinder_hi = 2.0\n"
                            "finder_steps = 40\nfinder_beta = 0.9\n"
                            "finder_batch = 128\n")
        out = tmp_path / "out"
        assert run(["lr-find", "--config", str(cfg_path),
                    "--out", str(out)]) == 0
        cfg = build_bench_config(parse_config_file(cfg_path))
        train_ds, _ = load_bench_dataset(cfg)
        model = build_model(cfg, train_ds.images.shape[1:], train_ds.n_classes)
        body, head = split_head(model)
        trace = range_test(head,
                           (precompute_features(body, train_ds.images),
                            train_ds.labels),
                           cfg.finder, rng_seed=cfg.train.seed, batch_size=128)
        write_trace_csv(tmp_path / "expected.csv", trace)
        assert ((out / "finder_trace.csv").read_text()
                == (tmp_path / "expected.csv").read_text())

    def test_no_descent_exits_4_but_keeps_trace(self, tmp_path, capsys):
        # a ramp starting far beyond the divergence point leaves too few
        # usable steps for a suggestion; the trace should survive for
        # diagnosis anyway
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_per_class = 40\nfinder_lo = 1000\n"
                       "finder_hi = 10000\nfinder_steps = 10\n")
        out = tmp_path / "out"
        code = run(["lr-find", "--config", str(cfg), "--out", str(out)])
        assert code == 4
        assert (out / "finder_trace.csv").exists()
        assert "error:" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_reports(self, tmp_path, tiny_config_file, capsys):
        out = tmp_path / "out"
        code = run(["train", "--config", str(tiny_config_file),
                    "--out", str(out)])
        assert code == 0
        for name in ("history.csv", "confusion.csv", "summary.txt"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "valid_acc:" in stdout

    @pytest.mark.parametrize("patience,outcome", [
        (10, "after 3 epochs (target missed)"),
        (0, "after 2 epochs (stopped early)"),
    ])
    def test_says_why_a_missed_target_ended(self, tmp_path, capsys,
                                            patience, outcome):
        # a rate too small to change any prediction: no epoch after the
        # first beats the phase's best, so patience 0 stops at the second
        # epoch and patience 10 spends the 3-epoch budget
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("n_per_class = 20\nmax_epochs = 3\n"
                       f"patience = {patience}\neta_max = 1e-12\n"
                       "target_accuracy = 0.99\n")
        assert run(["train", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(outcome)

    def test_its_one_phase_draws_seed_stream_1(self, tmp_path, epoch_seeds):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n_per_class = 20\nmax_epochs = 3\nseed = 5\n"
                       "eta_max = 0.0001\ntarget_accuracy = 0.99\n")
        assert run(["train", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 0
        assert epoch_seeds == [[5, 1, epoch] for epoch in range(3)]


class TestBenchmarkCommand:
    def test_writes_both_report_sets(self, tmp_path, tiny_config_file, capsys):
        out = tmp_path / "out"
        code = run(["benchmark", "--config", str(tiny_config_file),
                    "--out", str(out)])
        assert code == 0
        for prefix in ("conventional_", "optimized_"):
            for name in ("history.csv", "confusion.csv", "summary.txt"):
                assert (out / f"{prefix}{name}").exists()
        stdout = capsys.readouterr().out
        assert "conventional:" in stdout
        assert "optimized:" in stdout
        lines = stdout.splitlines()
        assert lines[-1].startswith("speedup: ")
        assert lines[-2].startswith("time_to_target_ratio: ")

    @pytest.mark.parametrize("conv_s, opt_s, fields, ratio", [
        (6.0, 3.0, ("6.000s", "3.000s"), "2.00"),
        (None, 3.0, ("none", "3.000s"), "not reached"),
        (6.0, None, ("6.000s", "none"), "not reached"),
        # four significant digits, so the fields reproduce the ratio
        (0.004412, 0.01207, ("0.004412s", "0.01207s"), "0.37"),
    ], ids=["both", "conventional-missed", "optimized-missed",
            "milliseconds"])
    def test_prints_the_time_to_target_ratio(
            self, tmp_path, tiny_config_file, capsys, monkeypatch, conv_s,
            opt_s, fields, ratio):
        def stub(total_seconds, target_seconds):
            phases = [PhaseResult("p", 1, 0.5, total_seconds)]
            return lambda cfg, data, history: RunReport(
                phases=phases, total_seconds=total_seconds,
                confusion=np.eye(2, dtype=np.int64),
                reached=target_seconds is not None, history=[],
                class_names=["a", "b"], target_seconds=target_seconds,
                target_epoch=None if target_seconds is None else 0)

        monkeypatch.setattr(lrbench.cli, "run_conventional", stub(8.0, conv_s))
        monkeypatch.setattr(lrbench.cli, "run_optimized", stub(2.0, opt_s))
        assert run(["benchmark", "--config", str(tiny_config_file),
                    "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"time=8.000s to_target={fields[0]} " in lines[-4]
        assert f"time=2.000s to_target={fields[1]} " in lines[-3]
        assert lines[-2:] == [f"time_to_target_ratio: {ratio}",
                              "speedup: 4.00"]

    def test_optimized_divergence_keeps_the_conventional_report(
            self, tmp_path, tiny_config_file, capsys, monkeypatch):
        def diverge(cfg, data, history):
            raise NonFiniteLossError(float("nan"))

        monkeypatch.setattr(lrbench.cli, "run_optimized", diverge)
        out = tmp_path / "out"
        assert run(["benchmark", "--config", str(tiny_config_file),
                    "--out", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.err.startswith("error: training diverged: non-finite")
        written = [line for line in captured.out.splitlines()
                   if line.startswith("wrote ")]
        names = ("history.csv", "confusion.csv", "summary.txt")
        assert written == [f"wrote {out / f'conventional_{name}'}"
                           for name in names] + [
            f"wrote {out / 'optimized_history.csv'}"]
        assert all((out / f"conventional_{name}").exists() for name in names)
        # the optimized run diverged before its first epoch finished
        assert list(out.glob("optimized_*")) == [out / "optimized_history.csv"]
        assert (out / "optimized_history.csv").read_text().count("\n") == 1
        assert "speedup:" not in captured.out

    @pytest.mark.parametrize("pipeline,keys,phase", [
        # a rate of 50000 in batches of 64 trains blobs for one epoch before
        # the loss overflows
        ("conventional", "batch_size = 64\nlr1 = 50000\nmomentum = 0.0\n",
         "fixed_lr1"),
        # on noisy blobs the head trains for its 3 epochs below the target;
        # fine-tuning at 1e8 then overflows at once
        ("optimized", "blobs_noise = 1.0\nhead_epochs = 3\nrate_initial = 1e8\n"
         "rate_mid = 1e8\nrate_final = 1e8\n", "head_sgdr"),
    ], ids=["conventional", "optimized"])
    def test_divergence_keeps_the_finished_epochs(self, tmp_path, capsys,
                                                  pipeline, keys, phase):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("n_per_class = 40\nmax_epochs = 6\n"
                       "target_accuracy = 0.999\n" + keys)
        out = tmp_path / "out"
        assert run(["benchmark", "--config", str(cfg), "--out", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.err.startswith("error: training diverged: non-finite")
        path = out / f"{pipeline}_history.csv"
        assert captured.out.splitlines()[-1] == f"wrote {path}"
        assert list(out.glob(f"{pipeline}_*")) == [path]
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert 1 <= len(rows) < 6
        assert [int(r["epoch"]) for r in rows] == list(range(len(rows)))
        assert all(r["phase"] == phase
                   and math.isfinite(float(r["train_loss"]))
                   and math.isfinite(float(r["valid_loss"])) for r in rows)

    def test_optimized_finder_trace_gives_eta_max(self, tmp_path,
                                                  tiny_config_file):
        out = tmp_path / "out"
        assert run(["benchmark", "--config", str(tiny_config_file),
                    "--out", str(out)]) == 0
        assert not (out / "conventional_finder_trace.csv").exists()
        with open(out / "optimized_finder_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        trace = LRFinderTrace([(float(r["lr"]), float(r["raw_loss"]),
                                float(r["smoothed_loss"])) for r in rows],
                              rows[-1]["stop_reason"])
        summary = (out / "optimized_summary.txt").read_text()
        eta_line = next(line for line in summary.splitlines()
                        if line.startswith("eta_max: "))
        assert float(eta_line.split(": ")[1]) == suggest_lr(trace)

    def test_eta_min_above_the_suggestion_runs(self, tmp_path):
        # the head phase anneals to 0 whatever eta_min says, so a floor
        # above the range test's suggestion is no error
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("eta_min = 0.3\neta_max = 0.5\nfinder_lo = 0.001\n"
                       "finder_hi = 0.2\nfinder_steps = 40\n"
                       "n_per_class = 40\nmax_epochs = 2\n")
        assert run(["benchmark", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 0


class TestInitialModelDraws:
    @pytest.mark.parametrize("command", ["benchmark", "lr-find", "train"])
    def test_a_command_draws_its_initial_model_once(
            self, tmp_path, tiny_config_file, monkeypatch, command):
        # the second pipeline of one benchmark copies the model the first
        # one drew
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_mlp(*args, **kwargs)

        monkeypatch.setattr(lrbench.bench, "build_mlp", counted)
        lrbench.bench._initial_model.cache_clear()
        assert run([command, "--config", str(tiny_config_file),
                    "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 2.0\n")
        assert run(["train", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "eta_max", "inf"),
        ("benchmark", "lr1", "inf"),
        ("benchmark", "weight_decay", "nan"),
        ("benchmark", "blobs_noise", "nan"),
        ("benchmark", "finder_hi", "inf"),
        ("lr-find", "finder_divergence", "nan"),
        ("lr-find", "finder_divergence", "-inf"),
        ("benchmark", "blobs_noise", "-1"),
        ("train", "seed", "-1"),
        ("schedule-dump", "seed", "-1"),
    ])
    def test_non_finite_or_negative_value_exits_2_naming_key(
            self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"max_epochs = 3\n{key} = {value}\n")
        assert run([command, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and key in errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_out_of_range_value_exits_2_with_one_error_line(
            self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {BAD_VALUES[key]}\n")
        assert run(["train", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:")

    @pytest.mark.parametrize("command, key, value", [
        # both sizes exceed the 64-bit address space, so the allocation
        # fails at once without touching memory
        ("train", "n_per_class", "1000000000000"),
        ("lr-find", "finder_batch", "1000000000000000"),
        ("benchmark", "n_per_class", "1000000000000"),
        # with finder_batch unset the range test's probe batch is batch_size
        ("lr-find", "batch_size", "1000000000000000"),
        ("benchmark", "batch_size", "1000000000000000"),
    ])
    def test_setting_too_large_to_allocate_exits_2(
            self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run([command, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        # the settings that size the command's arrays, then numpy's message
        named = ("n_per_class" if command == "train"
                 else "n_per_class, finder_batch or batch_size")
        assert err.startswith(f"error: {named} too large to allocate: "
                              "Unable to allocate ")
        # blobs allocate their labels first: one per row, 3 classes of
        # n_per_class rows
        lead = 3 * int(value) if key == "n_per_class" else int(value)
        assert f"({lead}," in err

    @pytest.mark.parametrize("command", ["lr-find", "benchmark"])
    def test_overflowing_finder_ramp_exits_2(self, tmp_path, capsys, command):
        # 10.0 / 1e-320 is inf: a config error, not a diverged range test
        cfg = tmp_path / "ramp.cfg"
        cfg.write_text("finder_lo = 1e-320\n")
        assert run([command, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "lr_lo=1e-320 lr_hi=10.0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dataset", ["blobs", "cifar10:missing.bin"])
    def test_n_per_class_below_1_exits_2_for_either_dataset(
            self, tmp_path, capsys, dataset):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"dataset = {dataset}\nn_per_class = 0\n")
        assert run(["train", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "n_per_class" in errors[0]

    def test_blobs_per_class_is_an_unknown_key(self, tmp_path, capsys):
        # n_per_class sizes blobs and cifar10 alike; precision went the same
        # way: the CLI and the benchmark build float32 models; min_delta went
        # when any epoch beating the phase's best became an improvement
        cfg = tmp_path / "old.cfg"
        for line in ("blobs_per_class = 40", "precision = f64",
                     "min_delta = 0.01"):
            cfg.write_text(line + "\n")
            assert run(["train", "--config", str(cfg)]) == 2
            key = line.split()[0]
            assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert run(["train", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        assert run(["train", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot read config {cfg}: ")
        assert not (tmp_path / "out").exists()

    def test_data_error_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cifar.cfg"
        cfg.write_text(f"dataset = cifar10:{tmp_path / 'missing'}\n")
        assert run(["train", "--config", str(cfg)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exits_5_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_CONFIG + "lr1 = 1000000.0\n")
        assert run(["benchmark", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: training diverged: non-finite")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_divergence_keeps_the_finished_epochs(self, tmp_path,
                                                        capsys):
        # coupled decay with rate * weight_decay above 2 grows the weights
        # every step, so the loss overflows a few epochs in
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("n_per_class = 40\nmax_epochs = 6\neta_max = 1.0\n"
                       "momentum = 0.0\nweight_decay = 2.05\nt0 = 100000\n"
                       "target_accuracy = 0.99\n")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.err.startswith("error: training diverged: non-finite")
        assert f"wrote {out / 'history.csv'}" in captured.out
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0].keys() == {"epoch", "phase", "lr", "train_loss",
                                  "valid_loss", "valid_acc", "seconds"}
        assert 1 <= len(rows) < 6
        assert [int(r["epoch"]) for r in rows] == list(range(len(rows)))
        assert all(r["phase"] == "sgdr"
                   and math.isfinite(float(r["train_loss"])) for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_non_finite_validation_loss_exits_5(self, tmp_path, capsys):
        # the second epoch's training loss is finite, but its validation
        # logits overflow: evaluation ends the run there
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("n_per_class = 40\neta_max = 1.0\nmomentum = 0.0\n"
                       "weight_decay = 3\nt0 = 100000\n")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 5
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: training diverged: non-finite")
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(math.isfinite(float(r[key])) for r in rows
                   for key in ("train_loss", "valid_loss"))

    def test_argparse_rejects_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["confusion", "--config", "missing.cfg", "--seed", "7",
         "--model", "cnn"],
        ["confusion", "--precision", "f64"],
        ["confusion", "--dataset", "blobs"],
        ["schedule-dump", "--seed", "7"],
        ["schedule-dump", "--model", "cnn"],
        ["lr-find", "--precision", "f64"],
        ["train", "--precision", "f64"],
        ["benchmark", "--precision", "f64"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys,
                                                     argv):
        pred = tmp_path / "pred.csv"
        pred.write_text("true,pred\n0,0\n")
        if argv[0] == "confusion":
            argv = argv + ["--pred", str(pred)]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override_reaches_training(self, tmp_path, tiny_config_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["train", "--config", str(tiny_config_file), "--seed", "3",
             "--out", str(out_a)])
        run(["train", "--config", str(tiny_config_file), "--seed", "3",
             "--out", str(out_b)])
        hist_a = (out_a / "history.csv").read_text()
        hist_b = (out_b / "history.csv").read_text()
        # identical seeds give identical metrics; only the timing column moves
        strip = lambda text: [",".join(line.split(",")[:-1])
                              for line in text.splitlines()]
        assert strip(hist_a) == strip(hist_b)
