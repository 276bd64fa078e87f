"""Property tests for the schedule, the stratified split, batch augmentation
and config parsing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

import lrbench.data
from lrbench.bench import BenchConfig
from lrbench.config import CONFIG_KEYS, build_bench_config, parse_config_file
from lrbench.data import Dataset, augment_batch, split
from lrbench.errors import DataError
from lrbench.finder import RangeTestConfig
from lrbench.groups import LayerGroupRates
from lrbench.schedule import CosineCycleConfig, lr_at
from lrbench.train import TrainConfig
from test_data import augment_oracle
from test_schedule import oracle_lr

PROPERTY = settings(deadline=None, max_examples=60)

unit = st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False)
positive = st.floats(1e-6, 10.0)


@st.composite
def schedules(draw):
    eta_min = draw(st.floats(0.0, 0.5))
    eta_max = draw(st.floats(eta_min, eta_min + 1.0, exclude_min=True))
    return CosineCycleConfig(eta_max=eta_max, eta_min=eta_min,
                             t0=draw(st.integers(1, 200)),
                             mult=draw(st.integers(1, 4)))


class TestLrAtProperties:
    @PROPERTY
    @given(schedules(), st.integers(0, 100_000))
    def test_rate_stays_in_range_and_matches_oracle(self, cfg, t):
        lr = lr_at(t, cfg)
        assert cfg.eta_min <= lr <= cfg.eta_max
        assert lr == pytest.approx(oracle_lr(t, cfg), rel=1e-12, abs=1e-15)

    @PROPERTY
    @given(schedules(), st.integers(0, 8))
    def test_every_cycle_start_is_eta_max(self, cfg, k):
        start = sum(cfg.t0 * cfg.mult ** j for j in range(k))
        assert lr_at(start, cfg) == cfg.eta_max


class TestSplitProperties:
    @PROPERTY
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=5),
           st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_parts_are_a_stratified_partition(self, sizes, num, den, seed):
        labels = np.repeat(np.arange(len(sizes)), sizes)
        assume(len(labels))
        n_train = [round(n * num / (num + den)) for n in sizes]
        # each image holds its own row index, so rows can be traced
        images = np.arange(len(labels), dtype=np.float64).reshape(-1, 1, 1, 1)
        ds = Dataset(images, labels, [f"c{i}" for i in range(len(sizes))])
        if sum(n_train) in (0, len(labels)):
            # the rounding rule leaves one part with no rows at all
            with pytest.raises(DataError, match="leaves the (train|valid) part empty"):
                split(ds, num, den, seed=seed)
            return
        tr, va = split(ds, num, den, seed=seed)
        tr_rows = tr.images.ravel().astype(int)
        va_rows = va.images.ravel().astype(int)
        assert not set(tr_rows) & set(va_rows)
        assert sorted(np.concatenate([tr_rows, va_rows])) == list(range(len(labels)))
        assert np.array_equal(tr.labels, labels[tr_rows])
        assert np.array_equal(va.labels, labels[va_rows])
        assert np.bincount(tr.labels, minlength=len(sizes)).tolist() == n_train


class TestAugmentBatchProperties:
    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 10),
           st.integers(1, 10), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_each_image_is_one_flip_and_crop_of_its_input(self, n, c, h, w,
                                                          pad, seed):
        # distinct positive pixels, so that a pixel taken from the wrong
        # place matches no candidate and the zero padding stands out
        images = np.arange(1, n * c * h * w + 1, dtype=np.float64).reshape(
            n, c, h, w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lrbench.data, "_CROP_PAD", pad)
            out = augment_batch(images, np.random.default_rng(seed))
        assert out.shape == images.shape
        offsets = range(2 * pad + 1)
        draws = [(hf, vf, oy, ox) for hf in (False, True)
                 for vf in (False, True) for oy in offsets for ox in offsets]
        for img, got in zip(images, out):
            assert any(np.array_equal(got, augment_oracle(img, *d, pad=pad))
                       for d in draws)


@st.composite
def config_values(draw):
    """One valid value for every config key."""
    eta_min = draw(st.floats(0.0, 1.0))
    lr2 = draw(positive)
    initial = draw(positive)
    mid = draw(st.floats(initial, 20.0))
    lo = draw(positive)
    return {
        "dataset": draw(st.sampled_from(["blobs", "cifar10:data/batch 1.bin"])),
        "model": draw(st.sampled_from(["mlp", "cnn"])),
        "seed": draw(st.integers(0, 2**31)),
        "batch_size": draw(st.integers(1, 512)),
        "momentum": draw(unit),
        "weight_decay": draw(st.floats(0.0, 1.0)),
        "max_epochs": draw(st.integers(1, 100)),
        "augment": draw(st.booleans()),
        "eta_max": draw(st.floats(eta_min, 2.0, exclude_min=True)),
        "eta_min": eta_min,
        "t0": draw(st.integers(1, 1000)),
        "mult": draw(st.integers(1, 4)),
        "rate_initial": initial,
        "rate_mid": mid,
        "rate_final": draw(st.floats(mid, 30.0)),
        "finder_lo": lo,
        "finder_hi": draw(st.floats(lo, 100.0, exclude_min=True)),
        "finder_steps": draw(st.integers(10, 500)),
        "finder_beta": draw(unit),
        "finder_divergence": draw(st.floats(1.0, 10.0, exclude_min=True)),
        "finder_batch": draw(st.integers(1, 512)),
        "target_accuracy": draw(st.floats(0.0, 1.0, exclude_min=True,
                                          exclude_max=True)),
        "lr1": draw(st.floats(lr2, 20.0, exclude_min=True)),
        "lr2": lr2,
        "head_epochs": draw(st.integers(1, 100)),
        "patience": draw(st.integers(0, 100)),
        "blobs_noise": draw(st.floats(0.0, 1.0)),
        "n_per_class": draw(st.integers(1, 5000)),
        "split_num": draw(st.integers(1, 10)),
        "split_den": draw(st.integers(1, 10)),
    }


class TestConfigProperties:
    @PROPERTY
    @given(config_values())
    def test_every_key_round_trips(self, tmp_path_factory, v):
        assert set(v) == set(CONFIG_KEYS)
        path = tmp_path_factory.mktemp("cfg") / "bench.cfg"
        text = {k: str(x).lower() if isinstance(x, bool) else
                repr(x) if isinstance(x, float) else str(x)
                for k, x in v.items()}
        path.write_text("".join(f"{k} = {x}\n" for k, x in text.items()))
        raw = parse_config_file(path)
        assert raw == text
        expected = BenchConfig(
            dataset=v["dataset"], model=v["model"],
            train=TrainConfig(
                batch_size=v["batch_size"], momentum=v["momentum"],
                weight_decay=v["weight_decay"], max_epochs=v["max_epochs"],
                seed=v["seed"], augment=v["augment"]),
            sched=CosineCycleConfig(eta_max=v["eta_max"], t0=v["t0"],
                                    eta_min=v["eta_min"], mult=v["mult"]),
            rates=LayerGroupRates(v["rate_initial"], v["rate_mid"],
                                  v["rate_final"]),
            finder=RangeTestConfig(v["finder_lo"], v["finder_hi"],
                                   v["finder_steps"], v["finder_beta"],
                                   v["finder_divergence"]),
            target_accuracy=v["target_accuracy"], lr1=v["lr1"], lr2=v["lr2"],
            head_epochs=v["head_epochs"], finder_batch=v["finder_batch"],
            patience=v["patience"], blobs_noise=v["blobs_noise"],
            n_per_class=v["n_per_class"],
            split_num=v["split_num"], split_den=v["split_den"])
        assert build_bench_config(raw) == expected
