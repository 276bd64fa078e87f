import csv
import math

import numpy as np
import pytest

import lrbench.finder
from conftest import QUAD_CURVATURE, quadratic_model, quadratic_problem
from lrbench.finder import (LRFinderTrace, NoDescentFound, RangeTestConfig,
                            ramp_lr, range_test, suggest_lr, write_trace_csv)
from lrbench.nn import Dense, Model, ReLU, train_step


def make_trace(lrs, smoothed, reason="completed"):
    steps = [(lr, s, s) for lr, s in zip(lrs, smoothed)]
    return LRFinderTrace(steps=steps, stop_reason=reason)


class TestRampLr:
    def test_endpoints_exact(self):
        cfg = RangeTestConfig(lr_lo=1e-5, lr_hi=1.0, n_steps=50)
        assert ramp_lr(0, cfg) == 1e-5
        assert ramp_lr(49, cfg) == 1.0

    def test_geometric_midpoint(self):
        cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=1e-2, n_steps=11)
        assert ramp_lr(5, cfg) == pytest.approx(1e-3, rel=1e-12)

    def test_strictly_increasing(self):
        cfg = RangeTestConfig(lr_lo=1e-5, lr_hi=10.0, n_steps=100)
        lrs = [ramp_lr(i, cfg) for i in range(100)]
        assert all(a < b for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range_step(self):
        cfg = RangeTestConfig(n_steps=10)
        with pytest.raises(ValueError):
            ramp_lr(10, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RangeTestConfig(lr_lo=0.1, lr_hi=0.01)
        with pytest.raises(ValueError):
            RangeTestConfig(n_steps=5)
        with pytest.raises(ValueError):
            RangeTestConfig(smoothing_beta=1.0)
        with pytest.raises(ValueError):
            RangeTestConfig(divergence_factor=1.0)

    @pytest.mark.parametrize("lr_lo, lr_hi", [(1e-320, 10.0), (1e-300, 1e10),
                                              (1e-5, math.inf)])
    def test_overflowing_ramp_ratio_rejected(self, lr_lo, lr_hi):
        # lr_hi / lr_lo past the float range would run every inner step at
        # lr = inf; the error names both ends
        with pytest.raises(ValueError, match=f"lr_lo={lr_lo} lr_hi={lr_hi}"):
            RangeTestConfig(lr_lo=lr_lo, lr_hi=lr_hi)

    def test_widest_finite_ratio_ramps_finitely(self):
        cfg = RangeTestConfig(lr_lo=1e-300, lr_hi=1e8)
        assert all(math.isfinite(ramp_lr(step, cfg))
                   for step in range(cfg.n_steps))


def probe_trace(x, y, beta, model=None):
    """A completed 50-step range test of ``model`` (by default a 3-class
    Dense layer) on (x, y)."""
    model = model or Model([Dense(4, 3, dtype=np.float64,
                                  rng=np.random.default_rng(2))])
    cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=0.5, n_steps=50,
                          smoothing_beta=beta)
    trace = range_test(model, (x, y), cfg, rng_seed=0, batch_size=8)
    assert trace.stop_reason == "completed"
    return trace


def random_probe_trace(rng, beta):
    return probe_trace(rng.random((64, 4)), rng.integers(0, 3, size=64), beta)


class TestSmoothLosses:
    """The smoothed column of a range-test trace is the bias-corrected EMA
    of its raw column."""

    def test_beta_zero_is_identity(self, rng):
        trace = random_probe_trace(rng, 0.0)
        assert [s for _, _, s in trace.steps] == [r for _, r, _ in trace.steps]

    def test_constant_fixpoint(self):
        # a parameter-free model on identical rows sees the same loss at
        # every probe
        x, y = np.ones((64, 4)), np.zeros(64, dtype=np.int64)
        for beta in (0.0, 0.5, 0.9, 0.98):
            trace = probe_trace(x, y, beta, Model([ReLU()]))
            raws = [r for _, r, _ in trace.steps]
            assert raws == [raws[0]] * len(raws)
            assert [s for _, _, s in trace.steps] == pytest.approx(raws, rel=1e-12)

    def test_matches_naive_recurrence(self, rng):
        beta = 0.98
        trace = random_probe_trace(rng, beta)
        m = 0.0
        expected = []
        for i, (_, r, _) in enumerate(trace.steps):
            m = beta * m + (1 - beta) * r
            expected.append(m / (1 - beta ** (i + 1)))
        assert len(expected) == 50
        assert [s for _, _, s in trace.steps] == pytest.approx(expected, rel=1e-15)


class TestRangeTest:
    def test_flat_trace_when_fully_frozen(self):
        # a model without parameters has nothing to train, so every probe
        # sees the same loss
        x, _ = quadratic_problem()
        model = Model([ReLU()])
        cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=1.0, n_steps=20)
        trace = range_test(model, (x, np.zeros_like(x)), cfg, rng_seed=0,
                           batch_size=2)
        assert trace.stop_reason == "completed"
        raws = [raw for _, raw, _ in trace.steps]
        assert raws == [raws[0]] * len(raws)

    def test_quadratic_decreases_then_explodes(self):
        x, y = quadratic_problem()
        cliff = 2.0 / QUAD_CURVATURE
        cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=1.0, n_steps=40,
                              smoothing_beta=0.9)
        trace = range_test(quadratic_model(), (x, y), cfg, rng_seed=0,
                           batch_size=2)
        assert trace.stop_reason == "diverged"
        lrs, raws, _ = map(np.array, zip(*trace.steps))
        below = raws[lrs < cliff * 0.9]
        assert np.all(np.diff(below) < 0)  # pure contraction region
        assert raws[-1] > below.min() * 10

    def test_lr_column_strictly_increasing(self):
        x, y = quadratic_problem()
        cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=0.05, n_steps=25)
        trace = range_test(quadratic_model(), (x, y), cfg, rng_seed=0,
                           batch_size=2)
        lrs = [lr for lr, _, _ in trace.steps]
        assert all(a < b for a, b in zip(lrs, lrs[1:]))

    def test_parameters_restored_bit_identical(self):
        x, y = quadratic_problem()
        model = quadratic_model(seed=5)
        before = [p.copy() for layer in model.param_layers()
                  for p in layer.params]
        cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=1.0, n_steps=30)
        range_test(model, (x, y), cfg, rng_seed=0, batch_size=2)
        after = [p for layer in model.param_layers() for p in layer.params]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)
        for layer in model.param_layers():
            for v in layer.vel:
                assert np.all(v == 0.0)

    def test_deterministic_given_seed(self, rng):
        x = rng.random((64, 4)).astype(np.float64)
        y = rng.integers(0, 3, size=64)
        cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=0.5, n_steps=30)

        def run():
            model = Model([Dense(4, 3, dtype=np.float64,
                                 rng=np.random.default_rng(2))])
            return range_test(model, (x, y), cfg, rng_seed=99, batch_size=8)

        t1, t2 = run(), run()
        assert t1.steps == t2.steps
        assert t1.stop_reason == t2.stop_reason

    def test_divergence_stops_at_first_violation(self):
        x, y = quadratic_problem()
        cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=2.0, n_steps=50,
                              smoothing_beta=0.5)
        trace = range_test(quadratic_model(), (x, y), cfg, rng_seed=0,
                           batch_size=2)
        assert trace.stop_reason == "diverged"
        smoothed = np.array([s for _, _, s in trace.steps])
        factor = cfg.divergence_factor
        for i in range(1, len(smoothed)):
            violated = smoothed[i] > factor * smoothed[:i].min()
            if i < len(smoothed) - 1:
                assert not violated  # only the recorded last step violates
            else:
                assert violated

    def test_non_finite_loss_counts_as_divergence(self):
        x, y = quadratic_problem()
        cfg = RangeTestConfig(lr_lo=1e3, lr_hi=1e12, n_steps=20,
                              divergence_factor=1e300)
        trace = range_test(quadratic_model(), (x, y), cfg, rng_seed=0,
                           batch_size=2)
        assert trace.stop_reason == "diverged"
        assert not math.isfinite(trace.steps[-1][2])

    def test_empty_dataset_rejected(self):
        cfg = RangeTestConfig()
        with pytest.raises(ValueError):
            range_test(quadratic_model(), (np.zeros((0, 2)), np.zeros((0, 1))),
                       cfg, rng_seed=0)

    def test_cycles_through_small_dataset(self):
        x, y = quadratic_problem()
        cfg = RangeTestConfig(lr_lo=1e-5, lr_hi=1e-3, n_steps=30)
        trace = range_test(quadratic_model(), (x, y), cfg, rng_seed=0,
                           batch_size=2)
        assert len(trace.steps) == 30

    @pytest.mark.parametrize("n, batch_size", [(6, 32), (5, 8), (7, 3)])
    def test_every_step_gets_a_full_batch(self, monkeypatch, n, batch_size):
        # the shuffled pass repeats end to end, also within one batch when
        # the batch is larger than the data
        real_step = lrbench.finder.train_step
        batches = []

        def spied_step(model, xb, yb, lr):
            batches.append(xb[:, 0].astype(int))
            return real_step(model, xb, yb, lr)

        monkeypatch.setattr(lrbench.finder, "train_step", spied_step)
        x = np.arange(n, dtype=np.float64)[:, None]
        model = Model([Dense(1, 2, dtype=np.float64)])
        cfg = RangeTestConfig(lr_lo=1e-6, lr_hi=1e-5, n_steps=10)
        trace = range_test(model, (x, np.zeros(n, dtype=int)), cfg,
                           rng_seed=0, batch_size=batch_size)
        assert len(trace.steps) == 10
        assert [len(b) for b in batches] == [batch_size] * 10
        stream = np.concatenate(batches)
        assert sorted(stream[:n]) == list(range(n))
        np.testing.assert_array_equal(stream, np.resize(stream[:n], len(stream)))


class TestSuggestLr:
    def test_monotone_increasing_raises(self):
        lrs = np.logspace(-4, -1, 10)
        trace = make_trace(lrs, np.linspace(1.0, 2.0, 10))
        with pytest.raises(NoDescentFound):
            suggest_lr(trace)

    def test_single_steepest_drop(self):
        lrs = [1e-4, 1e-3, 1e-2, 1e-1]
        smoothed = [3.0, 2.9, 1.0, 0.9]  # steepest pair ends at 1e-2
        assert suggest_lr(make_trace(lrs, smoothed)) == 1e-2

    def test_named_rate_at_known_argmin(self):
        lrs = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        smoothed = [2.0, 1.9, 0.5, 0.45, 0.44]
        assert suggest_lr(make_trace(lrs, smoothed)) == 1e-3

    def test_tie_broken_toward_smaller_lr(self):
        lrs = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        smoothed = [3.0, 2.0, 2.0, 1.0, 1.0]
        assert suggest_lr(make_trace(lrs, smoothed)) == 1e-3

    def test_segments_touching_a_non_finite_loss_skipped(self):
        # counted, the drop from inf at 1e-2 would be the steepest and
        # give 1e-1
        lrs = [1e-3, 1e-2, 1e-1, 1.0, 10.0]
        smoothed = [2.0, math.inf, 1.0, 0.5, 0.4]
        assert suggest_lr(make_trace(lrs, smoothed)) == 1.0

    def test_tail_excluded_on_divergence(self):
        lrs = np.logspace(-4, 0, 10)
        # the biggest drop sits inside the excluded tail; the milder early
        # drop must win
        smoothed = [3.0, 2.5, 2.4, 2.3, 2.2, 2.1, 0.5, 0.4, 0.3, 5.0]
        trace = make_trace(lrs, smoothed, reason="diverged")
        assert suggest_lr(trace) == pytest.approx(lrs[1])

    def test_completed_trace_excludes_only_last_step(self):
        lrs = np.logspace(-4, 0, 6)
        smoothed = [3.0, 2.9, 2.8, 2.7, 0.5, 0.1]
        trace = make_trace(lrs, smoothed)
        assert suggest_lr(trace) == pytest.approx(lrs[4])

    def test_too_few_usable_steps(self):
        lrs = np.logspace(-4, 0, 5)
        trace = make_trace(lrs, [3, 2, 1, 0.5, 9.0], reason="diverged")
        with pytest.raises(NoDescentFound):
            suggest_lr(trace)

    def test_bracketing_on_real_traces(self):
        x, y = quadratic_problem()
        for seed in range(5):
            cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=1.0, n_steps=30,
                                  smoothing_beta=0.9)
            trace = range_test(quadratic_model(seed), (x, y), cfg, rng_seed=0,
                               batch_size=2)
            suggestion = suggest_lr(trace)
            assert cfg.lr_lo < suggestion < trace.steps[-1][0]

    def test_quadratic_suggestion_in_best_fixed_lr_decade(self):
        x, y = quadratic_problem()
        grid = np.logspace(-4, 0, 20)
        finals = []
        for lr in grid:
            model = quadratic_model(seed=3)
            for _ in range(30):
                loss = train_step(model, x, y, float(lr))
            finals.append(loss)
        best = float(grid[int(np.argmin(finals))])
        cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=1.0, n_steps=30,
                              smoothing_beta=0.9)
        trace = range_test(quadratic_model(seed=3), (x, y), cfg, rng_seed=0,
                           batch_size=2)
        suggestion = suggest_lr(trace)
        assert math.floor(math.log10(suggestion)) == math.floor(math.log10(best))


def test_trace_csv_format(tmp_path):
    trace = make_trace([1e-3, 1e-2], [1.5, 1.25])
    write_trace_csv(tmp_path / "trace.csv", trace)
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "step,lr,raw_loss,smoothed_loss,stop_reason"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 1e-3
    assert float(first[2]) == 1.5
    assert first[4] == "completed"


def test_trace_csv_gives_back_the_suggestion(tmp_path):
    # diverged: suggest_lr drops the last step and the TAIL_EXCLUDE steps
    # before it, which skips the steepest drop here; only a file that
    # carries the stop reason gives back the same suggestion
    lrs = [float(lr) for lr in np.logspace(-4, 0, 9)]
    trace = make_trace(lrs, [3.0, 2.75, 2.5, 2.25, 2.0, 0.5, 0.25, 1.5,
                             math.inf], reason="diverged")
    write_trace_csv(tmp_path / "trace.csv", trace)
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    parsed = LRFinderTrace(
        [(float(r["lr"]), float(r["raw_loss"]), float(r["smoothed_loss"]))
         for r in rows], rows[-1]["stop_reason"])
    assert parsed == trace
    assert suggest_lr(parsed) == suggest_lr(trace) == lrs[1]
    assert suggest_lr(LRFinderTrace(parsed.steps, "completed")) == lrs[5]
