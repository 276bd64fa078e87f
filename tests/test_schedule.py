import math

import numpy as np
import pytest

from lrbench.errors import ConfigError
from lrbench.schedule import (CosineCycleConfig, cosine_lr, dump_schedule,
                              lr_at, write_schedule_csv)


def oracle_locate(t, cfg):
    # independent cumulative-sum walk in exact integer arithmetic
    k = 0
    remaining = t
    while remaining >= cfg.t0 * cfg.mult ** k:
        remaining -= cfg.t0 * cfg.mult ** k
        k += 1
    return k, remaining


def oracle_lr(t, cfg):
    k, tw = oracle_locate(t, cfg)
    length = cfg.t0 * cfg.mult ** k
    return cfg.eta_min + 0.5 * (cfg.eta_max - cfg.eta_min) * (
        1.0 + math.cos(math.pi * tw / length))


class TestCosineLr:
    def test_start_endpoint(self):
        cfg = CosineCycleConfig(eta_max=0.01, t0=100)
        assert cosine_lr(0, 100, cfg) == 0.01

    def test_end_endpoint(self):
        cfg = CosineCycleConfig(eta_max=0.01, t0=100)
        assert cosine_lr(100, 100, cfg) == 0.0

    def test_midpoint(self):
        cfg = CosineCycleConfig(eta_max=0.01, t0=100)
        assert cosine_lr(50, 100, cfg) == pytest.approx(0.005, rel=1e-12)

    def test_endpoints_exact_for_awkward_rates(self):
        # endpoint values must be bit-equal to the configured rates even
        # when eta_min + (eta_max - eta_min) would round differently
        cfg = CosineCycleConfig(eta_max=0.3, eta_min=0.1, t0=7)
        assert cosine_lr(0, 7, cfg) == 0.3
        assert cosine_lr(7, 7, cfg) == 0.1

    def test_monotone_within_cycle(self):
        cfg = CosineCycleConfig(eta_max=1.0, t0=64)
        values = [cosine_lr(t, 64, cfg) for t in range(65)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_midpoint_symmetry(self):
        cfg = CosineCycleConfig(eta_max=0.37, eta_min=0.002, t0=123)
        for t in range(124):
            total = cosine_lr(t, 123, cfg) + cosine_lr(123 - t, 123, cfg)
            assert total == pytest.approx(cfg.eta_max + cfg.eta_min, rel=1e-12)

    def test_zero_cycle_len_rejected(self):
        cfg = CosineCycleConfig(eta_max=0.01, t0=100)
        with pytest.raises(ValueError):
            cosine_lr(0, 0, cfg)

    def test_t_outside_cycle_rejected(self):
        cfg = CosineCycleConfig(eta_max=0.01, t0=100)
        with pytest.raises(ValueError):
            cosine_lr(101, 100, cfg)


class TestConfigValidation:
    def test_eta_ordering_enforced(self):
        with pytest.raises(ConfigError):
            CosineCycleConfig(eta_max=0.001, eta_min=0.01, t0=10)
        with pytest.raises(ConfigError):
            CosineCycleConfig(eta_max=0.01, eta_min=-0.1, t0=10)

    def test_t0_and_mult_enforced(self):
        with pytest.raises(ConfigError):
            CosineCycleConfig(eta_max=0.01, t0=0)
        with pytest.raises(ConfigError):
            CosineCycleConfig(eta_max=0.01, t0=10, mult=0)


class TestCycleLength:
    def test_first_cycle(self):
        cfg = CosineCycleConfig(eta_max=1, t0=100)
        assert lr_at(99, cfg) == cosine_lr(99, 100, cfg)
        assert lr_at(100, cfg) == 1

    def test_doubling(self):
        # cycle 2 spans [300, 700)
        cfg = CosineCycleConfig(eta_max=1, t0=100)
        assert lr_at(300, cfg) == 1
        assert lr_at(699, cfg) == cosine_lr(399, 400, cfg)
        assert lr_at(700, cfg) == 1

    def test_constant_cycles(self):
        cfg = CosineCycleConfig(eta_max=1, t0=3, mult=1)
        for k in range(3):
            assert lr_at(5 * 3 + k, cfg) == cosine_lr(k, 3, cfg)

    def test_end_of_cycle_closed_form(self):
        # cycle k under doubling ends at t0 * (2^(k+1) - 1): the rate
        # restarts there and the step before it is the cycle's last
        cfg = CosineCycleConfig(eta_max=1, t0=7, mult=2)
        for k in range(21):
            restart = 7 * (2 ** (k + 1) - 1)
            length = 7 * 2 ** k
            assert lr_at(restart, cfg) == cfg.eta_max
            assert lr_at(restart - 1, cfg) == cosine_lr(length - 1, length, cfg)


class TestLrAt:
    def test_origin(self):
        assert lr_at(0, CosineCycleConfig(eta_max=1, t0=100)) == 1

    def test_first_boundary(self):
        assert lr_at(100, CosineCycleConfig(eta_max=1, t0=100)) == 1

    def test_inside_third_cycle(self):
        cfg = CosineCycleConfig(eta_max=1, t0=100)
        assert lr_at(650, cfg) == cosine_lr(350, 400, cfg)

    def test_cursor_invariants_random_sweep(self):
        # mult=1 takes a closed-form path; both paths must place t exactly
        # where the cumulative-sum oracle does
        rng = np.random.default_rng(7)
        for _ in range(300):
            cfg = CosineCycleConfig(eta_max=1.0, t0=int(rng.integers(1, 50)),
                                    mult=int(rng.integers(1, 4)))
            t = int(rng.integers(0, 100_000))
            k, tw = oracle_locate(t, cfg)
            assert lr_at(t, cfg) == cosine_lr(tw, cfg.t0 * cfg.mult ** k, cfg)

    def test_restart_values(self):
        cfg = CosineCycleConfig(eta_max=0.01, t0=100)
        assert lr_at(0, cfg) == 0.01
        assert lr_at(300, cfg) == 0.01  # start of cycle 2

    def test_second_cycle_midpoint(self):
        # cycle 1 spans [100, 300), so its midpoint is t=200
        cfg = CosineCycleConfig(eta_max=0.01, t0=100)
        assert lr_at(200, cfg) == pytest.approx(0.005, rel=1e-12)

    def test_matches_locate_composition(self):
        rng = np.random.default_rng(11)
        cfg = CosineCycleConfig(eta_max=0.7, eta_min=0.01, t0=37, mult=2)
        for t in rng.integers(0, 10 ** 6, size=2000):
            k, tw = oracle_locate(int(t), cfg)
            composed = cosine_lr(tw, cfg.t0 * cfg.mult ** k, cfg)
            assert lr_at(int(t), cfg) == composed

    def test_negative_iteration_rejected(self):
        for mult in (1, 2):
            with pytest.raises(ValueError, match="t_global"):
                lr_at(-1, CosineCycleConfig(eta_max=0.01, t0=100, mult=mult))

    def test_random_sweep_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            eta_min = float(rng.uniform(0, 0.5))
            cfg = CosineCycleConfig(
                eta_max=eta_min + float(rng.uniform(1e-6, 1.0)),
                eta_min=eta_min, t0=int(rng.integers(1, 500)),
                mult=int(rng.integers(1, 4)))
            t = int(rng.integers(0, 50_000))
            assert lr_at(t, cfg) == pytest.approx(oracle_lr(t, cfg), rel=1e-12,
                                                  abs=1e-15)


class TestDumpSchedule:
    def test_period_two_restart(self):
        cfg = CosineCycleConfig(eta_max=1.0, t0=2, mult=1)
        rows = dump_schedule(cfg, 4)
        assert rows[0] == (0, 1.0)
        assert rows[1][1] == pytest.approx(0.5, rel=1e-12)
        assert rows[2] == (2, 1.0)
        assert rows[3][1] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("n_iters", [0, -3])
    def test_fewer_than_one_iteration_rejected(self, n_iters):
        with pytest.raises(ValueError, match=f"n_iters must be >= 1, got "
                           f"{n_iters}"):
            dump_schedule(CosineCycleConfig(eta_max=0.1, t0=10), n_iters)

    def test_first_element(self):
        cfg = CosineCycleConfig(eta_max=0.25, t0=9, mult=2)
        assert dump_schedule(cfg, 1)[0] == (0, 0.25)

    def test_restarts_match_cumulative_sums(self):
        cfg = CosineCycleConfig(eta_max=0.9, t0=40, mult=2)
        rows = dump_schedule(cfg, 40 * 7)  # covers three full cycles
        boundaries = [0, 40, 120]
        restarts = [t for t, lr in rows if lr == cfg.eta_max]
        assert restarts == boundaries

    def test_matches_lr_at_pointwise(self):
        cfg = CosineCycleConfig(eta_max=0.02, eta_min=0.001, t0=13, mult=3)
        rows = dump_schedule(cfg, 200)
        assert len(rows) == 200
        for t, lr in rows:
            assert lr == lr_at(t, cfg)


def test_csv_round_trip(tmp_path):
    cfg = CosineCycleConfig(eta_max=0.01, t0=5, mult=2)
    rows = dump_schedule(cfg, 17)
    write_schedule_csv(tmp_path / "schedule.csv", rows)
    lines = (tmp_path / "schedule.csv").read_text().strip().split("\n")
    assert lines[0] == "t,lr"
    parsed = [(int(a), float(b)) for a, b in
              (line.split(",") for line in lines[1:])]
    assert parsed == rows  # 17 significant digits survive the round trip


def test_csv_has_ten_significant_digits(tmp_path):
    cfg = CosineCycleConfig(eta_max=1 / 3, t0=7)
    write_schedule_csv(tmp_path / "schedule.csv", dump_schedule(cfg, 3))
    mantissa = (tmp_path / "schedule.csv").read_text().split("\n")[1].split(",")[1]
    digits = mantissa.split("e")[0].replace(".", "").lstrip("-0")
    assert len(digits) >= 10
