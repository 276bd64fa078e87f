"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import cifar_gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import check_report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from lrbench.bench import (BenchConfig, load_bench_dataset,  # noqa: E402
                           run_conventional, run_optimized)
from lrbench.data import load_cifar10  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generator_round_trips_through_load_cifar10(tmp_path):
    path = cifar_gen.write_records(tmp_path / "batch.bin", 3, seed=7)
    records = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(
        -1, cifar_gen.RECORD_BYTES)
    assert len(records) == 30
    ds = load_cifar10(path, 3)
    np.testing.assert_array_equal(ds.labels, records[:, 0])
    np.testing.assert_array_equal(
        ds.images,
        records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32)
        / np.float32(255))

    train, valid = load_bench_dataset(
        BenchConfig(dataset=f"cifar10:{path}", n_per_class=3,
                    split_num=2, split_den=1))
    assert (len(train), len(valid)) == (20, 10)


def test_generator_is_seeded():
    a = cifar_gen.make_records(2, seed=1)
    assert np.array_equal(a, cifar_gen.make_records(2, seed=1))
    assert not np.array_equal(a, cifar_gen.make_records(2, seed=2))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert per_layer == run.per_layer_units()
    names = [*e2e, *per_layer, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    # blobs-mlp stays runnable by name but is left out (see workloads.py)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        set(WORKLOADS) - {"blobs-mlp"})


def blobs_config():
    return WORKLOADS["blobs-mlp"].config(0, Path("unused"))


def test_output_checks_pass_real_reports_and_reject_tampered_ones():
    cfg = blobs_config()
    data = load_bench_dataset(cfg)
    valid_size = len(data[1])
    report = run_optimized(cfg, data)
    assert check_report(report, cfg, valid_size) == []

    report.confusion[0, 0] += 1
    assert any("sums to" in p for p in check_report(report, cfg, valid_size))
    report.confusion[0, 0] -= 2
    report.confusion[0, 1] += 1
    assert any("final history valid_acc" in p
               for p in check_report(report, cfg, valid_size))
    report.confusion[0, 0] += 1
    report.confusion[0, 1] -= 1

    report.eta_max = cfg.finder.lr_hi
    assert any("outside the ramp" in p
               for p in check_report(report, cfg, valid_size))

    conv = run_conventional(cfg, data)
    conv.reached = True
    conv.confusion[:] = 0
    conv.confusion[0, 1] = valid_size
    problems = check_report(conv, cfg, valid_size)
    assert any("reached is set" in p for p in problems)


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda x: x)
    mid = tracer.wrap("mid", lambda x: leaf(x))

    def outer_body(x):
        mid(x)
        return leaf(x)

    outer = tracer.wrap("outer", outer_body)
    outer(np.zeros((4, 2)))
    # outer 0..10, mid 1..5 holding leaf 2..3, then leaf 6..9
    assert tracer.self_times() == [3.0, 3.0, 1.0, 3.0]
    summary = tracer.summary()
    assert summary["outer"] == {"s": 3.0, "calls": 1, "rows": 4}
    assert summary["leaf"] == {"s": 4.0, "calls": 2, "rows": 8}


def test_installed_wraps_every_bound_name_and_restores():
    import lrbench.finder
    import lrbench.nn
    import lrbench.train
    original = lrbench.nn.train_step
    tracer = tracing.Tracer()
    with tracing.installed(tracer.wrap):
        assert lrbench.finder.train_step is lrbench.nn.train_step
        assert lrbench.train.train_step is lrbench.nn.train_step
        assert lrbench.nn.train_step is not original
        run_optimized(blobs_config())
    assert lrbench.nn.train_step is original
    assert lrbench.finder.train_step is original
    summary = tracer.summary()
    for name in ("finder.range_test", "nn.train_step", "nn.Dense.backward",
                 "train.train_phase.head_sgdr", "groups.precompute_features"):
        assert summary[name]["calls"] > 0, name
    assert run.span_counters(tracer, [])["finder.steps"] > 0


@pytest.mark.parametrize("lowest_returns, wasted", [
    (np.zeros((6, 3)), 6), (None, 0)])
def test_wasted_input_grad_rows_counts_the_lowest_layers_result(
        lowest_returns, wasted):
    tracer = tracing.Tracer()
    upper = tracer.wrap("nn.Dense.backward", lambda grad: grad)
    lowest = tracer.wrap("nn.Conv2d.backward", lambda grad: lowest_returns)

    def backward(grad):
        lowest(upper(grad))

    tracer.wrap("nn.backward", backward)(np.zeros((6, 2)))
    counters = run.span_counters(tracer, [])
    assert counters["nn.wasted_input_grad_rows"] == wasted


@pytest.mark.parametrize("n, expected", [
    (20, None), (21, (100.0 * 11 / 21, 11)), (100, (90.0, 90)),
    (200, (95.0, 190))])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(list(range(1, n + 1))) == expected


def test_host_factors_scale_each_seed_by_the_references_around_it():
    n = reference.NOMINAL_S
    assert reference.host_factors([n, n, 2 * n, 2 * n]) == pytest.approx(
        [1.0, 2 / 3, 0.5])
