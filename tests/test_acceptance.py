"""Acceptance checks for the whole toolkit, one criterion per test.

Each test prints a single "criterion N: PASS/FAIL - detail" line (run with
pytest -s to see them alongside the verbose test names). Timed criteria
measure only their core loop, not fixture construction.
"""

import math
import time

import numpy as np

from conftest import max_grad_rel_error, quadratic_model, quadratic_problem
from lrbench.bench import (BenchConfig, confusion, load_bench_dataset,
                           run_conventional, run_optimized, speedup)
from lrbench.cli import run as cli_run
from lrbench.data import make_blobs
from lrbench.finder import RangeTestConfig, range_test, suggest_lr
from lrbench.groups import precompute_features, split_head
from lrbench.nn import (Conv2d, Dense, MaxPool2, Model, ReLU, build_mlp,
                        forward, train_step)
from lrbench.schedule import CosineCycleConfig, cosine_lr, dump_schedule, lr_at
from lrbench.train import TrainConfig


def check(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def closed_form_lr(t_global, cfg):
    """Independent oracle: walk cycle lengths, then apply the half-cosine."""
    t = t_global
    length = cfg.t0
    while t >= length:
        t -= length
        length *= cfg.mult
    return cfg.eta_min + 0.5 * (cfg.eta_max - cfg.eta_min) * (
        1.0 + math.cos(math.pi * t / length))


def test_criterion_1_schedule_exactness():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(10_000):
        t0 = int(rng.integers(100, 1000))
        mult = int(rng.integers(1, 4))
        eta_max = float(10.0 ** rng.uniform(-4, 0))
        eta_min = eta_max * float(rng.uniform(0.0, 0.9))
        t = int(rng.integers(0, 20_000))
        cases.append((t, CosineCycleConfig(eta_max=eta_max, eta_min=eta_min,
                                           t0=t0, mult=mult)))
    start = time.perf_counter()
    worst = 0.0
    for t, cfg in cases:
        want = closed_form_lr(t, cfg)
        got = lr_at(t, cfg)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start

    cfg = CosineCycleConfig(eta_max=0.01, eta_min=0.001, t0=100)
    endpoints_exact = (cosine_lr(0, 100, cfg) == 0.01
                       and cosine_lr(100, 100, cfg) == 0.001)
    mid = cosine_lr(50, 100, cfg)
    midpoint_ok = abs(mid - 0.0055) <= 1e-12 * 0.0055

    ok = worst <= 1e-12 and endpoints_exact and midpoint_ok and elapsed < 1.0
    check(1, ok, f"10^4 tuples worst rel err {worst:.2e}, endpoints exact, "
                 f"midpoint ok, {elapsed:.2f}s")


def test_criterion_2_clm_restart_boundaries():
    cfg = CosineCycleConfig(eta_max=0.01, t0=100, mult=2)
    start = time.perf_counter()
    boundaries = list(np.cumsum([100 * 2 ** k for k in range(4)]))
    rows = dump_schedule(cfg, 1501)
    elapsed = time.perf_counter() - start

    oracle_ok = boundaries == [100, 300, 700, 1500]
    at_max = [t for t, rate in rows if rate == cfg.eta_max]
    restarts_ok = at_max == [0, 100, 300, 700, 1500]
    ok = oracle_ok and restarts_ok and elapsed < 1.0
    check(2, ok, f"restarts at {at_max}, {elapsed:.2f}s")


def test_criterion_3_reference_speedup_arithmetic():
    # Recorded fine-tuning wall times (seconds) for five pretrained
    # backbones, kept as fixed test vectors with the speedup factors they
    # were reported with.
    table = {
        "resnet50": (34039, 11817, 2.88),
        "resnet101": (60639, 6673, 9.09),
        "resnet152": (91888, 9012, 10.20),
        "densenet161": (54628, 7195, 7.59),
    }
    failures = []
    for name, (conv, opt, factor) in table.items():
        got = speedup(conv, opt)
        if abs(got - factor) > 0.01:
            failures.append(f"{name}: {got:.4f} vs {factor}")
    # The recorded resnet34 factor (1.84) does not follow from its own
    # totals: 17757 / 9565 = 1.8565, which rounds to 1.86. The discrepancy
    # is pinned here so nobody "fixes" the arithmetic to hide it.
    resnet34 = speedup(17757, 9565)
    inconsistent = abs(resnet34 - 1.84) > 0.01 and round(resnet34, 2) == 1.86
    if not inconsistent:
        failures.append(f"resnet34 inconsistency vanished: {resnet34:.4f}")
    check(3, not failures,
          f"4 factors within 0.01; resnet34 recorded 1.84 vs computed "
          f"{resnet34:.4f} (documented mismatch); {failures or 'no failures'}")


def test_criterion_4_finder_matches_grid_decade():
    x, y = quadratic_problem()
    start = time.perf_counter()
    grid = np.logspace(-4, 0, 20)
    best_lr, best_loss = None, math.inf
    for rate in grid:
        model = quadratic_model(0)
        loss = math.inf
        for _ in range(30):
            loss = train_step(model, x, y, float(rate))
        if loss < best_loss:
            best_loss, best_lr = loss, float(rate)

    cfg = RangeTestConfig(lr_lo=1e-4, lr_hi=1.0, n_steps=30, smoothing_beta=0.9)
    model = quadratic_model(0)
    trace = range_test(model, (x, y), cfg, rng_seed=0, batch_size=2)
    suggestion = suggest_lr(trace)
    elapsed = time.perf_counter() - start

    grid_decade = math.floor(math.log10(best_lr))
    suggestion_decade = math.floor(math.log10(suggestion))
    ok = suggestion_decade == grid_decade and elapsed < 60.0
    check(4, ok, f"suggestion {suggestion:.4g} (decade {suggestion_decade}) vs "
                 f"grid best {best_lr:.4g} (decade {grid_decade}), {elapsed:.1f}s")


def random_gradient_case(i):
    """One of four architecture shapes, dimensions drawn per index; between
    them every layer type and both losses appear."""
    rng = np.random.default_rng(1000 + i)
    kind = i % 4
    if kind == 0:  # image in, two dense, softmax CE
        d1 = int(rng.integers(3, 7))
        k = int(rng.integers(2, 5))
        layers = [Dense(6, d1, dtype=np.float64, rng=rng), ReLU(),
                  Dense(d1, k, dtype=np.float64, rng=rng)]
        model = Model(layers)
        x = rng.standard_normal((4, 1, 2, 3))
        y = rng.integers(0, k, 4)
        wd = 0.0
    elif kind == 1:  # dense stack with weight decay
        d0, d1 = int(rng.integers(4, 8)), int(rng.integers(3, 6))
        layers = [Dense(d0, d1, bias=False, dtype=np.float64, rng=rng), ReLU(),
                  Dense(d1, 3, dtype=np.float64, rng=rng)]
        model = Model(layers)
        x = rng.standard_normal((3, d0))
        y = rng.integers(0, 3, 3)
        wd = float(rng.uniform(0.01, 0.3))
    elif kind == 2:  # conv, relu, pool, dense head
        ch = int(rng.integers(1, 3))
        out_ch = int(rng.integers(2, 4))
        layers = [Conv2d(ch, out_ch, 3, dtype=np.float64, rng=rng), ReLU(),
                  MaxPool2(), Dense(out_ch * 4, 3, dtype=np.float64, rng=rng)]
        model = Model(layers)
        x = rng.standard_normal((2, ch, 4, 4))
        y = rng.integers(0, 3, 2)
        wd = 0.0
    else:  # mean squared error regression
        d0, d1 = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        layers = [Dense(d0, 4, dtype=np.float64, rng=rng), ReLU(),
                  Dense(4, d1, dtype=np.float64, rng=rng)]
        model = Model(layers)
        x = rng.standard_normal((3, d0))
        y = rng.standard_normal((3, d1))
        wd = float(rng.uniform(0.0, 0.1))
    return model, x, y, wd


def test_criterion_5_gradient_checks():
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        model, x, y, wd = random_gradient_case(i)
        err = max_grad_rel_error(model, x, y, weight_decay=wd)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    check(5, ok, f"20 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_freeze_and_cache():
    ds = make_blobs(seed=0)
    model = build_mlp((3, 8, 8), 3, seed=0)
    initial, mid, _ = model.param_groups()
    frozen = initial + mid
    assert frozen == model.param_layers()[:-1]
    frozen_before = [p.copy() for layer in frozen for p in layer.params]

    body, head = split_head(model)
    features = precompute_features(body, ds.images)
    sched = CosineCycleConfig(eta_max=0.1, t0=50, mult=1)
    order = np.random.default_rng(0).permutation(len(features))
    batch = 16
    for step in range(200):
        lo = (step * batch) % len(features)
        idx = order[lo:lo + batch]
        train_step(head, features[idx], ds.labels[idx],
                   lr_at(step, sched), momentum=0.9)

    frozen_after = [p for layer in frozen for p in layer.params]
    frozen_ok = all(np.array_equal(a, b)
                    for a, b in zip(frozen_before, frozen_after))

    diffs = []
    for start in range(0, len(ds), 256):
        full, _ = forward(model, ds.images[start:start + 256])
        cached, _ = forward(head, features[start:start + 256])
        diffs.append(np.abs(full - cached).max())
    max_diff = float(max(diffs))
    ok = frozen_ok and max_diff < 1e-6
    check(6, ok, f"200 head steps: frozen params bit-identical={frozen_ok}, "
                 f"cache vs full-forward max abs diff {max_diff:.2e}")


def bench_fixture_config(seed):
    return BenchConfig(
        train=TrainConfig(max_epochs=30, seed=seed),
        finder=RangeTestConfig(lr_lo=1e-3, lr_hi=2.0, n_steps=40,
                               smoothing_beta=0.9),
        finder_batch=128,
        target_accuracy=0.99,
    )


def history_without_seconds(report):
    return [(r.epoch, r.phase, r.lr, r.train_loss, r.valid_loss, r.valid_acc)
            for r in report.history]


def fastest_of_repeats(cfg, data, repeats=3):
    """Warm up each pipeline once, then run them in alternation ``repeats``
    times, so host slowdowns hit both alike. Every run does the same seeded
    work, so the fastest total is the least disturbed measurement. Returns
    the fastest (conventional, optimized) reports and whether each
    pipeline's histories were identical across repeats."""
    pipelines = (run_conventional, run_optimized)
    for pipeline in pipelines:
        pipeline(cfg, data)
    runs = [[], []]
    for _ in range(repeats):
        for pipeline, reports in zip(pipelines, runs):
            reports.append(pipeline(cfg, data))
    same = all(history_without_seconds(r) == history_without_seconds(reports[0])
               for reports in runs for r in reports)
    conv, opt = (min(reports, key=lambda r: r.total_seconds)
                 for reports in runs)
    return conv, opt, same


def test_criterion_7_pipeline_beats_baseline():
    start = time.perf_counter()
    failures = []
    details = []
    for seed in (0, 1, 2):
        cfg = bench_fixture_config(seed)
        conv, opt, same = fastest_of_repeats(cfg, load_bench_dataset(cfg))
        conv_acc = conv.phases[-1].final_valid_acc
        opt_acc = opt.phases[-1].final_valid_acc
        details.append(f"seed {seed}: {speedup(conv, opt):.2f}x "
                       f"acc {opt_acc:.3f}/{conv_acc:.3f}")
        if not same:
            failures.append(f"seed {seed}: repeated runs gave different histories")
        if not opt.reached:
            failures.append(f"seed {seed}: target not reached")
        if opt.total_seconds > conv.total_seconds:
            failures.append(f"seed {seed}: optimized slower "
                            f"({opt.total_seconds:.2f}s vs {conv.total_seconds:.2f}s)")
        if opt_acc < conv_acc - 0.01:
            failures.append(f"seed {seed}: accuracy gap "
                            f"{opt_acc:.3f} vs {conv_acc:.3f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"too slow: {elapsed:.0f}s")
    check(7, not failures, f"{'; '.join(details)}; {elapsed:.0f}s total"
          + (f"; failures: {failures}" if failures else ""))


BENCH_CONFIG_TEXT = """\
max_epochs = 30
finder_lo = 0.001
finder_hi = 2.0
finder_steps = 40
finder_beta = 0.9
finder_batch = 128
target_accuracy = 0.99
"""


def drop_seconds(csv_path):
    lines = csv_path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_criterion_8_benchmark_determinism(tmp_path):
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(BENCH_CONFIG_TEXT)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_run(["benchmark", "--config", str(cfg_path), "--seed", "0",
                        "--out", str(out)])
        assert code == 0
        outs.append(out)

    mismatched = []
    for prefix in ("conventional_", "optimized_"):
        a = drop_seconds(outs[0] / f"{prefix}history.csv")
        b = drop_seconds(outs[1] / f"{prefix}history.csv")
        if a != b:
            mismatched.append(f"{prefix}history.csv")
        conf_a = (outs[0] / f"{prefix}confusion.csv").read_text()
        conf_b = (outs[1] / f"{prefix}confusion.csv").read_text()
        if conf_a != conf_b:
            mismatched.append(f"{prefix}confusion.csv")
    check(8, not mismatched,
          f"two runs, histories identical minus seconds"
          + (f"; mismatches: {mismatched}" if mismatched else ""))


def test_criterion_9_confusion_properties():
    rng = np.random.default_rng(99)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(10, 51))
        k = int(rng.integers(2, 7))
        labels = rng.integers(0, k, n)
        preds = rng.integers(0, k, n)
        conf = confusion(preds, labels, k)

        brute = np.zeros((k, k), dtype=np.int64)
        for true_id, pred_id in zip(labels, preds):
            brute[true_id, pred_id] += 1
        if not np.array_equal(conf, brute):
            failures += 1
            continue
        if not np.array_equal(conf.sum(axis=1), np.bincount(labels, minlength=k)):
            failures += 1
            continue
        acc = np.trace(conf) / conf.sum()
        if abs(acc - float((labels == preds).mean())) > 1e-12:
            failures += 1
    check(9, failures == 0,
          f"1000 random prediction vectors, {failures} recount failures")
