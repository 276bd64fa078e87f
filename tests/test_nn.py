import math

import numpy as np
import pytest

from conftest import max_grad_rel_error
from lrbench.groups import LayerGroupRates
from lrbench.nn import (Conv2d, Dense, Flatten, MaxPool2, Model,
                        NonFiniteLossError, ReLU, ShapeError, backward,
                        build_cnn, build_mlp, forward, sgd_step,
                        softmax_cross_entropy, train_step)


def f64_rng(seed=0):
    return np.random.default_rng(seed)


def conv_naive(x, W, b):
    n, c, h, w = x.shape
    o, _, k, _ = W.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros((n, o, h, w))
    for ni in range(n):
        for oi in range(o):
            for i in range(h):
                for j in range(w):
                    acc = b[oi]
                    for ci in range(c):
                        for di in range(k):
                            for dj in range(k):
                                acc += xp[ni, ci, i + di, j + dj] * W[oi, ci, di, dj]
                    y[ni, oi, i, j] = acc
    return y


def pool_naive(x):
    n, c, h, w = x.shape
    y = np.zeros((n, c, h // 2, w // 2))
    for ni in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    y[ni, ci, i, j] = x[ni, ci, 2 * i:2 * i + 2,
                                        2 * j:2 * j + 2].max()
    return y


class TestForward:
    def test_zero_weight_model_gives_zero_logits(self):
        layer = Dense(4, 3, dtype=np.float64)
        layer.W[...] = 0.0
        model = Model([layer], dtype=np.float64)
        logits, _ = forward(model, np.ones((5, 4)))
        assert np.all(logits == 0.0)

    def test_identity_dense_passes_input_through(self):
        layer = Dense(3, 3, dtype=np.float64)
        layer.W[...] = np.eye(3)
        layer.b[...] = 0.0
        model = Model([layer], dtype=np.float64)
        x = f64_rng().random((4, 3))
        logits, _ = forward(model, x)
        assert np.allclose(logits, x)

    def test_two_layer_net_matches_scalar_arithmetic(self):
        rng = f64_rng(3)
        l1 = Dense(4, 5, dtype=np.float64, rng=rng)
        l2 = Dense(5, 2, dtype=np.float64, rng=rng)
        model = Model([l1, ReLU(), l2], dtype=np.float64)
        x = rng.random((3, 4))
        logits, _ = forward(model, x)
        for n in range(3):
            hidden = []
            for j in range(5):
                acc = l1.b[j]
                for i in range(4):
                    acc += x[n, i] * l1.W[i, j]
                hidden.append(max(acc, 0.0))
            for k in range(2):
                acc = l2.b[k]
                for j in range(5):
                    acc += hidden[j] * l2.W[j, k]
                assert logits[n, k] == pytest.approx(acc, rel=1e-12)

    def test_shape_mismatch_is_descriptive(self):
        model = Model([Dense(4, 3)], dtype=np.float32)
        with pytest.raises(ShapeError, match="width"):
            forward(model, np.ones((2, 7)))

    def test_conv_matches_naive_loops(self):
        rng = f64_rng(5)
        conv = Conv2d(2, 3, 3, dtype=np.float64, rng=rng)
        conv.b[...] = rng.random(3)
        x = rng.random((2, 2, 4, 4))
        model = Model([conv], dtype=np.float64)
        y, _ = forward(model, x)
        assert np.allclose(y, conv_naive(x, conv.W, conv.b), atol=1e-12)

    def test_pool_matches_naive_loops(self):
        rng = f64_rng(6)
        x = rng.random((2, 3, 6, 4))
        model = Model([MaxPool2()], dtype=np.float64)
        y, _ = forward(model, x)
        assert np.array_equal(y, pool_naive(x))

    def test_pool_rejects_odd_dims(self):
        model = Model([MaxPool2()], dtype=np.float32)
        with pytest.raises(ShapeError):
            forward(model, np.ones((1, 1, 5, 4)))

    def test_conv_rejects_wrong_channel_count(self):
        model = Model([Conv2d(3, 4)], dtype=np.float32)
        with pytest.raises(ShapeError):
            forward(model, np.ones((1, 2, 4, 4)))

    def test_flatten_round_trip(self):
        model = Model([Flatten()], dtype=np.float64)
        x = f64_rng().random((3, 2, 5))
        y, caches = forward(model, x)
        assert y.shape == (3, 10)
        back = model.layers[0].backward(y, caches[0])
        assert np.array_equal(back, x)


class TestLoss:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 3, 10):
            logits = np.zeros((7, k))
            labels = np.arange(7) % k
            assert softmax_cross_entropy(logits, labels) == pytest.approx(
                math.log(k), rel=1e-12)

    def test_initial_loss_near_log_n_classes(self):
        model = build_mlp((3, 8, 8), 3, dtype=np.float64, seed=0)
        rng = f64_rng(1)
        x = rng.random((256, 3, 8, 8))
        y = rng.integers(0, 3, size=256)
        logits, _ = forward(model, x)
        loss = softmax_cross_entropy(logits, y)
        assert abs(loss - math.log(3)) / math.log(3) < 0.05

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_non_finite_loss_raises_with_value(self):
        layer = Dense(2, 2, dtype=np.float64)
        layer.W[...] = np.inf
        model = Model([layer], dtype=np.float64)
        logits, caches = forward(model, np.ones((1, 2)))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError) as err:
                backward(model, logits, np.array([0]), caches)
        assert not math.isfinite(err.value.value)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = f64_rng(0)
        x = rng.random((4, 3, 8, 8))
        y = rng.integers(0, 3, size=4)
        mlp = Model([Flatten(), Dense(192, 8, dtype=np.float64, rng=rng),
                     ReLU(), Dense(8, 3, dtype=np.float64, rng=rng)],
                    dtype=np.float64)
        assert max_grad_rel_error(mlp, x, y) < 1e-4

    def test_gradients_with_weight_decay(self):
        rng = f64_rng(2)
        x = rng.random((3, 6))
        y = rng.integers(0, 2, size=3)
        model = Model([Dense(6, 4, dtype=np.float64, rng=rng), ReLU(),
                       Dense(4, 2, dtype=np.float64, rng=rng)],
                      dtype=np.float64)
        assert max_grad_rel_error(model, x, y, weight_decay=0.1) < 1e-4

    def test_conv_pool_gradients(self):
        rng = f64_rng(4)
        x = rng.random((2, 2, 4, 4))
        y = rng.integers(0, 2, size=2)
        model = Model([Conv2d(2, 3, 3, dtype=np.float64, rng=rng), ReLU(),
                       MaxPool2(), Flatten(),
                       Dense(12, 2, dtype=np.float64, rng=rng)],
                      dtype=np.float64)
        assert max_grad_rel_error(model, x, y) < 1e-4

    def test_frozen_layers_get_zero_grads(self):
        rng = f64_rng(1)
        l1 = Dense(4, 4, dtype=np.float64, rng=rng)
        l2 = Dense(4, 2, dtype=np.float64, rng=rng)
        l1.frozen = True
        model = Model([l1, ReLU(), l2], dtype=np.float64)
        x = rng.random((3, 4))
        logits, caches = forward(model, x)
        backward(model, logits, np.array([0, 1, 0]), caches)
        assert all(np.all(g == 0.0) for g in l1.grads)
        assert any(np.any(g != 0.0) for g in l2.grads)

    def test_all_frozen_means_all_zero_grads(self):
        rng = f64_rng(1)
        layers = [Dense(4, 4, dtype=np.float64, rng=rng),
                  Dense(4, 2, dtype=np.float64, rng=rng)]
        for l in layers:
            l.frozen = True
        model = Model(layers, dtype=np.float64)
        x = rng.random((3, 4))
        logits, caches = forward(model, x)
        loss = backward(model, logits, np.array([0, 1, 1]), caches)
        assert math.isfinite(loss)
        for l in layers:
            assert all(np.all(g == 0.0) for g in l.grads)

    def test_grads_shape_congruent_with_params(self):
        model = build_cnn((3, 8, 8), 4, dtype=np.float64, seed=0)
        x = f64_rng().random((2, 3, 8, 8))
        logits, caches = forward(model, x)
        backward(model, logits, np.array([0, 1]), caches)
        for layer in model.param_layers():
            for p, g, v in zip(layer.params, layer.grads, layer.vel):
                assert p.shape == g.shape == v.shape


class TestSgdStep:
    def test_plain_step_subtracts_gradient(self):
        layer = Dense(2, 2, dtype=np.float64)
        model = Model([layer], dtype=np.float64)
        before = layer.W.copy()
        g = np.full_like(layer.W, 0.25)
        layer.grads[0][...] = g
        sgd_step(model, lr=1.0)
        assert np.array_equal(layer.W, before - g)

    def test_frozen_layer_untouched(self):
        layer = Dense(2, 2, dtype=np.float64)
        layer.frozen = True
        model = Model([layer], dtype=np.float64)
        before = layer.W.copy()
        layer.grads[0][...] = 1.0
        sgd_step(model, lr=1.0, momentum=0.9)
        assert np.array_equal(layer.W, before)

    def test_two_momentum_steps_hand_unrolled(self):
        layer = Dense(3, 2, dtype=np.float64)
        model = Model([layer], dtype=np.float64)
        before = layer.W.copy()
        g = np.full_like(layer.W, 0.5)
        lr = 0.1
        for _ in range(2):
            layer.grads[0][...] = g
            layer.grads[1][...] = 0.0
            sgd_step(model, lr=lr, momentum=0.9)
        # v1 = g, v2 = 0.9 g + g, total displacement lr * (g + 1.9 g)
        assert np.allclose(layer.W, before - lr * (g + 1.9 * g), rtol=1e-12)

    def test_l2_coupling_scales_params(self):
        # powers of two so the scaling is bit-exact
        layer = Dense(3, 3, bias=False, dtype=np.float64)
        model = Model([layer], dtype=np.float64)
        before = layer.W.copy()
        layer.grads[0][...] = 0.0
        sgd_step(model, lr=0.5, weight_decay=0.25)
        assert np.array_equal(layer.W, before * (1.0 - 0.5 * 0.25))

    def test_l2_coupling_generic_values(self):
        layer = Dense(4, 2, bias=False, dtype=np.float64,
                      rng=f64_rng(8))
        model = Model([layer], dtype=np.float64)
        before = layer.W.copy()
        layer.grads[0][...] = 0.0
        sgd_step(model, lr=0.013, weight_decay=0.37)
        assert np.allclose(layer.W, before * (1 - 0.013 * 0.37), rtol=1e-12)

    def test_per_group_rates_applied_per_layer(self):
        rng = f64_rng(0)
        layers = [Dense(2, 2, bias=False, dtype=np.float64, rng=rng)
                  for _ in range(3)]
        for layer, tag in zip(layers, ("initial", "mid", "final")):
            layer.group = tag
        model = Model(layers, dtype=np.float64)
        before = [l.W.copy() for l in layers]
        for l in layers:
            l.grads[0][...] = 1.0
        rates = (1e-4, 1e-3, 1e-2)
        sgd_step(model, rates)
        for l, b, r in zip(layers, before, rates):
            assert np.allclose(l.W, b - r, rtol=1e-12)
        # a scalar or a triple only: dict and attribute-style rates are refused
        moved = [l.W.copy() for l in layers]
        for other in ({"initial": 0.1, "mid": 0.1, "final": 0.1},
                      LayerGroupRates(0.1, 0.1, 0.1)):
            with pytest.raises(ValueError, match="scalar or an"):
                sgd_step(model, other)
        for l, m in zip(layers, moved):
            assert np.array_equal(l.W, m)

    def test_group_rates_without_partition_rejected(self):
        model = Model([Dense(2, 2, dtype=np.float64)], dtype=np.float64)
        model.layers[0].grads[0][...] = 1.0
        with pytest.raises(ValueError, match="group"):
            sgd_step(model, (1e-4, 1e-3, 1e-2))


class TestDeterminismAndState:
    def test_fixed_seed_training_is_bit_exact(self):
        def run():
            model = build_mlp((2, 4, 4), 3, dtype=np.float64, seed=7)
            rng = np.random.default_rng(42)
            x = rng.random((64, 2, 4, 4))
            y = rng.integers(0, 3, size=64)
            losses = []
            for i in range(20):
                idx = np.random.default_rng(i).permutation(64)[:16]
                losses.append(train_step(model, x[idx], y[idx], 0.05,
                                         momentum=0.9))
            return losses

        assert run() == run()

    def test_clone_and_load_state_round_trip(self):
        model = build_mlp((2, 4, 4), 3, dtype=np.float64, seed=0)
        rng = np.random.default_rng(0)
        x = rng.random((8, 2, 4, 4))
        y = rng.integers(0, 3, size=8)
        train_step(model, x, y, 0.1, momentum=0.9)
        snap = model.clone_state()
        loss_ref = train_step(model, x, y, 0.1, momentum=0.9)
        model.load_state(snap)
        assert train_step(model, x, y, 0.1, momentum=0.9) == loss_ref

    def test_load_state_shape_mismatch(self):
        a = build_mlp((2, 4, 4), 3, seed=0)
        b = Model([Dense(4, 2)], dtype=np.float32)
        with pytest.raises(ShapeError):
            b.load_state(a.clone_state())

    def test_frozen_params_survive_long_training(self):
        model = build_mlp((2, 4, 4), 3, dtype=np.float32, seed=1)
        frozen_layer = model.param_layers()[0]
        frozen_layer.frozen = True
        before = [p.copy() for p in frozen_layer.params]
        rng = np.random.default_rng(5)
        x = rng.random((32, 2, 4, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=32)
        for _ in range(100):
            train_step(model, x, y, 0.05, momentum=0.9, weight_decay=1e-4)
        for p, b in zip(frozen_layer.params, before):
            assert np.array_equal(p, b)


class TestBuilders:
    def test_mlp_structure(self):
        model = build_mlp((3, 8, 8), 10, seed=0)
        assert len(model.param_layers()) == 3
        logits, _ = forward(model, np.zeros((2, 3, 8, 8), dtype=np.float32))
        assert logits.shape == (2, 10)

    def test_cnn_structure(self):
        model = build_cnn((3, 8, 8), 5, seed=0)
        assert len(model.param_layers()) == 4
        logits, _ = forward(model, np.zeros((2, 3, 8, 8), dtype=np.float32))
        assert logits.shape == (2, 5)

    def test_cnn_rejects_indivisible_dims(self):
        with pytest.raises(ShapeError):
            build_cnn((3, 10, 10), 5)

    def test_f32_mode_keeps_f32_params(self):
        model = build_mlp((3, 8, 8), 3, dtype=np.float32, seed=0)
        for layer in model.param_layers():
            for p in layer.params:
                assert p.dtype == np.float32
