import math

import numpy as np
import pytest

from conftest import max_grad_rel_error
from lrbench.groups import LayerGroupRates
import lrbench.nn
from lrbench.nn import (_BLOCK_ROWS, Conv2d, Dense, Flatten, MaxPool2,
                        Model, NonFiniteLossError, ReLU, ShapeError, backward,
                        build_cnn, build_mlp, forward, predict, sgd_step,
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
        # more rows than one GEMM block, and a short last block
        rows = 19
        assert rows > _BLOCK_ROWS and rows % _BLOCK_ROWS
        # non-square images with kernel sizes 1, 3 and 5: swapping h and w,
        # or a grid row of the wrong width, shows here
        for (h, w), k in [((4, 4), 3), ((6, 4), 1), ((6, 4), 3), ((6, 4), 5),
                          ((4, 6), 1), ((4, 6), 3), ((4, 6), 5)]:
            conv = Conv2d(2, 3, k, dtype=np.float64, rng=rng)
            conv.b[...] = rng.random(3)
            x = rng.random((rows, 2, h, w))
            model = Model([conv], dtype=np.float64)
            y, _ = forward(model, x)
            assert y.shape == (rows, 3, h, w)
            assert np.allclose(y, conv_naive(x, conv.W, conv.b), atol=1e-12)

    def test_pool_matches_naive_loops(self):
        rng = f64_rng(6)
        x = rng.random((2, 3, 6, 4))
        model = Model([MaxPool2()], dtype=np.float64)
        y, _ = forward(model, x)
        assert np.array_equal(y, pool_naive(x))

    def test_pool_ties_go_to_the_first_element_in_row_major_order(self):
        # four 2x2 windows side by side; the first maximum of each, in
        # row-major window order, is marked
        x = np.array([[[[0.0, 0.0, 1.0, 3.0, 2.0, 1.0, -1.0, -2.0],
                        [0.0, -0.0, 3.0, 3.0, 2.0, 2.0, 5.0, 5.0]]]])
        first = np.array([[[[1, 0, 0, 1, 1, 0, 0, 0],
                            [0, 0, 0, 0, 0, 0, 1, 0]]]], dtype=bool)
        pool = MaxPool2()
        y, cache = pool.forward(x)
        assert np.array_equal(y, [[[[0.0, 3.0, 2.0, 5.0]]]])
        g = np.array([[[[0.5, -2.0, 3.0, 7.0]]]])
        back = pool.backward(g, cache)
        expected = np.zeros_like(x)
        expected[first] = g.ravel()
        assert np.array_equal(back, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("windows", ["random", "tied", "negative"])
    def test_pool_then_relu_equals_relu_then_pool(self, dtype, windows):
        # build_cnn pools before its ReLUs: outputs and input gradients
        # must equal those of the ReLU-first order exactly
        rng = f64_rng(7)
        x = rng.standard_normal((3, 4, 6, 8))
        if windows == "tied":
            x = np.round(x * 2) / 2  # quantised: ties, zeros among them
        elif windows == "negative":
            x = -np.abs(x) - 0.1
        x = x.astype(dtype)
        g = rng.standard_normal((3, 4, 3, 4)).astype(dtype)
        outs, grads = [], []
        for layers in ([MaxPool2(), ReLU()], [ReLU(), MaxPool2()]):
            y, caches = forward(Model(layers, dtype=dtype), x)
            back = g
            for layer, cache in zip(reversed(layers), reversed(caches)):
                back = layer.backward(back, cache)
            outs.append(y)
            grads.append(back)
        assert outs[0].dtype == grads[0].dtype == dtype
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(grads[0], grads[1])
        if windows == "negative":
            assert not outs[0].any() and not grads[0].any()
        else:
            assert np.count_nonzero(grads[0]) == np.count_nonzero(outs[0])

    def test_pool_rejects_odd_dims(self):
        model = Model([MaxPool2()], dtype=np.float32)
        with pytest.raises(ShapeError):
            forward(model, np.ones((1, 1, 5, 4)))

    def test_conv_rejects_wrong_channel_count(self):
        model = Model([Conv2d(3, 4)], dtype=np.float32)
        with pytest.raises(ShapeError):
            forward(model, np.ones((1, 2, 4, 4)))

    @pytest.mark.parametrize("ksize", [0, -1, 2, 4])
    def test_conv_rejects_a_kernel_without_a_centre(self, ksize):
        # same padding needs an odd kernel of at least 1
        with pytest.raises(ValueError, match="ksize"):
            Conv2d(2, 3, ksize)

    def test_flatten_round_trip(self):
        model = Model([Flatten()], dtype=np.float64)
        x = f64_rng().random((3, 2, 5))
        y, caches = forward(model, x)
        assert y.shape == (3, 10)
        back = model.layers[0].backward(y, caches[0])
        assert np.array_equal(back, x)


class TestPredict:
    def slice_rows(self, monkeypatch):
        """Record the rows of every forward call predict makes."""
        rows = []

        def spy(model, batch):
            rows.append(len(batch))
            return forward(model, batch)

        monkeypatch.setattr(lrbench.nn, "forward", spy)
        return rows

    def test_more_than_256_rows(self, monkeypatch):
        model = build_cnn((3, 8, 8), 3, seed=0)
        x = f64_rng(3).random((300, 3, 8, 8)).astype(np.float32)
        expected = np.concatenate([forward(model, x[start:start + 16])[0]
                                   for start in range(0, 300, 16)])
        rows = self.slice_rows(monkeypatch)
        out = predict(model, x)
        assert rows == [16] * 18 + [12]
        assert out.shape == (300, 3) and out.dtype == np.float32
        np.testing.assert_array_equal(out, expected)

    def test_forty_rows_go_in_blocks_of_16(self, monkeypatch):
        # a validation pass of the cifar workloads: two full blocks and a
        # short one, each forwarded on its own
        model = build_cnn((3, 8, 8), 3, seed=1)
        x = f64_rng(4).random((40, 3, 8, 8)).astype(np.float32)
        expected = np.concatenate([forward(model, x[:16])[0],
                                   forward(model, x[16:32])[0],
                                   forward(model, x[32:])[0]])
        rows = self.slice_rows(monkeypatch)
        out = predict(model, x)
        assert rows == [16, 16, 8] and _BLOCK_ROWS == 16
        np.testing.assert_array_equal(out, expected)


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

    def test_conv_pool_relu_gradients(self):
        # build_cnn's block order: the pool's winners among raw conv outputs
        rng = f64_rng(12)
        x = rng.random((3, 2, 4, 6))
        y = rng.integers(0, 2, size=3)
        model = Model([Conv2d(2, 3, 3, dtype=np.float64, rng=rng), MaxPool2(),
                       ReLU(), Flatten(),
                       Dense(18, 2, dtype=np.float64, rng=rng)],
                      dtype=np.float64)
        assert max_grad_rel_error(model, x, y) < 1e-4

    def test_conv_input_gradient_through_a_second_conv(self):
        # the second conv's input gradient reaches the first conv's weights
        rng = f64_rng(9)
        x = rng.random((3, 2, 4, 4))
        y = rng.integers(0, 2, size=3)
        model = Model([Conv2d(2, 3, 3, dtype=np.float64, rng=rng), ReLU(),
                       MaxPool2(), Conv2d(3, 4, 3, dtype=np.float64, rng=rng),
                       ReLU(), Flatten(),
                       Dense(16, 2, dtype=np.float64, rng=rng)],
                      dtype=np.float64)
        assert max_grad_rel_error(model, x, y) < 1e-4

    @pytest.mark.parametrize("h,w", [(6, 4), (4, 6)])
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_conv_gradients_on_non_square_grids(self, h, w, ksize):
        # 19 rows: more than one forward block and a short last one; the
        # second conv's input gradient reaches the first conv's weights
        rng = f64_rng(13)
        rows = 19
        assert rows > _BLOCK_ROWS and rows % _BLOCK_ROWS
        x = rng.random((rows, 2, h, w))
        y = rng.integers(0, 2, size=rows)
        model = Model([Conv2d(2, 3, ksize, dtype=np.float64, rng=rng), ReLU(),
                       Conv2d(3, 2, ksize, dtype=np.float64, rng=rng),
                       Flatten(), Dense(2 * h * w, 2, dtype=np.float64,
                                        rng=rng)],
                      dtype=np.float64)
        assert max_grad_rel_error(model, x, y) < 1e-4

    def test_lowest_trainable_layer_skips_its_input_gradient(self):
        # every parameterized layer trains, so the lowest trainable layer is
        # the lowest parameterized one, here above a Flatten
        rng = f64_rng(10)
        lowest = Dense(4, 3, dtype=np.float64, rng=rng)
        model = Model([Flatten(), lowest, ReLU(),
                       Dense(3, 2, dtype=np.float64, rng=rng)],
                      dtype=np.float64)
        flags = []
        original = lowest.backward

        def backward_spy(grad_out, cache, **kwargs):
            flags.append(kwargs)
            return original(grad_out, cache, **kwargs)
        lowest.backward = backward_spy
        logits, caches = forward(model, rng.random((5, 2, 2)))
        backward(model, logits, np.array([0, 1, 1, 0, 1]), caches)
        assert flags == [{"need_input_grad": False}]

        cases = [(Dense(6, 4, dtype=np.float64, rng=rng), rng.random((5, 6)),
                  (5, 4)),
                 (Conv2d(2, 3, 3, dtype=np.float64, rng=rng),
                  rng.random((5, 2, 4, 4)), (5, 3, 4, 4)),
                 # non-square grids over more than one forward block
                 (Conv2d(2, 3, 5, dtype=np.float64, rng=rng),
                  rng.random((19, 2, 6, 4)), (19, 3, 6, 4)),
                 (Conv2d(2, 3, 1, dtype=np.float64, rng=rng),
                  rng.random((19, 2, 4, 6)), (19, 3, 4, 6))]
        for layer, x, out_shape in cases:
            _, cache = layer.forward(x)
            g = rng.standard_normal(out_shape)
            assert layer.backward(g, cache).shape == x.shape
            full = [grad.copy() for grad in layer.grads]
            for grad in layer.grads:
                grad.fill(np.nan)
            assert layer.backward(g, cache, need_input_grad=False) is None
            for a, b in zip(layer.grads, full):
                assert np.array_equal(a, b)

    def test_backprop_stops_at_the_lowest_trainable_layer(self):
        rng = f64_rng(11)
        x = rng.random((4, 5, 1))
        labels = np.array([0, 1, 1, 0])

        def build():
            r = f64_rng(12)
            return Model([Flatten(), Dense(5, 6, dtype=np.float64, rng=r),
                          ReLU(), Dense(6, 2, dtype=np.float64, rng=r)],
                         dtype=np.float64)

        model = build()
        calls = []

        def spy(index):
            layer = model.layers[index]
            original = layer.backward

            def backward_spy(grad_out, cache, **kwargs):
                calls.append(index)
                result = original(grad_out, cache, **kwargs)
                # whatever the lowest parameterized layer returns goes unused
                return None if index == 1 else result
            layer.backward = backward_spy

        for index in range(len(model.layers)):
            spy(index)
        for layer in model.param_layers():
            for g in layer.grads:
                g.fill(np.nan)
        logits, caches = forward(model, x)
        loss = backward(model, logits, labels, caches)
        # the Flatten below the first Dense is never called, and every
        # gradient is written
        assert calls == [3, 2, 1]
        assert all(np.isfinite(g).all() for layer in model.param_layers()
                   for g in layer.grads)

        plain = build()
        logits, caches = forward(plain, x)
        assert backward(plain, logits, labels, caches) == loss
        for i in (1, 3):
            for a, b in zip(model.layers[i].grads, plain.layers[i].grads):
                assert np.array_equal(a, b)

    def test_model_without_parameters_backprops_nothing(self):
        rng = f64_rng(1)
        layers = [Flatten(), ReLU()]
        calls = []
        for layer in layers:
            layer.backward = lambda *args, **kwargs: calls.append(args)
        model = Model(layers, dtype=np.float64)
        logits, caches = forward(model, rng.random((3, 2, 2)))
        loss = backward(model, logits, np.array([0, 1, 3]), caches)
        assert math.isfinite(loss)
        assert calls == []

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
        # a layer stays fixed by being left out of the model that steps
        layer, head = Dense(2, 2, dtype=np.float64), Dense(2, 2, dtype=np.float64)
        before = [p.copy() for p in layer.params + head.params]
        for g in layer.grads + head.grads:
            g[...] = 1.0
        sgd_step(Model([head], dtype=np.float64), lr=1.0, momentum=0.9)
        assert all(np.array_equal(p, b) for p, b in zip(layer.params, before))
        assert not np.array_equal(head.W, before[2])

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
        # four layers: the middle two form the mid group
        layers = [Dense(2, 2, bias=False, dtype=np.float64, rng=rng)
                  for _ in range(4)]
        model = Model(layers, dtype=np.float64)
        before = [l.W.copy() for l in layers]
        for l in layers:
            l.grads[0][...] = 1.0
        rates = (1e-4, 1e-3, 1e-2)
        sgd_step(model, rates)
        for l, b, r in zip(layers, before, (1e-4, 1e-3, 1e-3, 1e-2)):
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
        # one parameterized layer cannot form three groups
        model = Model([Dense(2, 2, dtype=np.float64)], dtype=np.float64)
        model.layers[0].grads[0][...] = 1.0
        before = model.layers[0].W.copy()
        with pytest.raises(ShapeError, match="at least 3"):
            sgd_step(model, (1e-4, 1e-3, 1e-2))
        assert np.array_equal(model.layers[0].W, before)

    def test_f32_update_with_numpy_float_rates(self):
        # np.float64 rates step like Python floats: under numpy 2 promotion
        # an np.float64 rate would compute the f32 update in f64
        def step(lr):
            model = build_cnn((3, 8, 8), 3, seed=1)
            for layer in model.param_layers():
                for g in layer.grads:
                    g[...] = np.random.default_rng(0).standard_normal(g.shape)
            sgd_step(model, lr, momentum=0.9)
            return [p.copy() for l in model.param_layers() for p in l.params]

        rates = (0.0123, 0.0456, 0.0789)
        for a, b in zip(step(rates), step(tuple(map(np.float64, rates)))):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a, b)
        for a, b in zip(step(0.0123), step(np.float64(0.0123))):
            np.testing.assert_array_equal(a, b)


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

    def test_frozen_params_survive_long_training(self):
        # the layers above the first Dense train as a view sharing its
        # parameters; the first Dense, outside that view, stays fixed
        model = build_mlp((2, 4, 4), 3, dtype=np.float32, seed=1)
        frozen_layer, trained = model.param_layers()[:2]
        split = model.layers.index(trained)
        before = [p.copy() for p in frozen_layer.params]
        trained_before = trained.W.copy()
        upper = Model(model.layers[split:], dtype=np.float32)
        rng = np.random.default_rng(5)
        x = rng.random((32, 2, 4, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=32)
        features, _ = forward(Model(model.layers[:split]), x)
        for _ in range(100):
            train_step(upper, features, y, 0.05, momentum=0.9,
                       weight_decay=1e-4)
        for p, b in zip(frozen_layer.params, before):
            assert np.array_equal(p, b)
        assert not np.array_equal(trained.W, trained_before)


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

    def test_cnn_blocks_pool_before_relu(self):
        model = build_cnn((3, 8, 8), 5, seed=0)
        assert [type(layer) for layer in model.layers] == [
            Conv2d, MaxPool2, ReLU, Conv2d, MaxPool2, ReLU, Flatten, Dense,
            ReLU, Dense]

    def test_cnn_rejects_indivisible_dims(self):
        with pytest.raises(ShapeError):
            build_cnn((3, 10, 10), 5)

    def test_f32_mode_keeps_f32_params(self):
        model = build_mlp((3, 8, 8), 3, dtype=np.float32, seed=0)
        for layer in model.param_layers():
            for p in layer.params:
                assert p.dtype == np.float32
