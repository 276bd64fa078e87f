import math

import numpy as np
import pytest

from conftest import max_grad_rel_error
from lrbench.groups import LayerGroupRates, split_head
import lrbench.nn
from lrbench.nn import (_BLOCK_ROWS, Conv2d, Dense, MaxPool2, Model,
                        NonFiniteLossError, ReLU, ShapeError, backward,
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


def gemm_blocks_of_32_cells(monkeypatch, conv, rows, h, w):
    """Make ``conv``'s forward run GEMMs of 32 grid cells, and check that its
    grid for ``rows`` images of h x w ends in a shorter block."""
    monkeypatch.setattr(lrbench.nn, "_CONV_GEMM_MADDS", 32 * conv.W.size)
    _, grid = conv.forward(np.zeros((rows, conv.W.shape[1], h, w)))
    # the GEMMs run over the grid less the zero tail its last windows read
    p = conv.pad
    cells = grid.shape[1] - 2 * p * (w + p + 1)
    assert cells > 3 * 32 and cells % 32


# images no larger than the padding: every window reads the zero rows and
# columns that an image shares with its neighbours
SMALL_IMAGES = [(1, 2, 5), (2, 1, 5), (2, 2, 5), (2, 2, 7)]


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
        model = Model([layer])
        logits, _ = forward(model, np.ones((5, 4)))
        assert np.all(logits == 0.0)

    def test_identity_dense_passes_input_through(self):
        layer = Dense(3, 3, dtype=np.float64)
        layer.W[...] = np.eye(3)
        layer.b[...] = 0.0
        model = Model([layer])
        x = f64_rng().random((4, 3))
        logits, _ = forward(model, x)
        assert np.allclose(logits, x)

    def test_two_layer_net_matches_scalar_arithmetic(self):
        rng = f64_rng(3)
        l1 = Dense(4, 5, dtype=np.float64, rng=rng)
        l2 = Dense(5, 2, dtype=np.float64, rng=rng)
        model = Model([l1, ReLU(), l2])
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

    def test_precision_is_the_parameters_dtype(self):
        rng = f64_rng(17)
        layer = Dense(3, 2, dtype=np.float64, rng=rng)
        layer.b[...] = rng.standard_normal(2)
        model = Model([ReLU(), layer])
        assert model.dtype == np.float64
        # positive, so the ReLU passes them, and beyond float32's 24 bits
        x = 1.0 + rng.random((4, 3)) * 2.0**-40
        assert not np.array_equal(x.astype(np.float32), x)
        logits, _ = forward(model, x)
        assert logits.dtype == np.float64
        np.testing.assert_array_equal(logits, x @ layer.W + layer.b)
        # a model without parameters keeps its input's dtype
        for dtype in (np.float32, np.float64):
            out, _ = forward(Model([ReLU()]), np.ones((2, 3), dtype=dtype))
            assert out.dtype == dtype

    def test_shape_mismatch_is_descriptive(self):
        model = Model([Dense(4, 3)])
        with pytest.raises(ShapeError, match="width"):
            forward(model, np.ones((2, 7)))

    @pytest.mark.parametrize("layer, shape, expected", [
        (Dense(4, 3), (4,), "input of rank >= 2"),
        (Conv2d(1, 2), (2, 4, 4), "4-D input"),
        (MaxPool2(), (2, 4, 4), "4-D input"),
    ], ids=["dense", "conv", "pool"])
    def test_input_of_the_wrong_rank_is_named(self, layer, shape, expected):
        with pytest.raises(ShapeError, match=f"expected {expected}, got "
                           rf"shape \({shape[0]},"):
            layer.forward(np.ones(shape, dtype=np.float32))

    def check_conv_matches_naive_loops(self, monkeypatch=None):
        rng = f64_rng(5)
        # a batch that is not a multiple of the 16-row training batch
        rows = 19
        # non-square images with kernel sizes 1, 3 and 5: swapping h and w,
        # or a grid row of the wrong width, shows here
        for (h, w), k in [((4, 4), 3), ((6, 4), 1), ((6, 4), 3), ((6, 4), 5),
                          ((4, 6), 1), ((4, 6), 3), ((4, 6), 5)]:
            conv = Conv2d(2, 3, k, dtype=np.float64, rng=rng)
            conv.b[...] = rng.random(3)
            if monkeypatch is not None:
                gemm_blocks_of_32_cells(monkeypatch, conv, rows, h, w)
            x = rng.random((rows, 2, h, w))
            model = Model([conv])
            y, _ = forward(model, x)
            assert y.shape == (rows, 3, h, w)
            assert np.allclose(y, conv_naive(x, conv.W, conv.b), atol=1e-12)

    def test_conv_matches_naive_loops(self):
        self.check_conv_matches_naive_loops()

    def test_conv_matches_naive_loops_over_many_gemm_blocks(self, monkeypatch):
        self.check_conv_matches_naive_loops(monkeypatch)

    @pytest.mark.parametrize("h,w,ksize", SMALL_IMAGES)
    def test_conv_matches_naive_loops_on_images_no_larger_than_the_padding(
            self, h, w, ksize):
        rng = f64_rng(18)
        conv = Conv2d(2, 3, ksize, dtype=np.float64, rng=rng)
        conv.b[...] = rng.random(3)
        x = rng.random((3, 2, h, w))
        y, _ = conv.forward(x)
        assert np.allclose(y, conv_naive(x, conv.W, conv.b), atol=1e-12)

    @pytest.mark.parametrize("n,c,h,w,ksize", [
        (16, 3, 32, 32, 3), (16, 8, 16, 16, 3), (3, 2, 6, 4, 5),
        (3, 2, 4, 6, 1), (3, 2, 1, 2, 5), (3, 2, 2, 2, 7)])
    def test_conv_grid_shares_the_padding_between_neighbours(self, n, c, h, w,
                                                             ksize):
        # each image takes (h+p) rows of w+p cells, and the windows of the
        # first and last rows read p*(w+p)+p zero cells before and after
        p = ksize // 2
        conv = Conv2d(c, 2, ksize)
        _, grid = conv.forward(np.ones((n, c, h, w), dtype=np.float32))
        assert grid.shape == (c, n * (h + p) * (w + p)
                              + (ksize - 1) * (w + p + 1))
        assert grid.sum() == n * c * h * w

    @pytest.mark.parametrize("c,o,hw", [(3, 8, 32), (8, 16, 16)])
    def test_conv_rows_are_the_same_bits_in_any_batch(self, c, o, hw):
        # the cifar CNN's two conv shapes in float32: each 16 rows of a
        # 300-row forward, over many GEMM blocks, against a forward of those
        # rows alone, as predict and a training step run them
        conv = Conv2d(c, o, 3, rng=f64_rng(14))
        conv.b[...] = f64_rng(15).standard_normal(o)
        x = f64_rng(16).standard_normal((300, c, hw, hw)).astype(np.float32)
        full, _ = conv.forward(x)
        assert full.dtype == np.float32
        for start in range(0, 300, 16):
            part, _ = conv.forward(x[start:start + 16])
            np.testing.assert_array_equal(full[start:start + 16], part)

    def test_pool_matches_naive_loops(self):
        rng = f64_rng(6)
        x = rng.random((2, 3, 6, 4))
        model = Model([MaxPool2()])
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
            y, caches = forward(Model(layers), x)
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
        model = Model([MaxPool2()])
        with pytest.raises(ShapeError):
            forward(model, np.ones((1, 1, 5, 4)))

    def test_conv_rejects_wrong_channel_count(self):
        model = Model([Conv2d(3, 4)])
        with pytest.raises(ShapeError):
            forward(model, np.ones((1, 2, 4, 4)))

    @pytest.mark.parametrize("ksize", [0, -1, 2, 4])
    def test_conv_rejects_a_kernel_without_a_centre(self, ksize):
        # same padding needs an odd kernel of at least 1
        with pytest.raises(ValueError, match="ksize"):
            Conv2d(2, 3, ksize)

    def test_dense_reads_the_rows_of_a_channel_major_input(self):
        # build_cnn's pool -> ReLU output: (n, c, h, w) laid out channel
        # first, as the conv's output is
        rng = f64_rng(14)
        x = np.maximum(rng.standard_normal((5, 16, 2, 2), dtype=np.float32)
                       .transpose(1, 0, 2, 3), 0)
        assert not x.flags.c_contiguous
        layer = Dense(20, 3, rng=rng)
        model = Model([layer])
        rows = np.ascontiguousarray(x).reshape(16, 20)
        y, caches = forward(model, x)
        np.testing.assert_array_equal(y, rows @ layer.W + layer.b)
        g = rng.standard_normal((16, 3), dtype=np.float32)
        back = layer.backward(g, caches[0])
        assert back.shape == x.shape
        np.testing.assert_array_equal(back, (g @ layer.W.T).reshape(x.shape))
        np.testing.assert_array_equal(layer.grads[0], rows.T @ g)
        with pytest.raises(ShapeError, match=r"dense0: expected input of "
                           r"rank >= 2, got shape \(20,\)"):
            forward(model, rows[0])


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

    def test_conv_free_model_forwards_all_rows_in_one_call(self,
                                                           monkeypatch):
        # the cifar MLP reads its 3072 x 64 weight once per validation pass,
        # with the bits of the 16-row blocks a conv model runs in
        model = build_mlp((3, 32, 32), 10, seed=2)
        assert model.layers[0].W.shape == (3072, 64)
        x = f64_rng(5).random((40, 3, 32, 32)).astype(np.float32)
        blocks = np.concatenate([forward(model, x[start:start + 16])[0]
                                 for start in range(0, 40, 16)])
        rows = self.slice_rows(monkeypatch)
        out = predict(model, x)
        assert rows == [40]
        np.testing.assert_array_equal(out, blocks)

    def test_only_the_view_that_holds_the_conv_is_blocked(self, monkeypatch):
        body, head = split_head(build_cnn((3, 8, 8), 3, seed=1))
        rows = self.slice_rows(monkeypatch)
        features = predict(body, f64_rng(6).random((40, 3, 8, 8)))
        predict(head, features)
        assert rows == [16, 16, 8, 40]

    def test_forty_rows_go_in_blocks_of_16(self, monkeypatch):
        # a validation pass of the cifar CNN: two full blocks and a short
        # one, each forwarded on its own
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

    @pytest.mark.parametrize("logits, labels", [
        (np.zeros((2, 3)), np.array([0, 1, 2])),
        (np.zeros(3), np.array([0, 1, 2])),
        (np.zeros((2, 3)), np.array([[0], [1]])),
    ], ids=["rows", "logits-rank", "labels-rank"])
    def test_logits_and_labels_that_do_not_match_rejected(self, logits,
                                                          labels):
        with pytest.raises(ShapeError, match="do not match"):
            softmax_cross_entropy(logits, labels)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_non_finite_loss_raises_with_value(self):
        layer = Dense(2, 2, dtype=np.float64)
        layer.W[...] = np.inf
        model = Model([layer])
        logits, caches = forward(model, np.ones((1, 2)))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError) as err:
                backward(model, logits, np.array([0]), caches)
        assert not math.isfinite(err.value.value)

    def test_targets_pick_the_loss(self):
        # one model and one set of logits: integer labels give softmax
        # cross-entropy, float targets of the logits' shape give squared error
        rng = f64_rng(3)
        layer = Dense(5, 4, dtype=np.float64, rng=rng)
        model = Model([layer])
        x = rng.standard_normal((6, 5))
        logits, caches = forward(model, x)
        for dtype in (np.int64, np.int32, np.uint8):
            labels = np.array([0, 3, 1, 2, 3, 0], dtype=dtype)
            assert backward(model, logits, labels, caches) == \
                softmax_cross_entropy(logits, labels)
        targets = rng.standard_normal((6, 4))
        d = logits - targets
        loss = backward(model, logits, targets, caches)
        assert loss == pytest.approx(0.5 * np.sum(d * d) / 6, rel=1e-14)
        np.testing.assert_allclose(layer.grads[0], x.T @ d / 6, rtol=1e-12)
        np.testing.assert_allclose(layer.grads[1], d.sum(axis=0) / 6,
                                   rtol=1e-12)
        with pytest.raises(ShapeError, match=r"integer class labels of shape "
                           r"\(6,\) or float targets of the logits' shape"):
            backward(model, logits, np.array([0., 3., 1., 2., 3., 0.]), caches)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = f64_rng(0)
        x = rng.random((4, 3, 8, 8))
        y = rng.integers(0, 3, size=4)
        mlp = Model([Dense(192, 8, dtype=np.float64, rng=rng),
                     ReLU(), Dense(8, 3, dtype=np.float64, rng=rng)])
        assert max_grad_rel_error(mlp, x, y) < 1e-4

    def test_gradients_with_weight_decay(self):
        rng = f64_rng(2)
        x = rng.random((3, 6))
        y = rng.integers(0, 2, size=3)
        model = Model([Dense(6, 4, dtype=np.float64, rng=rng), ReLU(),
                       Dense(4, 2, dtype=np.float64, rng=rng)])
        assert max_grad_rel_error(model, x, y, weight_decay=0.1) < 1e-4

    def test_conv_pool_gradients(self):
        rng = f64_rng(4)
        x = rng.random((2, 2, 4, 4))
        y = rng.integers(0, 2, size=2)
        model = Model([Conv2d(2, 3, 3, dtype=np.float64, rng=rng), ReLU(),
                       MaxPool2(), Dense(12, 2, dtype=np.float64, rng=rng)])
        assert max_grad_rel_error(model, x, y) < 1e-4

    def test_conv_pool_relu_gradients(self):
        # build_cnn's block order: the pool's winners among raw conv outputs
        rng = f64_rng(12)
        x = rng.random((3, 2, 4, 6))
        y = rng.integers(0, 2, size=3)
        model = Model([Conv2d(2, 3, 3, dtype=np.float64, rng=rng), MaxPool2(),
                       ReLU(), Dense(18, 2, dtype=np.float64, rng=rng)])
        assert max_grad_rel_error(model, x, y) < 1e-4

    def test_conv_input_gradient_through_a_second_conv(self):
        # the second conv's input gradient reaches the first conv's weights
        rng = f64_rng(9)
        x = rng.random((3, 2, 4, 4))
        y = rng.integers(0, 2, size=3)
        model = Model([Conv2d(2, 3, 3, dtype=np.float64, rng=rng), ReLU(),
                       MaxPool2(), Conv2d(3, 4, 3, dtype=np.float64, rng=rng),
                       ReLU(), Dense(16, 2, dtype=np.float64, rng=rng)])
        assert max_grad_rel_error(model, x, y) < 1e-4

    def check_conv_gradients_on_non_square_grids(self, h, w, ksize,
                                                 monkeypatch=None, rows=19):
        # 19 rows by default: a batch that is not a multiple of 16; the
        # second conv's input gradient reaches the first conv's weights
        rng = f64_rng(13)
        x = rng.random((rows, 2, h, w))
        y = rng.integers(0, 2, size=rows)
        model = Model([Conv2d(2, 3, ksize, dtype=np.float64, rng=rng), ReLU(),
                       Conv2d(3, 2, ksize, dtype=np.float64, rng=rng),
                       Dense(2 * h * w, 2, dtype=np.float64, rng=rng)])
        if monkeypatch is not None:
            # both convs hold 6 * ksize**2 weights
            gemm_blocks_of_32_cells(monkeypatch, model.layers[0], rows, h, w)
        assert max_grad_rel_error(model, x, y) < 1e-4

    @pytest.mark.parametrize("h,w", [(6, 4), (4, 6)])
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_conv_gradients_on_non_square_grids(self, h, w, ksize):
        self.check_conv_gradients_on_non_square_grids(h, w, ksize)

    @pytest.mark.parametrize("h,w", [(6, 4), (4, 6)])
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_conv_gradients_over_many_gemm_blocks(self, h, w, ksize,
                                                  monkeypatch):
        self.check_conv_gradients_on_non_square_grids(h, w, ksize, monkeypatch)

    @pytest.mark.parametrize("h,w,ksize", SMALL_IMAGES)
    def test_conv_gradients_on_images_no_larger_than_the_padding(self, h, w,
                                                               ksize):
        self.check_conv_gradients_on_non_square_grids(h, w, ksize, rows=3)

    def test_dense_backward_writes_its_grads_in_place(self):
        rng = f64_rng(17)
        layer = Dense(48, 5, dtype=np.float32, rng=rng)
        x = rng.standard_normal((16, 48)).astype(np.float32)
        g = rng.standard_normal((16, 5)).astype(np.float32)
        arrays = list(layer.grads)
        layer.backward(g, (x, x.shape), need_input_grad=False)
        assert all(a is b for a, b in zip(layer.grads, arrays))
        np.testing.assert_array_equal(layer.grads[0], x.T @ g)
        np.testing.assert_array_equal(layer.grads[1], g.sum(axis=0))

    def test_lowest_trainable_layer_skips_its_input_gradient(self):
        # every parameterized layer trains, so the lowest trainable layer is
        # the lowest parameterized one, here above a ReLU
        rng = f64_rng(10)
        lowest = Dense(4, 3, dtype=np.float64, rng=rng)
        model = Model([ReLU(), lowest, ReLU(),
                       Dense(3, 2, dtype=np.float64, rng=rng)])
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
            return Model([ReLU(), Dense(5, 6, dtype=np.float64, rng=r),
                          ReLU(), Dense(6, 2, dtype=np.float64, rng=r)])

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
        # the ReLU below the first Dense is never called, and every
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
        layers = [ReLU(), ReLU()]
        calls = []
        for layer in layers:
            layer.backward = lambda *args, **kwargs: calls.append(args)
        model = Model(layers)
        logits, caches = forward(model, rng.random((3, 4)))
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
        model = Model([layer])
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
        sgd_step(Model([head]), lr=1.0, momentum=0.9)
        assert all(np.array_equal(p, b) for p, b in zip(layer.params, before))
        assert not np.array_equal(head.W, before[2])

    def test_two_momentum_steps_hand_unrolled(self):
        layer = Dense(3, 2, dtype=np.float64)
        model = Model([layer])
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
        model = Model([layer])
        before = layer.W.copy()
        layer.grads[0][...] = 0.0
        sgd_step(model, lr=0.5, weight_decay=0.25)
        assert np.array_equal(layer.W, before * (1.0 - 0.5 * 0.25))

    def test_l2_coupling_generic_values(self):
        layer = Dense(4, 2, bias=False, dtype=np.float64,
                      rng=f64_rng(8))
        model = Model([layer])
        before = layer.W.copy()
        layer.grads[0][...] = 0.0
        sgd_step(model, lr=0.013, weight_decay=0.37)
        assert np.allclose(layer.W, before * (1 - 0.013 * 0.37), rtol=1e-12)

    def test_per_group_rates_applied_per_layer(self):
        rng = f64_rng(0)
        # four layers: the middle two form the mid group
        layers = [Dense(2, 2, bias=False, dtype=np.float64, rng=rng)
                  for _ in range(4)]
        model = Model(layers)
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
        model = Model([Dense(2, 2, dtype=np.float64)])
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

    @pytest.mark.parametrize("lr", [0.0123, (0.0123, 0.0456, 0.0789)])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_f32_step_matches_the_update_formula_bit_for_bit(
            self, lr, weight_decay):
        # p - lr*(m*v + g + wd*p), each product and sum rounded to float32 in
        # that order, whatever scratch the step writes into the gradients
        model = build_mlp((3, 8, 8), 3, seed=4)
        rng = f64_rng(9)
        expected = []
        rates = lr if isinstance(lr, tuple) else (lr,) * 3
        for rate, group in zip(rates, model.param_groups()):
            for layer in group:
                for p, g, v in zip(layer.params, layer.grads, layer.vel):
                    g[...] = rng.standard_normal(g.shape)
                    v[...] = rng.standard_normal(v.shape)
                    eff = g + weight_decay * p if weight_decay else g
                    new_v = 0.9 * v + eff
                    expected.append((p - rate * new_v, new_v))
        sgd_step(model, lr, momentum=0.9, weight_decay=weight_decay)
        stepped = [(p, v) for layer in model.param_layers()
                   for p, v in zip(layer.params, layer.vel)]
        assert len(stepped) == len(expected) == 6
        for (p, v), (want_p, want_v) in zip(stepped, expected):
            assert p.dtype == v.dtype == want_p.dtype == np.float32
            np.testing.assert_array_equal(v, want_v)
            np.testing.assert_array_equal(p, want_p)


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
        upper = Model(model.layers[split:])
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
            Conv2d, MaxPool2, ReLU, Conv2d, MaxPool2, ReLU, Dense, ReLU,
            Dense]

    def test_cnn_rejects_indivisible_dims(self):
        with pytest.raises(ShapeError):
            build_cnn((3, 10, 10), 5)

    def test_f32_mode_keeps_f32_params(self):
        model = build_mlp((3, 8, 8), 3, dtype=np.float32, seed=0)
        for layer in model.param_layers():
            for p in layer.params:
                assert p.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_weights_are_the_scaled_normal_draw(self, dtype):
        # the layers scale their float64 draw in place before the cast,
        # which must give the bits of scaling a copy of it
        for seed in range(5):
            cases = [(Dense(48, 7, dtype=dtype,
                            rng=np.random.default_rng(seed)), (48, 7), 48),
                     (Conv2d(3, 5, 3, dtype=dtype,
                             rng=np.random.default_rng(seed)), (5, 3, 3, 3),
                      27)]
            for layer, shape, fan_in in cases:
                rng = np.random.default_rng(seed)
                want = (rng.standard_normal(shape)
                        * math.sqrt(2.0 / fan_in)).astype(dtype)
                assert layer.W.dtype == dtype
                assert layer.W.tobytes() == want.tobytes()
