import numpy as np
import pytest

from lrbench.data import make_blobs
from lrbench.groups import (LayerGroupRates, group_lr_at, precompute_features,
                            split_head)
from lrbench.nn import (Conv2d, Dense, Model, ReLU, ShapeError, build_cnn,
                        build_mlp, forward, predict, train_step)
from lrbench.schedule import CosineCycleConfig, lr_at


def group_sizes(model):
    return tuple(len(group) for group in model.param_groups())


class TestLayerGroupRates:
    def test_defaults_ordered(self):
        rates = LayerGroupRates()
        assert (rates.initial, rates.mid, rates.final) == (1e-4, 1e-3, 1e-2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LayerGroupRates(initial=0.0)
        with pytest.raises(ValueError):
            LayerGroupRates(final=-1e-3)

    def test_rejects_unordered(self):
        with pytest.raises(ValueError, match="initial <= mid <= final"):
            LayerGroupRates(initial=1e-2, mid=1e-3, final=1e-4)

    def test_equal_rates_allowed(self):
        rates = LayerGroupRates(initial=0.01, mid=0.01, final=0.01)
        assert (rates.initial, rates.mid, rates.final) == (0.01, 0.01, 0.01)


class TestParamGroups:
    def test_group_of_boundaries(self):
        model = Model([Dense(4, 4) for _ in range(8)])
        layers = model.param_layers()
        initial, mid, final = model.param_groups()
        assert (initial, mid, final) == (layers[:3], layers[3:7], layers[7:])

    def test_every_group_nonempty(self):
        # the head alone is final; initial takes the smaller half below it
        for n in range(3, 12):
            sizes = group_sizes(Model([Dense(4, 4) for _ in range(n)]))
            assert sizes == ((n - 1) // 2, n - 1 - (n - 1) // 2, 1)
            assert 0 < sizes[0] <= sizes[1]

    def test_too_few_param_layers(self):
        model = Model([Dense(4, 4), ReLU(), Dense(4, 2)])
        with pytest.raises(ShapeError, match="at least 3"):
            model.param_groups()

    def test_mlp_head_alone(self):
        model = build_mlp((3, 8, 8), 3)
        assert group_sizes(model) == (1, 1, 1)
        assert model.param_groups()[2] == [model.layers[-1]]

    def test_cnn_head_alone(self):
        model = build_cnn((3, 8, 8), 3)
        assert group_sizes(model) == (1, 2, 1)
        assert model.param_groups()[2] == [model.layers[-1]]


class TestHeadSplit:
    def test_head_view_starts_at_final_group(self):
        # the ReLU under the head belongs to the body
        model = build_cnn((3, 8, 8), 3)
        body, head = split_head(model)
        assert head.layers == [model.layers[-1]]
        assert body.layers == model.layers[:-1]

    def test_head_model_needs_three_groups(self):
        model = Model([Dense(4, 4), ReLU(), Dense(4, 2)])
        with pytest.raises(ShapeError, match="at least 3"):
            split_head(model)

    def test_head_model_shares_parameters(self):
        model = build_mlp((3, 8, 8), 3)
        body, head = split_head(model)
        assert head.layers[0] is model.param_layers()[-1]
        assert body.param_layers() == model.param_layers()[:-1]
        assert head.dtype == body.dtype == model.dtype
        # training the head view moves weights in the base model
        before = model.param_layers()[-1].W.copy()
        x = np.random.default_rng(0).random((8, 64)).astype(np.float32)
        y = np.zeros(8, dtype=np.int64)
        train_step(head, x, y, 0.1)
        assert not np.array_equal(before, model.param_layers()[-1].W)


class TestPrecomputeFeatures:
    def test_matches_manual_body_forward(self):
        model = build_mlp((3, 8, 8), 3)
        ds = make_blobs(n_per_class=10, seed=0)
        features = precompute_features(split_head(model)[0], ds.images)
        out = np.asarray(ds.images, model.dtype)
        for layer in model.layers[:-1]:
            out, _ = layer.forward(out)
        np.testing.assert_array_equal(features, out)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("builder", [build_mlp, build_cnn],
                             ids=["mlp", "cnn"])
    def test_cache_keeps_the_model_dtype(self, builder, dtype):
        # a cast of the features to another dtype would round the head's
        # inputs, so its logits would drift from the full model's
        model = builder((3, 8, 8), 3, dtype=dtype, seed=0)
        x = make_blobs(n_per_class=10, seed=1).images
        body, head = split_head(model)
        features = precompute_features(body, x)
        assert features.dtype == model.dtype
        assert np.array_equal(predict(head, features), predict(model, x))

    def test_conv_head_takes_its_cache_unflattened(self):
        # the features keep the body's output shape, so a head that starts
        # with a conv reads them as the full model would
        model = Model([Conv2d(3, 4, 3), ReLU(), Conv2d(4, 4, 3), ReLU(),
                       Conv2d(4, 2, 3)])
        x = np.random.default_rng(0).standard_normal((5, 3, 8, 8))
        body, head = split_head(model)
        features = precompute_features(body, x)
        assert features.shape == (5, 4, 8, 8)
        assert np.array_equal(predict(head, features), predict(model, x))

    def test_cached_head_logits_match_full_forward_f32(self):
        model = build_mlp((3, 8, 8), 3)
        ds = make_blobs(n_per_class=10, seed=1)
        body, head = split_head(model)
        features = precompute_features(body, ds.images)
        full, _ = forward(model, ds.images)
        cached, _ = forward(head, features)
        np.testing.assert_array_equal(full, cached)

    def test_cached_cnn_head_logits_match_full_forward_f32(self):
        model = build_cnn((3, 8, 8), 3, seed=0)
        # 300 rows: two cache batches, each many conv im2col blocks
        ds = make_blobs(n_per_class=100, seed=1)
        body, head = split_head(model)
        features = precompute_features(body, ds.images)
        full, _ = forward(model, ds.images)
        cached, _ = forward(head, features)
        np.testing.assert_array_equal(full, cached)

    def test_accepts_plain_arrays(self):
        model = build_mlp((3, 8, 8), 3)
        ds = make_blobs(n_per_class=5)
        body = split_head(model)[0]
        features = precompute_features(body, ds.images.tolist())
        # one 256-row batch, as the cache pass takes it
        out = ds.images.astype(model.dtype)
        for layer in model.layers[:-1]:
            out, _ = layer.forward(out)
        np.testing.assert_array_equal(features, out)
        with pytest.raises(TypeError):
            precompute_features(body, ds)  # a Dataset is not an image array

    def test_batch_size_does_not_change_result(self):
        # 300 rows: the cache's 256 + 44-row pass against one forward over
        # the body; not bit-exact across batch sizes: BLAS picks different
        # reduction orders for different shapes, so allow f32 rounding noise
        body = split_head(build_mlp((3, 8, 8), 3))[0]
        ds = make_blobs(n_per_class=100)
        a, _ = forward(body, ds.images)
        b = precompute_features(body, ds.images)
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_first_layer_overflow_raises_f32(self):
        # inf out of the first layer turns into inf or nan further up, so
        # the one check on the cached features still catches it
        model = build_cnn((3, 8, 8), 3, seed=0)
        model.layers[0].W[...] = np.finfo(np.float32).max
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                precompute_features(split_head(model)[0],
                                    np.ones((4, 3, 8, 8)))


class TestGroupLrAt:
    def test_base_rates_at_cycle_start(self):
        rates = LayerGroupRates(1e-4, 1e-3, 1e-2)
        cfg = CosineCycleConfig(eta_max=0.5, t0=100, mult=2)
        assert group_lr_at(0, rates, cfg) == (1e-4, 1e-3, 1e-2)
        # restart boundary: factor returns to exactly 1
        assert group_lr_at(100, rates, cfg) == (1e-4, 1e-3, 1e-2)

    def test_half_cycle_halves_every_group(self):
        rates = LayerGroupRates(2e-4, 2e-3, 2e-2)
        cfg = CosineCycleConfig(eta_max=1.0, t0=100, mult=1)
        lrs = group_lr_at(50, rates, cfg)
        np.testing.assert_allclose(lrs, (1e-4, 1e-3, 1e-2), rtol=1e-12)

    def test_ratios_constant_wherever_nonzero(self):
        rates = LayerGroupRates(1e-4, 1e-3, 1e-2)
        cfg = CosineCycleConfig(eta_max=0.3, t0=37, mult=2)
        for t in range(1, 500, 7):
            li, lm, lf = group_lr_at(t, rates, cfg)
            if lf == 0.0:
                assert li == lm == 0.0
                continue
            assert lm / li == pytest.approx(10.0, rel=1e-9)
            assert lf / lm == pytest.approx(10.0, rel=1e-9)

    def test_factor_ignores_cfg_eta_values(self):
        # annealing factor is the schedule normalized to [0, 1]; the config's
        # own eta_max/eta_min must not leak into group rates
        rates = LayerGroupRates(1e-3, 1e-3, 1e-3)
        a = CosineCycleConfig(eta_max=5.0, eta_min=1.0, t0=50)
        b = CosineCycleConfig(eta_max=0.01, eta_min=0.0, t0=50)
        for t in (0, 10, 25, 49):
            assert group_lr_at(t, rates, a) == group_lr_at(t, rates, b)

    def test_matches_normalized_schedule_oracle(self):
        rates = LayerGroupRates(1e-4, 1e-3, 1e-2)
        cfg = CosineCycleConfig(eta_max=0.7, eta_min=0.1, t0=64, mult=2)
        unit = CosineCycleConfig(eta_max=1.0, eta_min=0.0, t0=64, mult=2)
        for t in range(0, 300, 13):
            expected = tuple(r * lr_at(t, unit)
                             for r in (rates.initial, rates.mid, rates.final))
            assert group_lr_at(t, rates, cfg) == expected

