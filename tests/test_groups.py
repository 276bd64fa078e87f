import numpy as np
import pytest

from lrbench.data import make_blobs
from lrbench.groups import (FeatureCache, InvalidPartitionError,
                            LayerGroupRates, default_partition, freeze_groups,
                            group_lr_at, head_model, partition_layers,
                            precompute_features, split_index)
from lrbench.nn import Dense, Model, build_cnn, build_mlp, forward, train_step
from lrbench.schedule import CosineCycleConfig, lr_at


def partitioned_mlp(seed=0, dtype=np.float32):
    model = build_mlp((3, 8, 8), 3, dtype=dtype, seed=seed)
    b1, b2 = default_partition(model)
    partition_layers(model, b1, b2)
    return model


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


class TestGroupPartition:
    def test_group_of_boundaries(self):
        model = Model([Dense(4, 4) for _ in range(8)])
        partition_layers(model, 2, 5)
        assert [l.group for l in model.param_layers()] == [
            "initial", "initial", "mid", "mid", "mid",
            "final", "final", "final"]

    def test_every_group_nonempty(self):
        model = Model([Dense(4, 4) for _ in range(4)])
        for b1, b2 in ((0, 2), (2, 2), (1, 4)):
            with pytest.raises(InvalidPartitionError, match="non-empty"):
                partition_layers(model, b1, b2)


class TestPartitionLayers:
    def test_tags_match_partition(self):
        model = build_mlp((3, 8, 8), 3)
        partition_layers(model, 1, 2)
        layers = model.param_layers()
        assert [l.group for l in layers] == ["initial", "mid", "final"]

    def test_too_few_param_layers(self):
        model = Model([Dense(4, 4), Dense(4, 2)])
        with pytest.raises(InvalidPartitionError, match="at least 3"):
            partition_layers(model, 1, 2)

    def test_default_partition_mlp_head_alone(self):
        model = build_mlp((3, 8, 8), 3)
        b1, b2 = default_partition(model)
        assert (b1, b2) == (1, 2)
        partition_layers(model, b1, b2)
        assert model.param_layers()[-1].group == "final"

    def test_default_partition_cnn_head_alone(self):
        model = build_cnn((3, 8, 8), 3)
        b1, b2 = default_partition(model)
        n = len(model.param_layers())
        assert b2 == n - 1
        partition_layers(model, b1, b2)
        groups = [l.group for l in model.param_layers()]
        assert groups[-1] == "final"
        assert groups.count("final") == 1


class TestFreezeGroups:
    def test_freezes_exactly_named_groups(self):
        model = partitioned_mlp()
        freeze_groups(model, {"initial", "mid"})
        frozen = {l.group: l.frozen for l in model.param_layers()}
        assert frozen == {"initial": True, "mid": True, "final": False}

    def test_empty_set_unfreezes_all(self):
        model = partitioned_mlp()
        freeze_groups(model, {"initial", "mid"})
        freeze_groups(model, set())
        assert not any(l.frozen for l in model.param_layers())

    def test_unknown_tag_rejected(self):
        model = partitioned_mlp()
        with pytest.raises(ValueError, match="unknown group"):
            freeze_groups(model, {"backbone"})

    def test_requires_partition(self):
        model = build_mlp((3, 8, 8), 3)
        with pytest.raises(InvalidPartitionError, match="partition"):
            freeze_groups(model, {"initial"})


class TestHeadSplit:
    def test_split_index_points_at_head(self):
        model = partitioned_mlp()
        idx = split_index(model)
        assert model.layers[idx] is model.param_layers()[-1]

    def test_split_index_needs_final_tag(self):
        model = build_mlp((3, 8, 8), 3)
        with pytest.raises(InvalidPartitionError, match="final"):
            split_index(model)

    def test_head_model_shares_parameters(self):
        model = partitioned_mlp()
        head = head_model(model)
        assert head.layers[0] is model.param_layers()[-1]
        assert head.loss == model.loss
        assert head.dtype == model.dtype
        # training the head view moves weights in the base model
        before = model.param_layers()[-1].W.copy()
        x = np.random.default_rng(0).random((8, 64)).astype(np.float32)
        y = np.zeros(8, dtype=np.int64)
        train_step(head, x, y, 0.1)
        assert not np.array_equal(before, model.param_layers()[-1].W)


class TestPrecomputeFeatures:
    def test_matches_manual_body_forward(self):
        model = partitioned_mlp()
        freeze_groups(model, {"initial", "mid"})
        ds = make_blobs(n_per_class=10, seed=0)
        cache = precompute_features(model, (ds.images, ds.labels),
                                    batch_size=7)
        out = np.asarray(ds.images, dtype=model.dtype)
        for layer in model.layers[:split_index(model)]:
            out, _ = layer.forward(out)
        np.testing.assert_array_equal(
            cache.features, out.reshape(len(ds), -1).astype(np.float32))
        np.testing.assert_array_equal(cache.labels, ds.labels)

    def test_cached_head_logits_match_full_forward_f32(self):
        model = partitioned_mlp()
        freeze_groups(model, {"initial", "mid"})
        ds = make_blobs(n_per_class=10, seed=1)
        cache = precompute_features(model, (ds.images, ds.labels))
        head = head_model(model)
        full, _ = forward(model, ds.images)
        cached, _ = forward(head, cache.features)
        np.testing.assert_array_equal(full, cached)

    def test_requires_frozen_body(self):
        model = partitioned_mlp()
        ds = make_blobs(n_per_class=5)
        with pytest.raises(ValueError, match="frozen"):
            precompute_features(model, (ds.images, ds.labels))

    def test_accepts_plain_arrays(self):
        model = partitioned_mlp()
        freeze_groups(model, {"initial", "mid"})
        ds = make_blobs(n_per_class=5)
        cache = precompute_features(model, (ds.images, ds.labels))
        # one 256-row batch, as the cache pass takes it
        out = ds.images.astype(model.dtype)
        for layer in model.layers[:split_index(model)]:
            out, _ = layer.forward(out)
        np.testing.assert_array_equal(cache.features, out.reshape(len(ds), -1))
        np.testing.assert_array_equal(cache.labels, ds.labels)
        with pytest.raises(TypeError):
            precompute_features(model, ds)  # a Dataset is not a pair

    def test_batch_size_does_not_change_result(self):
        # not bit-exact across batch sizes: BLAS picks different reduction
        # orders for different shapes, so allow f32 rounding noise
        model = partitioned_mlp()
        freeze_groups(model, {"initial", "mid"})
        ds = make_blobs(n_per_class=11)
        a = precompute_features(model, (ds.images, ds.labels), batch_size=4)
        b = precompute_features(model, (ds.images, ds.labels), batch_size=256)
        np.testing.assert_allclose(a.features, b.features, rtol=1e-5, atol=1e-6)

    def test_cache_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            FeatureCache(np.zeros((2, 2, 2), np.float32), np.zeros(2))
        with pytest.raises(ValueError, match="labels"):
            FeatureCache(np.zeros((3, 2), np.float32), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            FeatureCache(np.full((2, 2), np.nan, np.float32), np.zeros(2))


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

