"""Layer groups: partition, head view, feature cache, per-group rates.

A model's parameterized layers are split into three ordered groups (initial,
mid, final). The final group's input activations can be cached so the head
trains without repeated full forward passes; the body stays fixed because
that training runs on head_model, a view that holds only the final group.
Each group gets its own base learning rate scaled by a shared cosine
annealing factor so the ratios between groups never drift.

partition_layers mutates the model and needs exclusive access. group_lr_at
is pure. A FeatureCache is immutable once built and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import GROUP_ORDER, Model
from .schedule import CosineCycleConfig, lr_at

__all__ = [
    "LayerGroupRates",
    "FeatureCache",
    "InvalidPartitionError",
    "partition_layers",
    "default_partition",
    "split_index",
    "head_model",
    "precompute_features",
    "group_lr_at",
]


class InvalidPartitionError(ValueError):
    pass


@dataclass(frozen=True)
class LayerGroupRates:
    """Base learning rates for the three layer groups, lowest first."""

    initial: float = 1e-4
    mid: float = 1e-3
    final: float = 1e-2

    def __post_init__(self) -> None:
        if not (self.initial > 0 and self.mid > 0 and self.final > 0):
            raise ValueError(f"group rates must all be > 0, got {self}")
        if not self.initial <= self.mid <= self.final:
            raise ValueError(f"need initial <= mid <= final, got {self}")


@dataclass(frozen=True)
class FeatureCache:
    """Cached inputs to the final layer group, one row per sample (f32)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"{len(self.features)} feature rows but {len(self.labels)} labels"
            )
        if not np.isfinite(self.features).all():
            raise ValueError("cache features contain non-finite values")

    def __len__(self) -> int:
        return len(self.features)


def partition_layers(model: Model, b1: int, b2: int) -> None:
    """Tag every parameterized layer with its group: indices [0, b1) of
    ``model.param_layers()`` are ``initial``, [b1, b2) are ``mid`` and
    [b2, end) are ``final``. Layers without parameters keep group None; they
    ride along with backprop regardless."""
    layers = model.param_layers()
    n = len(layers)
    if n < 3:
        raise InvalidPartitionError(
            f"partition needs at least 3 parameterized layers, model has {n}"
        )
    if not 0 < b1 < b2 < n:
        raise InvalidPartitionError(
            f"need 0 < b1 < b2 < n_layers so every group is non-empty, "
            f"got b1={b1} b2={b2} n_layers={n}"
        )
    for i, layer in enumerate(layers):
        layer.group = GROUP_ORDER[(i >= b1) + (i >= b2)]


def default_partition(model: Model) -> tuple[int, int]:
    """The classifier head alone in ``final``; the layers below it split in
    half between ``initial`` and ``mid``."""
    n = len(model.param_layers())
    return max(1, (n - 1) // 2), n - 1


def split_index(model: Model) -> int:
    """Index into model.layers where the final group starts (the first
    parameterized layer tagged ``final``). Parameter-free layers before it
    belong to the body."""
    for i, layer in enumerate(model.layers):
        if layer.params and layer.group == "final":
            return i
    raise InvalidPartitionError("model has no layer tagged 'final'")


def head_model(model: Model) -> Model:
    """A view of the final group as a standalone model. Layers (and thus
    parameters and velocities) are shared with the original, so training the
    head view updates the real model and leaves the body as it was."""
    return Model(model.layers[split_index(model):], dtype=model.dtype,
                 loss=model.loss)


def precompute_features(model: Model, data, batch_size: int = 256) -> FeatureCache:
    """One deterministic pass of ``data``, an (images, labels) pair, through
    the body (every layer below the final group), caching the final group's
    input activations in f32.

    No augmentation happens here. The cache holds while the body does not
    change, as when only head_model(model) trains on it. In f32 mode, head
    logits computed from the cache are bit-identical to full forward passes.
    """
    split = split_index(model)
    body = model.layers[:split]
    images, labels = map(np.asarray, data)
    rows = []
    for start in range(0, len(images), batch_size):
        out = np.asarray(images[start:start + batch_size], dtype=model.dtype)
        for layer in body:
            out, _ = layer.forward(out)
            if not np.isfinite(out).all():
                raise FloatingPointError(
                    f"non-finite activations out of layer {layer.name}"
                )
        rows.append(out.reshape(len(out), -1).astype(np.float32))
    features = np.concatenate(rows, axis=0)
    return FeatureCache(features=features, labels=labels)


def group_lr_at(t_global: int, rates: LayerGroupRates,
                cfg: CosineCycleConfig) -> tuple[float, float, float]:
    """Per-group rates at a global iteration: each base rate times the shared
    annealing factor a(t) in [0, 1], so ratios between groups are constant."""
    factor = lr_at(t_global, replace(cfg, eta_max=1.0, eta_min=0.0))
    return (rates.initial * factor, rates.mid * factor, rates.final * factor)

