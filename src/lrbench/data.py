"""Datasets for the desk-scale benchmark: CIFAR-10 binary batches, a Gaussian
blobs fixture, stratified splitting, normalization, and crop/flip augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "CIFAR10_MEAN",
    "CIFAR10_STD",
    "CIFAR10_CLASSES",
    "normalize",
    "augment_batch",
    "load_cifar10",
    "split",
    "make_blobs",
]

CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2023, 0.1994, 0.2010)
CIFAR10_CLASSES = [
    "airplane", "automobile", "bird", "cat", "deer",
    "dog", "frog", "horse", "ship", "truck",
]

RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
_CROP_PAD = 4  # pixels of zero padding augment_batch crops from


@dataclass
class Dataset:
    """Images with integer class labels. ``images`` has samples on the leading
    axis, conventionally (n, channels, h, w). Immutable by convention after
    construction; share freely across readers."""

    images: np.ndarray
    labels: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.images) == 0:
            raise DataError("dataset is empty")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def normalize(images: np.ndarray, mean, std) -> np.ndarray:
    """Per-channel (x - mean) / std for (n, c, h, w) images, as a new array;
    ``images`` is left unchanged."""
    mean = np.asarray(mean, dtype=images.dtype)
    std = np.asarray(std, dtype=images.dtype)
    if np.any(std <= 0):
        raise ValueError("std components must be > 0")
    out = images - mean[None, :, None, None]
    # in place: with a broadcast std, `/` would allocate a second array the
    # size of the dataset
    out /= std[None, :, None, None]
    return out


def augment_batch(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random horizontal flip (p=0.5), vertical flip (p=0.5), then a random
    crop from _CROP_PAD-pixel zero padding back to the original size, for
    each image of an (n, c, h, w) batch.

    The batch takes two draws: an (n, 2) uniform draw gives each image its
    (hflip, vflip), then an (n, 2) integer draw in [0, 2 * _CROP_PAD] its
    (row, col) crop offset in padded coordinates. A given generator state
    always gives the same output.
    """
    pad = _CROP_PAD
    n, c, h, w = images.shape
    flips = (rng.random((n, 2)) < 0.5).tolist()
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2)).tolist()
    out = np.zeros(images.shape, dtype=images.dtype)
    for i, ((hflip, vflip), (oy, ox)) in enumerate(zip(flips, offsets)):
        # the crop window [oy, oy + h) x [ox, ox + w) of the padded image
        # overlaps the image at [y0, y1) x [x0, x1), or not at all when the
        # padding is at least as wide as the image
        y0, y1 = max(oy, pad), min(oy + h, pad + h)
        x0, x1 = max(ox, pad), min(ox + w, pad + w)
        if y0 < y1 and x0 < x1:
            img = images[i]
            if hflip:
                img = img[:, :, ::-1]
            if vflip:
                img = img[:, ::-1, :]
            out[i, :, y0 - oy:y1 - oy, x0 - ox:x1 - ox] = \
                img[:, y0 - pad:y1 - pad, x0 - pad:x1 - pad]
    return out


def load_cifar10(path, n_per_class: int) -> Dataset:
    """Load the first ``n_per_class`` samples of each class from CIFAR-10
    binary batches (3073-byte records: label byte then channel-planar R,G,B
    pixels, row-major 32x32). ``path`` may be one .bin file or a directory of
    them. Pixels are scaled to [0, 1]."""
    if n_per_class < 1:
        raise DataError(f"n_per_class must be >= 1, got {n_per_class}")
    p = Path(path)
    if p.is_file():
        files = [p]
    elif p.is_dir():
        files = sorted(p.glob("*.bin"))
        if not files:
            raise DataError(f"no .bin batch files under {p}")
    else:
        raise DataError(f"no such file or directory: {p}")

    records: list[np.ndarray] = []
    counts = np.zeros(10, dtype=np.int64)
    for f in files:
        raw = f.read_bytes()
        n_full, leftover = divmod(len(raw), RECORD_BYTES)
        if leftover:
            raise DataError(
                f"{f}: truncated record at byte offset {n_full * RECORD_BYTES} "
                f"({leftover} trailing bytes)"
            )
        recs = np.frombuffer(raw, dtype=np.uint8).reshape(n_full, RECORD_BYTES)
        label = recs[:, 0].astype(np.int64)
        bad = np.flatnonzero(label > 9)
        if bad.size:
            raise DataError(f"{f}: invalid label byte {label[bad[0]]} at "
                            f"offset {bad[0] * RECORD_BYTES}")
        # a record is kept while its class, counted in file order, is short
        seen = np.cumsum(label[:, None] == np.arange(10), axis=0)
        keep = recs[counts[label] + seen[np.arange(n_full), label] <= n_per_class]
        records.append(keep)
        counts += np.bincount(keep[:, 0], minlength=10)
        if (counts >= n_per_class).all():
            break
    short = [c for c, n in enumerate(counts) if n < n_per_class]
    if short:
        raise DataError(
            f"classes {short} have fewer than {n_per_class} samples in {p}"
        )
    recs = np.concatenate(records)
    images = recs[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / np.float32(255)
    return Dataset(images, recs[:, 0].astype(np.int64), list(CIFAR10_CLASSES))


def split(dataset: Dataset, num: int, den: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Stratified train/valid split in ratio num:den (e.g. 5:1).

    Per class, round(n * num / (num + den)) samples go to train; the rest to
    valid. Deterministic for a given seed; the two parts are disjoint and
    their union is the original multiset. Raises DataError if the rounding
    leaves either part with no rows.
    """
    if num < 1 or den < 1:
        raise DataError(f"split ratio parts must be >= 1, got {num}:{den}")
    rng = np.random.default_rng(seed)
    frac = num / (num + den)
    train_idx: list[np.ndarray] = []
    valid_idx: list[np.ndarray] = []
    for c in np.unique(dataset.labels):
        idx = np.flatnonzero(dataset.labels == c)
        idx = rng.permutation(idx)
        n_train = round(len(idx) * frac)
        train_idx.append(idx[:n_train])
        valid_idx.append(idx[n_train:])
    tr = np.concatenate(train_idx)
    va = np.concatenate(valid_idx)
    for part, rows in (("train", tr), ("valid", va)):
        if not len(rows):
            ids, counts = np.unique(dataset.labels, return_counts=True)
            raise DataError(
                f"split {num}:{den} leaves the {part} part empty after "
                f"per-class rounding; samples per class: "
                f"{dict(zip(ids.tolist(), counts.tolist()))}")
    return (
        Dataset(dataset.images[tr], dataset.labels[tr], list(dataset.class_names)),
        Dataset(dataset.images[va], dataset.labels[va], list(dataset.class_names)),
    )


def make_blobs(n_per_class: int = 200, n_classes: int = 3, shape=(3, 8, 8),
               noise: float = 0.08, seed: int = 0) -> Dataset:
    """Separable Gaussian-blob 'images': each class is a fixed random mean
    pattern plus pixel noise, clipped to [0, 1]. Rows come in class order; the
    generator draws the class means, then all rows' noise in one draw."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.25, 0.75, size=(n_classes,) + tuple(shape))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    samples = means[labels] + rng.normal(0.0, noise, size=labels.shape + tuple(shape))
    return Dataset(np.clip(samples, 0.0, 1.0).astype(np.float32), labels,
                   [f"blob{c}" for c in range(n_classes)])
