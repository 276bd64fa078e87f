"""Seeded CIFAR-10-format records for the benchmark's cifar workloads.

Each record is 3073 bytes: one label byte, then the 32x32 red, green and blue
planes, row-major, as in the CIFAR-10 binary batches, so
``lrbench.data.load_cifar10`` reads the file through the normal
``cifar10:PATH`` spec.

Every class has two signals that survive the random flips and 4-pixel
crops of ``augment_batch``: a colour offset shared by all its pixels, and
stripes of a class-specific period, horizontal for even classes and
vertical for odd ones, at a random phase per image.

Gaussian pixel noise of standard deviation NOISE sets the difficulty. At
0.2 the fine-tuned MLP missed a 0.9 target on about 1 seed in 20; at 0.1
every pipeline reaches the workloads' 0.8 target on every seed tried, while
a classifier head trained on the frozen, randomly initialised body stays
below it on almost every seed, so all three optimized phases run (see workloads.py for the measured counts).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RECORD_BYTES = 3073
N_CLASSES = 10
SIDE = 32

NOISE = 0.1
COLOUR_AMP = 0.2
STRIPE_AMP = 0.2
STRIPE_PERIODS = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def make_records(n_per_class: int, seed: int) -> np.ndarray:
    """(10 * n_per_class, 3073) uint8 records, classes shuffled together."""
    rng = np.random.default_rng(seed)
    colours = rng.uniform(-1.0, 1.0, size=(N_CLASSES, 3))
    periods = rng.permutation(np.array(STRIPE_PERIODS, dtype=np.float64))
    n = N_CLASSES * n_per_class
    labels = rng.permutation(np.repeat(np.arange(N_CLASSES), n_per_class))
    rows, cols = np.mgrid[0:SIDE, 0:SIDE]
    coord = np.where((labels % 2 == 0)[:, None, None], rows[None], cols[None])
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1, 1))
    stripes = np.sin(2.0 * np.pi * coord / periods[labels][:, None, None] + phase)
    images = (0.5 + COLOUR_AMP * colours[labels][:, :, None, None]
              + STRIPE_AMP * stripes[:, None]
              + NOISE * rng.standard_normal((n, 3, SIDE, SIDE)))
    pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    return np.concatenate(
        [labels.astype(np.uint8)[:, None], pixels.reshape(n, -1)], axis=1)


def write_records(path, n_per_class: int, seed: int) -> Path:
    """Write one seeded batch file at ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(make_records(n_per_class, seed).tobytes())
    return path
