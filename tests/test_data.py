import tracemalloc

import numpy as np
import pytest

import lrbench.data
from lrbench.data import (CIFAR10_CLASSES, Dataset, augment_batch,
                          load_cifar10, make_blobs, normalize, split)
from lrbench.errors import DataError

RECORD_BYTES = 3073


def write_records(path, records):
    """records: list of (label, pixels-uint8-array-of-3072)."""
    with open(path, "wb") as fh:
        for label, pixels in records:
            fh.write(bytes([label]))
            fh.write(np.asarray(pixels, dtype=np.uint8).tobytes())


def cifar_file(tmp_path, n_per_class=2, name="batch.bin"):
    rng = np.random.default_rng(7)
    records = []
    for label in range(10):
        for _ in range(n_per_class):
            records.append((label, rng.integers(0, 256, 3072, dtype=np.uint8)))
    path = tmp_path / name
    write_records(path, records)
    return path


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="images but"):
            Dataset(np.zeros((3, 1, 2, 2)), np.zeros(2, dtype=np.int64), ["a"])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            Dataset(np.zeros((0, 1, 2, 2)), np.zeros(0, dtype=np.int64), ["a"])

    def test_len_and_n_classes(self):
        ds = make_blobs(n_per_class=5, n_classes=4)
        assert len(ds) == 20
        assert ds.n_classes == 4
        assert ds.class_names == ["blob0", "blob1", "blob2", "blob3"]


class TestNormalize:
    def test_matches_elementwise_formula(self):
        rng = np.random.default_rng(0)
        x = rng.random((4, 3, 5, 5)).astype(np.float64)
        mean = (0.1, 0.5, 0.9)
        std = (0.2, 0.3, 0.4)
        out = normalize(x, mean, std)
        for c in range(3):
            expected = (x[:, c] - mean[c]) / std[c]
            np.testing.assert_allclose(out[:, c], expected, rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.random((2, 3, 4, 4))
        mean, std = (0.4, 0.5, 0.6), (0.1, 0.2, 0.3)
        out = normalize(x, mean, std)
        back = out * np.array(std)[None, :, None, None] \
            + np.array(mean)[None, :, None, None]
        np.testing.assert_allclose(back, x, rtol=1e-10, atol=1e-12)

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros((1, 3, 2, 2)), (0, 0, 0), (1, 0, 1))

    def test_writes_one_array_the_size_of_its_input(self):
        x = np.random.default_rng(2).random((60, 3, 32, 32), dtype=np.float32)
        before = x.copy()
        mean, std = (0.4914, 0.4822, 0.4465), (0.2023, 0.1994, 0.2010)
        # numpy reports its data buffers to tracemalloc, so the peak repeats
        tracemalloc.start()
        try:
            out = normalize(x, mean, std)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes
        m = np.asarray(mean, np.float32)[None, :, None, None]
        s = np.asarray(std, np.float32)[None, :, None, None]
        want = (x - m) / s
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        assert np.array_equal(x, before)


def augment_oracle(image, hflip, vflip, oy, ox, pad=4):
    """The per-image recipe augment_batch must reproduce: hflip, then vflip,
    then the (oy, ox) crop of the zero-padded image."""
    c, h, w = image.shape
    out = image
    if hflip:
        out = out[:, :, ::-1]
    if vflip:
        out = out[:, ::-1, :]
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=image.dtype)
    padded[:, pad:pad + h, pad:pad + w] = out
    return padded[:, oy:oy + h, ox:ox + w]


def drawn_augmentations(n, seed, pad=4):
    """The (hflip, vflip) and (oy, ox) that augment_batch draws for an
    n-image batch from default_rng(seed). Draw order is part of its
    contract."""
    rng = np.random.default_rng(seed)
    flips = rng.random((n, 2)) < 0.5
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    return flips.tolist(), offsets.tolist()


def blobs_oracle(n_per_class, n_classes, shape, noise, seed):
    """The per-class recipe make_blobs must reproduce: the class means, then
    each class's pixel noise in class order, each class clipped on its own."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.25, 0.75, size=(n_classes,) + tuple(shape))
    images, labels = [], []
    for c in range(n_classes):
        samples = means[c] + rng.normal(0.0, noise, size=(n_per_class,) + tuple(shape))
        images.append(np.clip(samples, 0.0, 1.0))
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return np.concatenate(images).astype(np.float32), np.concatenate(labels)


def find_augment_seed(want_hflip, want_vflip, pad=4):
    """Search for a seed whose one-image draw gives the requested flips and a
    centered crop."""
    for seed in range(2000):
        flips, offsets = drawn_augmentations(1, seed, pad)
        if flips[0] == [want_hflip, want_vflip] and offsets[0] == [pad, pad]:
            return seed
    raise AssertionError("no seed found; augment_batch draw order changed?")


class TestAugment:
    def test_identity_when_no_flip_centered_crop(self):
        seed = find_augment_seed(want_hflip=False, want_vflip=False)
        imgs = np.random.default_rng(3).random((1, 3, 8, 8)).astype(np.float32)
        out = augment_batch(imgs, np.random.default_rng(seed))
        np.testing.assert_array_equal(out, imgs)

    def test_hflip_when_drawn(self):
        seed = find_augment_seed(want_hflip=True, want_vflip=False)
        imgs = np.random.default_rng(4).random((1, 3, 8, 8)).astype(np.float32)
        out = augment_batch(imgs, np.random.default_rng(seed))
        np.testing.assert_array_equal(out, imgs[:, :, :, ::-1])

    def test_vflip_when_drawn(self):
        seed = find_augment_seed(want_hflip=False, want_vflip=True)
        imgs = np.random.default_rng(4).random((1, 3, 8, 8)).astype(np.float32)
        out = augment_batch(imgs, np.random.default_rng(seed))
        np.testing.assert_array_equal(out, imgs[:, :, ::-1, :])

    def test_shape_and_dtype_preserved(self):
        for dtype in (np.float32, np.float64):
            imgs = np.random.default_rng(5).random((5, 3, 10, 12)).astype(dtype)
            # a strided view in, a fresh C-contiguous batch out
            out = augment_batch(imgs[:, :, ::-1], np.random.default_rng(0))
            assert out.shape == imgs.shape
            assert out.dtype == dtype
            assert out.flags.c_contiguous

    def test_deterministic_for_same_generator_state(self):
        imgs = np.random.default_rng(6).random((4, 3, 8, 8))
        a = augment_batch(imgs, np.random.default_rng(42))
        b = augment_batch(imgs, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_pixels_come_from_image_or_padding(self):
        # every output pixel is either zero padding or a pixel of its own
        # input image
        imgs = np.random.default_rng(7).random((6, 1, 6, 6)) + 1.0
        out = augment_batch(imgs, np.random.default_rng(11))
        for img, got in zip(imgs, out):
            assert set(got.ravel()) <= set(img.ravel()) | {0.0}

    def test_seeded_batch_is_pinned(self, monkeypatch):
        # default_rng(1) draws (hflip, vflip) = (0, 0), (1, 0), (1, 1),
        # (0, 1) and padded-crop offsets (1, 1), (0, 0), (2, 2), (2, 1)
        monkeypatch.setattr(lrbench.data, "_CROP_PAD", 1)
        imgs = np.arange(1, 37, dtype=np.float32).reshape(4, 1, 3, 3)
        out = augment_batch(imgs, np.random.default_rng(1))
        expected = np.array([
            [[[1, 2, 3], [4, 5, 6], [7, 8, 9]]],
            [[[0, 0, 0], [0, 12, 11], [0, 15, 14]]],
            [[[23, 22, 0], [20, 19, 0], [0, 0, 0]]],
            [[[31, 32, 33], [28, 29, 30], [0, 0, 0]]],
        ], dtype=np.float32)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("shape,pad", [((8, 3, 8, 8), 4), ((16, 3, 5, 7), 2),
                                           ((12, 2, 4, 4), 0)])
    def test_matches_the_per_image_recipe(self, shape, pad, monkeypatch):
        monkeypatch.setattr(lrbench.data, "_CROP_PAD", pad)
        imgs = np.random.default_rng(8).random(shape).astype(np.float32)
        out = augment_batch(imgs, np.random.default_rng(9))
        flips, offsets = drawn_augmentations(len(imgs), 9, pad)
        expected = np.stack([augment_oracle(img, *f, *o, pad=pad)
                             for img, f, o in zip(imgs, flips, offsets)])
        np.testing.assert_array_equal(out, expected)

    def test_crops_past_the_image_are_zero(self):
        # at pad 4 a 2x2 image covers padded rows and columns 4-5, so any
        # offset below 3 or above 5 crops padding alone
        imgs = np.random.default_rng(10).random((64, 2, 2, 2)) + 1.0
        out = augment_batch(imgs, np.random.default_rng(12))
        flips, offsets = drawn_augmentations(len(imgs), 12, pad=4)
        blank = [not (3 <= oy <= 5 and 3 <= ox <= 5) for oy, ox in offsets]
        assert 0 < sum(blank) < len(imgs)
        for img, got, f, o, empty in zip(imgs, out, flips, offsets, blank):
            np.testing.assert_array_equal(got, augment_oracle(img, *f, *o, pad=4))
            assert (not got.any()) == empty


class TestSplit:
    def test_stratified_counts(self):
        ds = make_blobs(n_per_class=60, n_classes=3)
        tr, va = split(ds, 5, 1, seed=0)
        # round(60 * 5/6) = 50 per class
        for c in range(3):
            assert int((tr.labels == c).sum()) == 50
            assert int((va.labels == c).sum()) == 10

    def test_disjoint_union_preserves_samples(self):
        ds = make_blobs(n_per_class=30, n_classes=3)
        tr, va = split(ds, 2, 1, seed=3)
        assert len(tr) + len(va) == len(ds)
        key = ds.images.reshape(len(ds), -1)
        merged = np.concatenate([tr.images, va.images]).reshape(len(ds), -1)
        order_a = np.lexsort(key.T)
        order_b = np.lexsort(merged.T)
        np.testing.assert_array_equal(key[order_a], merged[order_b])

    def test_deterministic(self):
        ds = make_blobs(n_per_class=20)
        a_tr, a_va = split(ds, 5, 1, seed=12)
        b_tr, b_va = split(ds, 5, 1, seed=12)
        np.testing.assert_array_equal(a_tr.images, b_tr.images)
        np.testing.assert_array_equal(a_va.labels, b_va.labels)

    def test_seed_changes_assignment(self):
        ds = make_blobs(n_per_class=40)
        a_tr, _ = split(ds, 1, 1, seed=0)
        b_tr, _ = split(ds, 1, 1, seed=1)
        assert not np.array_equal(a_tr.images, b_tr.images)

    def test_bad_ratio_rejected(self):
        ds = make_blobs(n_per_class=10)
        with pytest.raises(DataError):
            split(ds, 0, 1)
        with pytest.raises(DataError):
            split(ds, 5, 0)

    def test_too_small_dataset_rejected(self):
        # round(1 * 5/6) = 1: both rows go to train
        ds = make_blobs(n_per_class=1, n_classes=2)
        with pytest.raises(DataError, match="leaves the valid part empty"):
            split(ds, 5, 1)

    def test_fewer_rows_than_ratio_parts_can_split(self):
        # 6 rows split 5:2: round(2 * 5/7) = 1 train row per class
        ds = make_blobs(n_per_class=2, n_classes=3)
        tr, va = split(ds, 5, 2)
        assert tr.labels.tolist() == va.labels.tolist() == [0, 1, 2]

    def test_rounding_that_empties_a_part_is_named(self):
        # round(1 * 1/2) rounds half to even: 0 train rows in either class
        ds = make_blobs(n_per_class=1, n_classes=2)
        with pytest.raises(DataError, match=r"split 1:1 leaves the train part "
                           r"empty .*samples per class: \{0: 1, 1: 1\}"):
            split(ds, 1, 1)


class TestMakeBlobs:
    def test_shapes_and_types(self):
        ds = make_blobs(n_per_class=7, n_classes=3, shape=(3, 8, 8))
        assert ds.images.shape == (21, 3, 8, 8)
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(np.unique(ds.labels), [0, 1, 2])

    def test_values_clipped_to_unit_interval(self):
        ds = make_blobs(n_per_class=50, noise=2.0, seed=0)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_deterministic_per_seed(self):
        a = make_blobs(seed=5)
        b = make_blobs(seed=5)
        c = make_blobs(seed=6)
        np.testing.assert_array_equal(a.images, b.images)
        assert not np.array_equal(a.images, c.images)

    @pytest.mark.parametrize("n_per_class,n_classes,shape,noise", [
        *((n, 3, (3, 8, 8), noise) for n in (1, 5, 200)
          for noise in (0.0, 0.08, 2.0)),
        (5, 2, (1, 4, 4), 0.08),
    ])
    def test_matches_the_per_class_recipe(self, n_per_class, n_classes, shape,
                                          noise):
        for seed in range(5):
            ds = make_blobs(n_per_class=n_per_class, n_classes=n_classes,
                            shape=shape, noise=noise, seed=seed)
            images, labels = blobs_oracle(n_per_class, n_classes, shape,
                                          noise, seed)
            assert ds.images.dtype == images.dtype
            assert ds.labels.dtype == labels.dtype
            np.testing.assert_array_equal(ds.images, images)
            np.testing.assert_array_equal(ds.labels, labels)

    def test_classes_are_linearly_separated_enough(self):
        # class means should differ far more than the noise floor
        ds = make_blobs(n_per_class=100, noise=0.05, seed=1)
        means = [ds.images[ds.labels == c].mean(axis=0) for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                gap = np.abs(means[i] - means[j]).max()
                assert gap > 0.1


class TestLoadCifar10:
    def test_round_trip_single_file(self, tmp_path):
        pixels = (np.arange(3072) % 256).astype(np.uint8)
        path = tmp_path / "one.bin"
        write_records(path, [(3, pixels)])
        with pytest.raises(DataError):
            load_cifar10(path, 1)  # other classes missing
        # fill in the rest
        records = [(3, pixels)] + [
            (label, np.zeros(3072, dtype=np.uint8))
            for label in range(10) if label != 3
        ]
        write_records(path, records)
        ds = load_cifar10(path, 1)
        assert len(ds) == 10
        assert ds.class_names == CIFAR10_CLASSES
        row = ds.images[ds.labels == 3][0]
        np.testing.assert_allclose(
            row, pixels.reshape(3, 32, 32).astype(np.float32) / 255, rtol=1e-7)

    def test_per_class_quota_respected(self, tmp_path):
        path = cifar_file(tmp_path, n_per_class=3)
        ds = load_cifar10(path, 2)
        assert len(ds) == 20
        for c in range(10):
            assert int((ds.labels == c).sum()) == 2

    def test_directory_of_batches(self, tmp_path):
        rng = np.random.default_rng(0)
        # split classes across two files
        write_records(tmp_path / "a.bin", [
            (label, rng.integers(0, 256, 3072, dtype=np.uint8))
            for label in range(5)])
        write_records(tmp_path / "b.bin", [
            (label, rng.integers(0, 256, 3072, dtype=np.uint8))
            for label in range(5, 10)])
        ds = load_cifar10(tmp_path, 1)
        assert len(ds) == 10

    def test_matches_per_record_reference(self, tmp_path):
        # reference: walk the records one at a time, keep each while its
        # class is short, stop after the file that fills every class
        def per_record(files, n_per_class):
            images, labels, counts = [], [], [0] * 10
            for f in files:
                raw = f.read_bytes()
                for offset in range(0, len(raw), RECORD_BYTES):
                    label = raw[offset]
                    if counts[label] < n_per_class:
                        counts[label] += 1
                        pixels = np.frombuffer(raw, np.uint8, 3072, offset + 1)
                        images.append(pixels.reshape(3, 32, 32)
                                      .astype(np.float32) / np.float32(255))
                        labels.append(label)
                if min(counts) >= n_per_class:
                    break
            return np.stack(images), np.array(labels)

        rng = np.random.default_rng(5)
        for name, n in (("a.bin", 25), ("b.bin", 40)):
            write_records(tmp_path / name, [
                (int(label), rng.integers(0, 256, 3072, dtype=np.uint8))
                for label in rng.integers(0, 10, size=n)])
        # a and b fill every class at quota 2, so c (invalid) is never read
        write_records(tmp_path / "c.bin", [(200, np.zeros(3072, np.uint8))])
        files = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for quota in (1, 2):
            ds = load_cifar10(tmp_path, quota)
            images, labels = per_record(files, quota)
            assert ds.images.tobytes() == images.tobytes()
            assert np.array_equal(ds.labels, labels)

    def test_truncated_record_reports_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        good = bytes([0]) + bytes(3072)
        with open(path, "wb") as fh:
            fh.write(good)
            fh.write(b"\x01\x02\x03")
        with pytest.raises(DataError, match=r"byte offset 3073"):
            load_cifar10(path, 1)

    def test_invalid_label_byte(self, tmp_path):
        path = tmp_path / "bad_label.bin"
        write_records(path, [(0, np.zeros(3072, dtype=np.uint8))])
        with open(path, "ab") as fh:
            fh.write(bytes([200]) + bytes(3072))
        with pytest.raises(DataError, match="label byte 200"):
            load_cifar10(path, 1)

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_cifar10(tmp_path / "nope.bin", 1)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataError, match=r"no \.bin"):
            load_cifar10(tmp_path, 1)

    def test_short_class_listed(self, tmp_path):
        # class 9 never appears
        records = [(label, np.zeros(3072, dtype=np.uint8)) for label in range(9)]
        path = tmp_path / "short.bin"
        write_records(path, records)
        with pytest.raises(DataError, match=r"\[9\]"):
            load_cifar10(path, 1)

    def test_bad_quota(self, tmp_path):
        path = cifar_file(tmp_path)
        with pytest.raises(DataError, match="n_per_class"):
            load_cifar10(path, 0)
