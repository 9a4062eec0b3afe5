import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duoadapt.autodiff import Tensor
from duoadapt.data import (Dataset, DatasetFormatError, PdaTaskSpec,
                           augment_pair, gen_synthetic_pda, load_dataset,
                           save_dataset, spectrogram_ingest)


def test_spec_rejects_bad_target_subset():
    with pytest.raises(ValueError, match="subset"):
        PdaTaskSpec(source_classes=3, target_classes=(0, 5))
    with pytest.raises(ValueError, match="subset"):
        PdaTaskSpec(source_classes=3, target_classes=())


@pytest.mark.parametrize("call, message", [
    (lambda: PdaTaskSpec(seed=-1), "task.seed must be at least 0, got -1"),
    (lambda: Dataset(Tensor(np.zeros((2, 3))), [0, 1, 0], "source"),
     "labels length does not match inputs"),
    (lambda: Dataset(Tensor(np.zeros((2, 3))), [[0], [1]], "source"),
     "2 rows, labels of shape (2, 1)"),
], ids=["negative-task-seed", "one-label-too-many", "two-d-labels"])
def test_out_of_range_values_raise(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_labels_are_one_int64_array_wherever_they_come_from(tmp_path):
    listed = Dataset(Tensor(np.zeros((3, 2))), [2, 0, 1], "source")
    source, target, eval_target = gen_synthetic_pda(
        PdaTaskSpec(samples_per_class=3, dim=4))
    save_dataset(tmp_path / "s.ds", source)
    loaded = load_dataset(tmp_path / "s.ds")
    for ds in (listed, source, eval_target, loaded):
        assert isinstance(ds.labels, np.ndarray) and ds.labels.dtype == np.int64
    assert np.array_equal(listed.labels, [2, 0, 1])
    assert np.array_equal(loaded.labels, source.labels)
    assert target.labels is None
    # an int64 array is kept, not copied
    assert Dataset(source.inputs, source.labels, "source").labels is source.labels


def test_labels_must_be_integers():
    # floats, bools and strings are rejected rather than truncated to int64
    x = Tensor(np.zeros((2, 3)))
    for labels, dtype in (([0.5, 1.7], "float64"), ([True, False], "bool"),
                          (["0", "1"], "<U1")):
        with pytest.raises(ValueError, match=re.escape(
                f"labels must be integers, got dtype {dtype}; row 0 holds {labels[0]!r}")):
            Dataset(x, labels, "source")
    for labels in ([1, 0], np.array([1, 0], dtype=np.int32),
                   np.array([1, 0], dtype=np.uint8)):
        ds = Dataset(x, labels, "source")
        assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, [1, 0])
    assert Dataset(Tensor(np.zeros((0, 3))), [], "source").labels.dtype == np.int64


def test_spec_sorts_and_dedupes_target_classes():
    spec = PdaTaskSpec(source_classes=4, target_classes=(2, 0, 2))
    assert spec.target_classes == (0, 2)


def test_generated_shapes_and_label_coverage():
    spec = PdaTaskSpec(source_classes=4, target_classes=(0, 1),
                       samples_per_class=10, dim=6, seed=0)
    source, target, eval_target = gen_synthetic_pda(spec)
    assert source.inputs.shape == (40, 6)
    assert sorted(set(source.labels)) == [0, 1, 2, 3]
    assert target.labels is None
    assert target.inputs.shape == (20, 6)
    assert eval_target.inputs.shape == (20, 6)
    assert sorted(set(eval_target.labels)) == [0, 1]
    assert np.array_equal(target.inputs.data, eval_target.inputs.data)


def test_generation_is_deterministic_per_seed():
    spec = PdaTaskSpec(samples_per_class=5, seed=42)
    a = gen_synthetic_pda(spec)
    b = gen_synthetic_pda(spec)
    for da, db in zip(a, b):
        assert da.inputs.data.tobytes() == db.inputs.data.tobytes()
    c = gen_synthetic_pda(PdaTaskSpec(samples_per_class=5, seed=43))
    assert a[0].inputs.data.tobytes() != c[0].inputs.data.tobytes()


def test_class_means_are_separated():
    spec = PdaTaskSpec(source_classes=4, target_classes=(0,),
                       samples_per_class=50, dim=8, class_separation=3.0,
                       seed=1)
    source, _, _ = gen_synthetic_pda(spec)
    x = source.inputs.data
    y = np.asarray(source.labels)
    centroids = np.stack([x[y == c].mean(axis=0) for c in range(4)])
    # orthonormal directions scaled by 3 -> pairwise distance ~ 3*sqrt(2)
    for i in range(4):
        for j in range(i + 1, 4):
            d = np.linalg.norm(centroids[i] - centroids[j])
            assert abs(d - 3.0 * np.sqrt(2)) < 0.5


def test_zero_shift_target_matches_source_distribution():
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=300, seed=2)
    source, _, eval_target = gen_synthetic_pda(spec)
    sx, sy = source.inputs.data, np.asarray(source.labels)
    tx, ty = eval_target.inputs.data, np.asarray(eval_target.labels)
    for c in (0, 1):
        gap = np.linalg.norm(sx[sy == c].mean(axis=0) - tx[ty == c].mean(axis=0))
        assert gap < 0.5


def test_mean_offset_translates_target():
    base = dict(source_classes=2, target_classes=(0, 1), samples_per_class=100,
                dim=4, seed=3)
    _, plain, _ = gen_synthetic_pda(PdaTaskSpec(**base))
    _, shifted, _ = gen_synthetic_pda(PdaTaskSpec(mean_offset=(5.0, -2.0), **base))
    delta = shifted.inputs.data.mean(axis=0) - plain.inputs.data.mean(axis=0)
    assert np.allclose(delta, [5.0, -2.0, 0.0, 0.0], atol=1e-9)


def test_rotation_preserves_norms_and_last_coords():
    base = dict(source_classes=2, target_classes=(0, 1), samples_per_class=50,
                dim=5, seed=4)
    _, plain, _ = gen_synthetic_pda(PdaTaskSpec(**base))
    _, rotated, _ = gen_synthetic_pda(PdaTaskSpec(rotation_angle=0.7, **base))
    assert np.allclose(np.linalg.norm(rotated.inputs.data, axis=1),
                       np.linalg.norm(plain.inputs.data, axis=1), atol=1e-9)
    assert np.allclose(rotated.inputs.data[:, 2:], plain.inputs.data[:, 2:],
                       atol=1e-9)


def test_scale_shift():
    base = dict(source_classes=2, target_classes=(0, 1), samples_per_class=50,
                dim=4, seed=5)
    _, plain, _ = gen_synthetic_pda(PdaTaskSpec(**base))
    _, scaled, _ = gen_synthetic_pda(PdaTaskSpec(scale=2.0, **base))
    assert np.allclose(scaled.inputs.data, 2.0 * plain.inputs.data, atol=1e-9)


def test_image_mode_produces_normalized_spectrogram_batches():
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=3, input_kind="image", seed=6)
    source, target, _ = gen_synthetic_pda(spec)
    assert source.inputs.shape == (6, 1, 32, 32)
    assert target.inputs.shape == (6, 1, 32, 32)
    assert source.inputs.data.min() >= 0.0
    assert source.inputs.data.max() <= 1.0


def test_image_task_ignores_the_vector_keys():
    # an image task draws only tone bursts: task.dim, task.mean_offset,
    # task.scale and the vector stream neither bound nor change it
    base = dict(source_classes=3, target_classes=(0, 2), samples_per_class=2,
                input_kind="image", seed=4)
    plain = gen_synthetic_pda(PdaTaskSpec(**base))
    other = gen_synthetic_pda(PdaTaskSpec(dim=1, mean_offset=(1.0, 2.0), scale=3.0,
                                          class_separation=9.0, **base))
    for a, b in zip(plain, other):
        assert a.inputs.data.tobytes() == b.inputs.data.tobytes()
        assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("changes, domain, label", [
    (dict(source_classes=9), "source", 8),
    (dict(target_classes=(0, 7), rotation_angle=4.5), "target", 7),
    (dict(rotation_angle=-4.5), "target", 0)])
def test_image_task_carriers_stay_below_half_a_cycle_per_sample(changes, domain,
                                                                 label):
    base = dict(source_classes=8, samples_per_class=2, input_kind="image")
    PdaTaskSpec(**base)
    with pytest.raises(ValueError, match=f"^task.source_classes=.*: image {domain} "
                                         f"class {label} gets a tone carrier"):
        PdaTaskSpec(**{**base, **changes})


# -- spectrogram ingest -------------------------------------------------------

def test_spectrogram_output_range_and_shape():
    rng = np.random.default_rng(7)
    sig = rng.standard_normal((4, 512))
    out = spectrogram_ingest(Tensor(sig))
    assert out.shape == (4, 1, 32, 32)
    for i in range(4):
        assert out.data[i].min() == 0.0
        assert out.data[i].max() == 1.0


def test_spectrogram_all_zero_signal_guard():
    out = spectrogram_ingest(Tensor(np.zeros((2, 256))))
    assert np.array_equal(out.data, np.zeros((2, 1, 32, 32)))


def test_spectrogram_batch_rows_equal_each_signal_ingested_alone():
    # the all-zero row needs the per-sample flat-image guard inside a batch
    # whose other rows are scaled
    t = np.arange(512)
    rng = np.random.default_rng(3)
    sig = np.stack([np.sin(2 * np.pi * 0.1 * t), np.zeros(512),
                    rng.standard_normal(512)])
    out = spectrogram_ingest(Tensor(sig)).data
    assert np.array_equal(out[1], np.zeros((1, 32, 32)))
    assert out[0].max() == 1.0
    for i in range(len(sig)):
        alone = spectrogram_ingest(Tensor(sig[i:i + 1])).data
        assert np.array_equal(out[i], alone[0])


def test_spectrogram_tone_peak_frequency_ordering():
    # Higher-frequency carriers should put their energy in higher image rows.
    t = np.arange(1024)
    lo = np.sin(2 * np.pi * 0.05 * t)
    hi = np.sin(2 * np.pi * 0.30 * t)
    out = spectrogram_ingest(Tensor(np.stack([lo, hi]))).data
    row_lo = out[0, 0].sum(axis=1).argmax()
    row_hi = out[1, 0].sum(axis=1).argmax()
    assert row_hi > row_lo


def test_spectrogram_rejects_bad_args():
    with pytest.raises(ValueError, match="length 16 are shorter than the 64-sample"):
        spectrogram_ingest(Tensor(np.zeros((2, 16))))
    with pytest.raises(ValueError, match="expected n x L signals"):
        spectrogram_ingest(Tensor(np.zeros(64)))


# -- augmentation -------------------------------------------------------------

def test_augment_pair_returns_the_batch_and_one_view():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((10, 6)))
    batch, view = augment_pair(x, np.random.default_rng(9))
    assert batch is x
    assert view.shape == x.shape
    assert not np.array_equal(view.data, x.data)


def test_augment_is_deterministic_given_rng_state():
    x = Tensor(np.random.default_rng(10).standard_normal((5, 4)))
    a = augment_pair(x, np.random.default_rng(11))
    b = augment_pair(x, np.random.default_rng(11))
    assert a[0].data.tobytes() == b[0].data.tobytes()
    assert a[1].data.tobytes() == b[1].data.tobytes()


@pytest.mark.parametrize("shape", [(6, 5), (3, 1, 4, 4)])
def test_augment_pair_draw_order(shape):
    # all the noise, then one amplitude per row
    x = Tensor(np.random.default_rng(16).standard_normal(shape))
    _, view = augment_pair(x, np.random.default_rng(17))
    rng = np.random.default_rng(17)
    rows = (shape[0],) + (1,) * (len(shape) - 1)
    want = (x.data + 0.1 * rng.standard_normal(shape)) * rng.uniform(0.8, 1.2, rows)
    assert view.data.tobytes() == want.tobytes()


# -- container I/O ------------------------------------------------------------

def test_dataset_roundtrip_byte_exact(tmp_path):
    rng = np.random.default_rng(15)
    ds = Dataset(Tensor(rng.standard_normal((7, 5))), [0, 1, 2, 0, 1, 2, 0],
                 "source")
    path = tmp_path / "d.ds"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert loaded.inputs.data.tobytes() == ds.inputs.data.tobytes()
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.domain == "source"
    path2 = tmp_path / "d2.ds"
    save_dataset(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_roundtrip_unlabeled_image(tmp_path):
    ds = Dataset(Tensor(np.random.default_rng(16).random((3, 1, 8, 8))),
                 None, "target")
    path = tmp_path / "u.ds"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert loaded.labels is None
    assert loaded.inputs.shape == (3, 1, 8, 8)
    assert loaded.inputs.data.tobytes() == ds.inputs.data.tobytes()


def test_load_dataset_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ds"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DatasetFormatError, match="not a dataset"):
        load_dataset(path)


def test_load_dataset_rejects_truncation(tmp_path):
    # every proper prefix, those that end inside the version included
    ds = Dataset(Tensor(np.ones((4, 3))), [0, 2, 1, 0], "source")
    path = tmp_path / "t.ds"
    save_dataset(path, ds)
    raw = path.read_bytes()
    for end in range(len(raw)):
        path.write_bytes(raw[:end])
        with pytest.raises(DatasetFormatError, match=f"^{path}: "):
            load_dataset(path)


def test_load_dataset_rejects_trailing_bytes(tmp_path):
    ds = Dataset(Tensor(np.ones((2, 2))), None, "source")
    path = tmp_path / "x.ds"
    save_dataset(path, ds)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DatasetFormatError, match="trailing or truncated"):
        load_dataset(path)


def test_load_dataset_rejects_a_domain_tag_that_is_not_utf8(tmp_path):
    path = tmp_path / "u.ds"
    save_dataset(path, Dataset(Tensor(np.ones((2, 2))), None, "source"))
    path.write_bytes(path.read_bytes().replace(b"source", b"\xffource"))
    with pytest.raises(DatasetFormatError, match=f"^{path}: .*utf-8"):
        load_dataset(path)


def test_load_dataset_rejects_negative_labels(tmp_path):
    path = tmp_path / "n.ds"
    save_dataset(path, Dataset(Tensor(np.ones((3, 2))), [0, -2, 1], "source"))
    with pytest.raises(DatasetFormatError,
                       match=f"{path}: negative label -2 in row 1"):
        load_dataset(path)


@pytest.mark.parametrize("flag", [2, 255])
def test_load_dataset_rejects_a_labels_flag_other_than_0_or_1(tmp_path, flag):
    # byte 6 is the labels flag; any nonzero value used to read as labeled
    path = tmp_path / "f.ds"
    save_dataset(path, Dataset(Tensor(np.ones((2, 2))), [0, 1], "source"))
    raw = path.read_bytes()
    path.write_bytes(raw[:6] + bytes([flag]) + raw[7:])
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"{path}: the labels flag (byte 6) is {flag}, not 0 or 1")):
        load_dataset(path)


def test_load_dataset_rejects_a_shape_with_no_row_dimension(tmp_path):
    path = tmp_path / "z.ds"
    # magic, version 1, no labels, ndim 0, then an empty domain tag
    path.write_bytes(b"DADS" + struct.pack("<HBBH", 1, 0, 0, 0))
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"{path}: a dataset needs a row dimension")):
        load_dataset(path)


def test_load_dataset_rejects_another_version(tmp_path):
    path = tmp_path / "v.ds"
    save_dataset(path, Dataset(Tensor(np.ones((2, 2))), [0, 1], "source"))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<H", 2) + raw[6:])
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"{path}: unsupported dataset version 2 (expected 1)")):
        load_dataset(path)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_roundtrip_property(tmp_path_factory, seed, labeled):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    d = int(rng.integers(1, 5))
    labels = rng.integers(0, 3, n).tolist() if labeled else None
    ds = Dataset(Tensor(rng.standard_normal((n, d))), labels, "target")
    path = tmp_path_factory.mktemp("rt") / "p.ds"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert loaded.inputs.data.tobytes() == ds.inputs.data.tobytes()
    assert np.array_equal(loaded.labels, ds.labels)
