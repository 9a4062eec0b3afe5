from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duoadapt.autodiff import Adam, Tensor
from duoadapt.losses import cross_entropy_hard
from duoadapt.model import (Checkpoint, CheckpointFormatError, ConvExtractor,
                            DomainClassifier, DomainWiseModel,
                            ExtractorNotPretrained, MlpExtractor, RdaBlock,
                            build_models, classifier_logits, ensemble_predict,
                            extract, load_checkpoint, named_buffers,
                            parameter_groups, rda_forward, save_checkpoint)


def _small_models(seed=0, n_classes=3, in_dim=6, feature_dim=8,
                  rda_hidden=(12, 8, 12)):
    gs = MlpExtractor(in_dim, np.random.default_rng(seed), hidden=(16,),
                      feature_dim=feature_dim, proj_dim=4)
    gt = MlpExtractor(in_dim, np.random.default_rng(seed), hidden=(16,),
                      feature_dim=feature_dim, proj_dim=4)
    for g in (gs, gt):
        g.freeze()
        g.pretrained = True
    return build_models(n_classes, gs, gt, seed=seed + 1,
                        rda_hidden=rda_hidden, clf_hidden=(10, 8))


def test_rda_identity_channel_returns_same_object():
    block = RdaBlock(5, "source", np.random.default_rng(0), hidden=(8, 8, 8))
    z = Tensor(np.random.default_rng(1).standard_normal((4, 5)))
    assert rda_forward(block, z, "source", "train") is z


def test_rda_cross_domain_is_identity_at_init():
    # The residual path ends in a zero-initialized linear layer, so a fresh
    # block maps cross-domain features through unchanged (values, not object).
    block = RdaBlock(5, "source", np.random.default_rng(0), hidden=(8, 8, 8))
    z = Tensor(np.random.default_rng(1).standard_normal((4, 5)))
    out = rda_forward(block, z, "target", "eval")
    assert out is not z
    assert np.array_equal(out.data, z.data)


def test_rda_rejects_wrong_feature_dim():
    block = RdaBlock(5, "source", np.random.default_rng(0), hidden=(8,))
    with pytest.raises(ValueError, match="feature dim"):
        rda_forward(block, Tensor(np.zeros((2, 6))), "target", "eval")


def test_rda_rejects_bad_domain():
    with pytest.raises(ValueError, match="domain"):
        RdaBlock(5, "both", np.random.default_rng(0))


def test_extract_requires_pretraining():
    gs = MlpExtractor(6, np.random.default_rng(0), hidden=(8,), feature_dim=8,
                      proj_dim=4)
    gt = MlpExtractor(6, np.random.default_rng(0), hidden=(8,), feature_dim=8,
                      proj_dim=4)
    ms, _ = build_models(2, gs, gt, seed=0, rda_hidden=(8,), clf_hidden=(8,))
    with pytest.raises(ExtractorNotPretrained):
        extract(ms, Tensor(np.zeros((2, 6))), "source")


def test_extract_is_constant_wrt_tape():
    ms, _ = _small_models()
    z = extract(ms, Tensor(np.random.default_rng(2).standard_normal((4, 6))),
                "source")
    assert not z.requires_grad


@lru_cache(maxsize=None)
def _extractor_and_features(kind):
    """A pretrained-marked extractor, a whole dataset and its features."""
    rng = np.random.default_rng(5)
    if kind == "mlp":
        g = MlpExtractor(8, rng, hidden=(64,), feature_dim=32, proj_dim=16)
        x = rng.standard_normal((200, 8))
    else:
        g = ConvExtractor(rng, channels=(4, 8, 16), feature_dim=16, proj_dim=8)
        x = rng.standard_normal((10, 1, 32, 32))
    g.mark_pretrained()
    return g, x, g.features(Tensor(x)).data


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["mlp", "conv_stack"]), st.data())
def test_extract_of_rows_equals_rows_of_whole_set_extraction(kind, data):
    """The interactive phase runs each frozen extractor once per dataset and
    reads every batch as rows of those features. Its trace.csv and best.ckpt
    are byte-identical to extracting each batch only because of this
    property: the features of any subset of rows, in any order, equal the
    same rows of the whole-set features bit for bit. It is checked for
    subsets of two or more rows, as every batch training draws has; a single
    row takes BLAS's matrix-vector path and may differ in the last bit."""
    g, x, whole = _extractor_and_features(kind)
    rows = data.draw(st.lists(st.integers(0, len(x) - 1), min_size=2,
                              max_size=len(x), unique=True))
    assert np.array_equal(g.features(Tensor(x[rows])).data, whole[rows])


def test_extract_routes_by_input_domain():
    ms, mt = _small_models()
    # same frozen extractors are shared by both models
    assert ms.extractor_s is mt.extractor_s
    assert ms.extractor_t is mt.extractor_t


def test_classifier_logits_shape():
    ms, _ = _small_models(n_classes=3)
    z = extract(ms, Tensor(np.random.default_rng(3).standard_normal((5, 6))),
                "source")
    out = classifier_logits(ms, z, "source", "eval")
    assert out.shape == (5, 3)


def test_ensemble_matches_manual_logit_sum():
    ms, mt = _small_models(n_classes=4)
    x = Tensor(np.random.default_rng(4).standard_normal((6, 6)))
    ids = ensemble_predict(ms, mt, x)
    z = extract(ms, x, "target")
    fused = (classifier_logits(ms, z, "target", "eval").data
             + classifier_logits(mt, z, "target", "eval").data)
    assert np.array_equal(ids, fused.argmax(axis=1))


def _entries(ms, mt):
    return {n: t for g in parameter_groups(ms, mt).values() for n, t in g.items()}


def test_parameter_groups_partition_and_prefixes():
    ms, mt = _small_models()
    groups = parameter_groups(ms, mt)
    prefix = {"eps_s": "Gs.", "eps_t": "Gt.", "phi_s": "Ms.Fs.",
              "phi_t": "Mt.Ft.", "theta_s": "Ms.Cs.", "theta_t": "Mt.Ct."}
    assert groups.keys() == prefix.keys()
    seen = set()
    for group, names in groups.items():
        assert names, f"empty group {group}"
        for name in names:
            assert name.startswith(prefix[group]), (group, name)
            assert name not in seen
            seen.add(name)
    # every tensor of the pair is in a group
    held = {id(t) for m in (ms, mt) for _, mod in m.walk()
            for t in vars(mod).values() if isinstance(t, Tensor)}
    assert held == {id(t) for g in groups.values() for t in g.values()}


def test_frozen_extractor_parameters_do_not_require_grad():
    ms, mt = _small_models()
    groups = parameter_groups(ms, mt)
    for group in ("eps_s", "eps_t"):
        for t in groups[group].values():
            assert not t.requires_grad
    for group in ("phi_s", "phi_t", "theta_s", "theta_t"):
        for t in groups[group].values():
            assert t.requires_grad


def test_classifier_emits_raw_logits():
    clf = DomainClassifier(4, 3, np.random.default_rng(5), hidden=(8,))
    out = clf(Tensor(np.random.default_rng(6).standard_normal((10, 4)) * 5), "eval")
    # raw logits: not constrained to the simplex
    assert not np.allclose(out.data.sum(axis=1), 1.0)


def test_named_buffers_cover_batch_norms():
    ms, mt = _small_models()
    buffers = named_buffers(ms, mt)
    assert any(k.startswith("Ms.Fs.") and "running_mean" in k for k in buffers)
    assert any(k.startswith("Mt.Ct.") and "running_var" in k for k in buffers)


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_roundtrip_is_byte_exact(tmp_path):
    ms, mt = _small_models(seed=7)
    ckpt = Checkpoint.capture(ms, mt, epoch=3, reward=0.875, config_hash="abc123")
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.epoch == 3
    assert loaded.reward == 0.875
    assert loaded.config_hash == "abc123"
    assert set(loaded.arrays) == set(ckpt.arrays)
    for name, arr in ckpt.arrays.items():
        assert loaded.arrays[name].tobytes() == arr.tobytes(), name

    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_restore_recovers_outputs(tmp_path):
    ms, mt = _small_models(seed=8)
    z = extract(ms, Tensor(np.random.default_rng(9).standard_normal((5, 6))),
                "target")
    before = classifier_logits(ms, z, "target", "eval").data.copy()
    ckpt = Checkpoint.capture(ms, mt, epoch=0, reward=0.0)

    rng = np.random.default_rng(10)
    for t in _entries(ms, mt).values():
        t.data += rng.standard_normal(t.data.shape) * 0.1
    assert not np.allclose(classifier_logits(ms, z, "target", "eval").data, before)

    ckpt.restore(ms, mt)
    assert np.array_equal(classifier_logits(ms, z, "target", "eval").data, before)


def test_no_writer_detaches_a_parameter_from_its_optimizer_buffer():
    ms, mt = _small_models(seed=12)
    z = extract(ms, Tensor(np.random.default_rng(13).standard_normal((6, 6))),
                "target")
    params = parameter_groups(ms, mt)["theta_s"]
    opt = Adam(params, 1e-2)

    def adam_step():
        for t in params.values():
            t.zero_grad()
        cross_entropy_hard(classifier_logits(ms, z, "target", "eval"),
                           [0, 1, 2, 0, 1, 2]).backward()
        opt.step()

    for _ in range(3):
        adam_step()
    ckpt = Checkpoint.capture(ms, mt, epoch=0, reward=0.0)
    adam_step()
    ckpt.restore(ms, mt)
    # the tensors the model reads are the ones the next update moves
    read = {name: t.data.copy()
            for name, t in ms.classifier.named_parameters("Ms.Cs").items()}
    assert read.keys() == params.keys()
    before = classifier_logits(ms, z, "target", "eval").data.copy()
    adam_step()
    moved = {name for name, t in ms.classifier.named_parameters("Ms.Cs").items()
             if not np.array_equal(t.data, read[name])}
    assert moved == set(params)
    assert not np.array_equal(classifier_logits(ms, z, "target", "eval").data, before)


@pytest.mark.parametrize("rda_hidden, message", [
    ((12, 8), "'Ms.Fs.bns2.beta' is not in the checkpoint"),
    ((12, 8, 12, 8), "'Ms.Fs.bns3.beta' is not in the model"),
    ((12, 9, 12),
     r"'Ms.Fs.fcs1.weight': checkpoint shape \(12, 9\) != model shape \(12, 8\)"),
])
def test_checkpoint_restore_is_strict(rda_hidden, message):
    ckpt = Checkpoint.capture(*_small_models(rda_hidden=rda_hidden),
                              epoch=0, reward=0.0)
    ms, mt = _small_models(seed=3)
    before = {n: t.data.copy() for n, t in _entries(ms, mt).items()}
    with pytest.raises(CheckpointFormatError, match=message):
        ckpt.restore(ms, mt)
    # a rejected checkpoint loads nothing
    for name, t in _entries(ms, mt).items():
        assert np.array_equal(t.data, before[name]), name


def test_load_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError, match="not a checkpoint"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_truncation(tmp_path):
    ms, mt = _small_models()
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, Checkpoint.capture(ms, mt, epoch=0, reward=0.0))
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_build_models_deterministic():
    a = Checkpoint.capture(*_small_models(seed=11), epoch=0, reward=0.0)
    b = Checkpoint.capture(*_small_models(seed=11), epoch=0, reward=0.0)
    for name in a.arrays:
        assert a.arrays[name].tobytes() == b.arrays[name].tobytes()
