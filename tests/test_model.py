import re
import struct
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duoadapt.autodiff import Adam, Tensor, conv_stack
from duoadapt.data import Dataset
from duoadapt.losses import cross_entropy_hard
from duoadapt.model import (Checkpoint, CheckpointFormatError, ConvExtractor,
                            DenseStack, DomainWiseModel,
                            ExtractorNotPretrained, MlpExtractor, ModelConfig,
                            RdaBlock, build_models, classifier_logits, ensemble_predict,
                            extract, load_checkpoint, named_buffers,
                            parameter_groups, rda_forward, save_checkpoint)
from duoadapt.train import TrainConfig, pretrain_contrastive


def _small_models(seed=0, n_classes=3, in_dim=6, feature_dim=8,
                  rda_hidden=(12, 8, 12)):
    gs = MlpExtractor(in_dim, np.random.default_rng(seed), hidden=(16,),
                      feature_dim=feature_dim, proj_dim=4)
    gt = MlpExtractor(in_dim, np.random.default_rng(seed), hidden=(16,),
                      feature_dim=feature_dim, proj_dim=4)
    for g in (gs, gt):
        g.freeze()
        g.pretrained = True
    return build_models(ModelConfig(rda_hidden=rda_hidden, clf_hidden=(10, 8)),
                        n_classes, gs, gt, seed + 1)


def test_rda_identity_channel_returns_same_object():
    block = RdaBlock(5, "source", np.random.default_rng(0), hidden=(8, 8, 8), dropout_p=0.1)
    z = Tensor(np.random.default_rng(1).standard_normal((4, 5)))
    assert rda_forward(block, z, "source", "train") is z


def test_rda_cross_domain_is_identity_at_init():
    # The residual path ends in a zero-initialized linear layer, so a fresh
    # block maps cross-domain features through unchanged (values, not object).
    block = RdaBlock(5, "source", np.random.default_rng(0), hidden=(8, 8, 8), dropout_p=0.1)
    z = Tensor(np.random.default_rng(1).standard_normal((4, 5)))
    out = rda_forward(block, z, "target", "eval")
    assert out is not z
    assert np.array_equal(out.data, z.data)


def test_rda_rejects_wrong_feature_dim():
    block = RdaBlock(5, "source", np.random.default_rng(0), hidden=(8,), dropout_p=0.1)
    with pytest.raises(ValueError, match="feature dim"):
        rda_forward(block, Tensor(np.zeros((2, 6))), "target", "eval")


def test_rda_rejects_bad_domain():
    with pytest.raises(ValueError, match="domain"):
        RdaBlock(5, "both", np.random.default_rng(0), hidden=(8,), dropout_p=0.1)


def test_extract_requires_pretraining():
    gs = MlpExtractor(6, np.random.default_rng(0), hidden=(8,), feature_dim=8,
                      proj_dim=4)
    gt = MlpExtractor(6, np.random.default_rng(0), hidden=(8,), feature_dim=8,
                      proj_dim=4)
    ms, _ = build_models(ModelConfig(rda_hidden=(8,), clf_hidden=(8,)), 2, gs, gt, 0)
    with pytest.raises(ExtractorNotPretrained):
        extract(ms, Tensor(np.zeros((2, 6))), "source")


def test_extract_is_constant_wrt_tape():
    ms, _ = _small_models()
    z = extract(ms, Tensor(np.random.default_rng(2).standard_normal((4, 6))),
                "source")
    assert not z.requires_grad


def test_conv_features_are_two_graph_nodes_under_unchanged_names():
    rng = np.random.default_rng(3)
    g = ConvExtractor(rng, channels=(2, 3, 4), feature_dim=5, proj_dim=2)
    out = g.features(Tensor(rng.standard_normal((3, 1, 32, 32))))
    assert out.shape == (3, 5)
    ops, pending = [], [out]
    while pending:
        t = pending.pop()
        if t._backward is not None:
            ops.append(t._op)
            pending.extend(t._parents)
    assert sorted(ops) == ["conv_stack", "linear"]
    # checkpoints name the blocks' tensors and buffers as before
    names = set(g.named_parameters("Gs")) | set(g.named_buffers("Gs"))
    assert {f"Gs.convs{i}.weight" for i in range(3)} <= names
    assert {f"Gs.bns{i}.{name}" for i in range(3)
            for name in ("gamma", "beta", "running_mean", "running_var")} <= names


@pytest.mark.parametrize("kind", ["mlp", "conv_stack"])
def test_a_projection_is_one_linear_node_over_the_extractor(kind):
    # an MLP projection is one "linear" node over the input; a conv
    # projection is one over the conv_stack node (the FC, proj1, its ReLU
    # and proj2); either equals the one-node-per-layer composition
    rng = np.random.default_rng(4)
    if kind == "mlp":
        g = MlpExtractor(6, rng, hidden=(16,), feature_dim=8, proj_dim=4)
        x = Tensor(rng.standard_normal((5, 6)))
    else:
        g = ConvExtractor(rng, channels=(2, 3, 4), feature_dim=5, proj_dim=2)
        x = Tensor(rng.standard_normal((3, 1, 32, 32)))
    out = g.project(x)
    ops, pending = [], [out]
    while pending:
        t = pending.pop()
        if t._backward is not None:
            ops.append(t._op)
            pending.extend(t._parents)
    assert ops == (["linear"] if kind == "mlp" else ["linear", "conv_stack"])
    assert out._parents[-4:] == (g.proj1.weight, g.proj1.bias,
                                 g.proj2.weight, g.proj2.bias)
    h = (g.features(x) @ g.proj1.weight + g.proj1.bias).relu()
    layered = h @ g.proj2.weight + g.proj2.bias
    assert np.array_equal(out.data, layered.data)


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
    """For the two extractors built here (an mlp with ``feature_dim=32``
    over 200 rows, and a conv extractor with channels (4, 8, 16) and
    ``feature_dim=16`` over 10 images), the features of any subset of two
    or more rows, in any order, equal the same rows of the whole-set
    features bit for bit. A single row takes BLAS's matrix-vector path and
    may differ in the last bit.

    Training does not rest on this for other shapes: it extracts whole sets
    only and reads every batch as rows of those features. At the CLI's conv
    shape (the default channels and ``feature_dim=32``), the FC's
    ``(n, 2048) @ (2048, 32)`` product can differ in the last bit for fewer
    than 16 rows."""
    g, x, whole = _extractor_and_features(kind)
    rows = data.draw(st.lists(st.integers(0, len(x) - 1), min_size=2,
                              max_size=len(x), unique=True))
    assert np.array_equal(g.features(Tensor(x[rows])).data, whole[rows])


@lru_cache(maxsize=None)
def _pretrained_conv_extractor():
    """A ``ConvExtractor`` with the default channels and ``feature_dim=32``
    after one pretraining step, and 80 images."""
    rng = np.random.default_rng(7)
    g = ConvExtractor(rng, feature_dim=32, proj_dim=64)
    x = rng.random((80, 1, 32, 32))
    cfg = TrainConfig(pretrain_epochs=1, batch_size=32)
    pretrain_contrastive(g, Dataset(Tensor(x[:32]), None, "source"), cfg,
                         rng=np.random.default_rng(cfg.seed))
    return g, x


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 65, 80])
def test_frozen_conv_features_equal_one_whole_set_pass(n):
    """A frozen pass runs conv_stack over chunks of rows and the FC once
    over all of them; the features equal one unchunked pass (a recorded
    node, which conv_stack does not chunk) bit for bit, for sets within one
    chunk, of whole chunks and with a short last one."""
    g, x = _pretrained_conv_extractor()
    h = conv_stack(Tensor(x[:n], requires_grad=True), zip(g.convs, g.bns), "eval")
    whole = (h @ g.fc.weight + g.fc.bias).data
    out = g.features(Tensor(x[:n]))
    assert not out.requires_grad
    assert np.array_equal(out.data, whole)


@pytest.mark.parametrize("leaf", ["input", "conv weight"])
def test_pretrained_conv_features_record_the_graph_to_a_leaf_that_requires_grad(leaf):
    g, x = _pretrained_conv_extractor()
    frozen = g.features(Tensor(x[:33])).data
    xt = Tensor(x[:33], requires_grad=leaf == "input")
    w = g.convs[0].weight
    w.requires_grad = leaf == "conv weight"
    try:
        out = g.features(xt)
        # one conv_stack node over the whole input, not chunks cut off the graph
        assert out._op == "linear" and out._parents[0]._op == "conv_stack"
        assert out._parents[0]._parents[0] is xt
        assert np.array_equal(out.data, frozen)
        out.sum().backward()
        grad = xt.grad if leaf == "input" else w.grad
        assert grad is not None and np.any(grad != 0.0)
    finally:
        w.requires_grad, w.grad = False, None


@pytest.mark.parametrize("kind", ["mlp", "conv_stack"])
def test_frozen_features_of_no_rows_are_an_empty_batch(kind):
    rng = np.random.default_rng(8)
    if kind == "mlp":
        g = MlpExtractor(6, rng, hidden=(16,), feature_dim=8, proj_dim=4)
        x = Tensor(np.zeros((0, 6)))
    else:
        g = ConvExtractor(rng, channels=(2, 3, 4), feature_dim=8, proj_dim=4)
        x = Tensor(np.zeros((0, 1, 32, 32)))
    g.mark_pretrained()
    out = g.features(x)
    assert out.shape == (0, 8) and not out.requires_grad


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
    clf = DenseStack(4, 3, np.random.default_rng(5), (8,), 0.1)
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
    # every proper prefix, those that end inside the version included
    arrays = {"Ms.Cs.out.bias": np.ones(3), "buffer:x": np.zeros((2, 1))}
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, Checkpoint(epoch=0, reward=0.0, config_hash="abc",
                                     arrays=arrays))
    raw = path.read_bytes()
    for end in range(len(raw)):
        path.write_bytes(raw[:end])
        with pytest.raises(CheckpointFormatError, match=f"^{path}: "):
            load_checkpoint(path)


def test_load_checkpoint_rejects_another_version(tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, Checkpoint.capture(*_small_models(), epoch=0, reward=0.5))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<H", 2) + raw[6:])
    with pytest.raises(CheckpointFormatError, match=re.escape(
            f"{path}: unsupported checkpoint version 2 (expected 1)")):
        load_checkpoint(path)


def test_load_checkpoint_rejects_a_repeated_tensor_naming_it(tmp_path):
    # two names of one length, the second renamed in the file to the first:
    # a well-formed container whose last copy would otherwise win
    arrays = {"Ms.Cs.out.bias": np.ones(3), "Ms.Cs.out.biaz": np.full(3, 2.0)}
    path = tmp_path / "twice.ckpt"
    save_checkpoint(path, Checkpoint(epoch=0, reward=0.0, config_hash="abc",
                                     arrays=arrays))
    path.write_bytes(path.read_bytes().replace(b"Ms.Cs.out.biaz", b"Ms.Cs.out.bias"))
    with pytest.raises(CheckpointFormatError, match=re.escape(
            f"{path}: tensor 'Ms.Cs.out.bias' appears more than once")):
        load_checkpoint(path)


@pytest.mark.parametrize("name, value, where", [
    ("Ms.Cs.out.weight", np.nan, "tensor 'Ms.Cs.out.weight'"),
    ("buffer:Mt.Ft.bns0.running_var", np.inf, "tensor 'buffer:Mt.Ft.bns0.running_var'"),
    (None, -np.inf, "the reward")])
def test_load_checkpoint_rejects_a_non_finite_value_naming_it(tmp_path, name,
                                                               value, where):
    ckpt = Checkpoint.capture(*_small_models(), epoch=0, reward=0.5)
    if name is None:
        ckpt.reward = value
    else:
        ckpt.arrays[name].flat[0] = value
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(CheckpointFormatError,
                       match=re.escape(f"{path}: non-finite value {value} in {where}")):
        load_checkpoint(path)


def test_build_models_deterministic():
    a = Checkpoint.capture(*_small_models(seed=11), epoch=0, reward=0.0)
    b = Checkpoint.capture(*_small_models(seed=11), epoch=0, reward=0.0)
    for name in a.arrays:
        assert a.arrays[name].tobytes() == b.arrays[name].tobytes()


def test_build_models_rejects_extractors_of_different_feature_dims():
    gs, gt = (MlpExtractor(6, np.random.default_rng(0), hidden=(16,),
                           feature_dim=dim, proj_dim=4) for dim in (8, 9))
    with pytest.raises(ValueError, match="extractor feature dims differ"):
        build_models(ModelConfig(rda_hidden=(12,), clf_hidden=(10,)), 3, gs, gt, 1)
