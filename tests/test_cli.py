import configparser
import csv
import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from duoadapt import cli, model, train
from duoadapt.autodiff import Adam, Tensor
from duoadapt.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME,
                          ConfigError, load_config, main, metrics_report)
from duoadapt.data import Dataset, PdaTaskSpec, load_dataset, save_dataset
from duoadapt.train import ModelConfig, TrainConfig

FAST_OVERRIDES = [
    "task.samples_per_class=12",
    "task.source_classes=2",
    "task.target_classes=0,1",
    "task.class_separation=5.0",
    "train.pretrain_epochs=1",
    "train.epochs=2",
    "train.iters_per_step=2",
    "train.batch_size=16",
    "model.feature_dim=8",
    "model.mlp_hidden=16",
    "model.proj_dim=4",
    "model.rda_hidden=12,8,12",
    "model.clf_hidden=10,8",
]


def _fast_args(out_dir, extra=()):
    args = []
    for ov in FAST_OVERRIDES + [f"output.dir={out_dir}"] + list(extra):
        args += ["--set", ov]
    return args


# -- config loading -----------------------------------------------------------

def test_defaults_without_config_file():
    cfg = load_config(None, [])
    assert cfg.task.source_classes == 4
    assert cfg.task.target_classes == (0, 1)
    assert cfg.train.epochs == 10
    assert cfg.model.extractor == "mlp"
    assert cfg.n_seeds == 5
    assert len(cfg.config_hash) == 16


def test_config_file_and_override_precedence(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[train]\nepochs = 7\nbatch_size = 32\n")
    cfg = load_config(str(ini), ["train.epochs=3"])
    assert cfg.train.epochs == 3      # override beats file
    assert cfg.train.batch_size == 32  # file beats default


def test_config_rejects_unknowns(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[nosuch]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(str(ini), [])
    ini.write_text("[train]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(str(ini), [])
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, ["train.warp_speed=9"])
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(None, ["epochs:3"])


def test_config_rejects_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/exp.ini", [])


def test_config_hash_stability_and_sensitivity(tmp_path):
    a = load_config(None, [])
    b = load_config(None, [])
    assert a.config_hash == b.config_hash
    c = load_config(None, ["train.epochs=11"])
    assert c.config_hash != a.config_hash
    # a file spelling out a default and no file at all hash identically
    ini = tmp_path / "same.ini"
    ini.write_text("[train]\nepochs = 10\n")
    assert load_config(str(ini), []).config_hash == a.config_hash


def test_output_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("DUOADAPT_OUTPUT_ROOT", str(tmp_path))
    cfg = load_config(None, ["output.dir=runs/x"])
    assert cfg.output_dir == tmp_path / "runs" / "x"
    cfg_abs = load_config(None, [f"output.dir={tmp_path}/abs"])
    assert cfg_abs.output_dir == tmp_path / "abs"


def _config_keys():
    """Every key a config may set, as section.key."""
    return ({f"{sec}.{f.name}" for sec, cls in (("task", PdaTaskSpec),
                                                ("train", TrainConfig),
                                                ("model", ModelConfig))
             for f in fields(cls)}
            | {"output.dir", "study.n_seeds"})


def test_spellings_of_one_config_hash_alike():
    default = load_config(None, []).config_hash
    for overrides in (["train.learning_rate=0.001"], ["train.soft_pseudo=yes"],
                      ["train.soft_pseudo=ON"], ["task.target_classes=1,0"],
                      ["task.target_classes=0,1,1"], ["task.class_separation=3"],
                      ["model.rda_hidden=32, 16, 32"], ["model.mlp_hidden=64,"]):
        assert load_config(None, overrides).config_hash == default, overrides


# another valid value for every key; the extractor and the input kind are
# only valid together
OTHER_VALUES = [
    ["task.source_classes=3"], ["task.target_classes=0"],
    ["task.samples_per_class=100"], ["task.dim=9"],
    ["task.class_separation=2.5"], ["task.mean_offset=1.0"],
    ["task.rotation_angle=0.1"], ["task.scale=1.5"], ["task.noise_sigma=0.2"],
    ["task.seed=1"], ["train.pretrain_epochs=5"], ["train.temperature=0.7"],
    ["train.epochs=11"], ["train.iters_per_step=5"], ["train.learning_rate=1e-2"],
    ["train.batch_size=32"], ["train.desired_reward=0.9"], ["train.seed=1"],
    ["train.soft_pseudo=false"], ["model.feature_dim=16"],
    ["model.mlp_hidden=64,32"], ["model.proj_dim=8"], ["model.rda_hidden=32,32"],
    ["model.clf_hidden=32"], ["model.dropout_p=0.2"], ["output.dir=runs/other"],
    ["study.n_seeds=3"], ["task.input_kind=image", "model.extractor=conv_stack"],
]


def test_every_key_changes_the_hash():
    assert {ov.split("=")[0] for ovs in OTHER_VALUES for ov in ovs} == _config_keys()
    hashes = [load_config(None, ovs).config_hash for ovs in OTHER_VALUES]
    assert load_config(None, []).config_hash not in hashes
    assert len(set(hashes)) == len(hashes)


def test_readme_config_block_lists_every_key_and_hashes_like_no_file(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    ini = tmp_path / "readme.ini"
    ini.write_text("".join(line.split(";", 1)[0].rstrip() + "\n"
                           for line in block.splitlines()))
    parser = configparser.ConfigParser()
    parser.read(ini)
    assert {f"{sec}.{key}" for sec in parser.sections()
            for key in parser[sec]} == _config_keys()
    assert load_config(str(ini), []).config_hash == load_config(None, []).config_hash


@pytest.mark.parametrize("override", [
    "train.epochs=abc", "task.dim=8.0", "train.soft_pseudo=maybe",
    "model.rda_hidden=32,x,32", "task.target_classes=0;1",
    "train.learning_rate=nan", "task.scale=inf", "task.mean_offset=1,-inf"])
def test_a_value_that_does_not_parse_exits_2_naming_the_key(tmp_path, capsys,
                                                             override):
    args = ["--set", override, "--set", f"output.dir={tmp_path}"]
    assert main(args + ["gen-data"]) == EXIT_CONFIG
    key = override.split("=")[0]
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("text", ["epochs = 3\n",
                                  "[train]\nepochs = 3\nepochs = 4\n"])
def test_a_malformed_config_file_exits_2_naming_the_file(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    args = ["-c", str(ini), "--set", f"output.dir={tmp_path / 'out'}"]
    assert main(args + ["gen-data"]) == EXIT_CONFIG
    assert f"config error: {ini}: " in capsys.readouterr().err


def test_a_class_per_dimension_and_a_full_offset_generate(tmp_path):
    # the generator draws one orthogonal mean direction per class and adds
    # the offset to the leading coordinates: both may use every dimension
    args = [a for ov in ("task.source_classes=3", "task.dim=3",
                         "task.samples_per_class=2", "task.mean_offset=1,2,3",
                         f"output.dir={tmp_path}") for a in ("--set", ov)]
    assert main(args + ["gen-data"]) == EXIT_OK
    assert load_dataset(tmp_path / "source.ds").labels == [0, 0, 1, 1, 2, 2]


# -- metrics ------------------------------------------------------------------

def test_metrics_report_per_class_and_weighted_overall():
    preds = np.array([0, 0, 1, 1, 1, 1])
    labels = np.array([0, 0, 0, 1, 1, 1])
    rep = metrics_report(preds, labels, final_reward=0.9, chosen_epoch=2,
                         seconds=1.0, config_hash="h")
    assert rep.per_class_accuracy == {0: 2 / 3, 1: 1.0}
    assert rep.per_class_counts == {0: 3, 1: 3}
    assert abs(rep.overall_accuracy - 5 / 6) <= 1e-12
    parsed = json.loads(rep.to_json())
    assert parsed["per_class_accuracy"]["0"] == 2 / 3
    assert parsed["final_reward"] == 0.9


# -- commands -----------------------------------------------------------------

def test_exit_codes_for_bad_config_and_missing_data(tmp_path, capsys):
    assert main(["--set", "train.epochs=zero", "train"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    for overrides, key in ((["task.input_kind=image"], "task.input_kind"),
                           (["model.extractor=conv_stack"], "task.input_kind"),
                           (["model.extractor=resnet"], "model.extractor"),
                           (["train.batch_size=1"], "batch_size"),
                           (["task.samples_per_class=1", "task.target_classes=0"],
                            "task.samples_per_class"),
                           (["model.dropout_p=1.0"], "model.dropout_p"),
                           (["model.dropout_p=-0.1"], "model.dropout_p"),
                           (["model.rda_hidden=32,0,32"], "model.rda_hidden"),
                           (["model.clf_hidden=0"], "model.clf_hidden"),
                           (["model.mlp_hidden=0"], "model.mlp_hidden"),
                           (["model.feature_dim=0"], "model.feature_dim"),
                           (["model.proj_dim=0"], "model.proj_dim"),
                           (["task.dim=0"], "task.dim"),
                           (["task.mean_offset=1,2,3,4,5,6,7,8,9"],
                            "task.mean_offset has 9 values, more than task.dim=8"),
                           (["task.source_classes=10"],
                            "task.source_classes=10 needs task.dim"),
                           (["task.source_classes=10", "task.input_kind=image",
                             "model.extractor=conv_stack"],
                            "task.source_classes=10 needs task.dim"),
                           (["study.n_seeds=0"], "study.n_seeds"),
                           (["study.n_seeds=-3"], "study.n_seeds")):
        args = [a for ov in overrides for a in ("--set", ov)]
        assert main(args + ["train"]) == EXIT_CONFIG, overrides
        assert key in capsys.readouterr().err, overrides
    assert main(_fast_args(tmp_path / "empty") + ["train"]) == EXIT_DATA
    assert "run gen-data first" in capsys.readouterr().err


def test_non_finite_update_names_epoch_step_group_and_parameter(
        tmp_path, monkeypatch, capsys):
    class OverflowingAdam(Adam):
        """Adam whose updates of the target RDA block are infinite."""

        def step(self):
            if any(name.startswith("Mt.Ft.") for name in self.params):
                self.learning_rate = np.inf
            with np.errstate(invalid="ignore", over="ignore"):
                super().step()

    monkeypatch.setattr(train, "Adam", OverflowingAdam)
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    for part in ("epoch 1:", "step S4_align_Ft", "group phi_t",
                 "non-finite values in parameter 'Mt.Ft."):
        assert part in err, err


def test_gen_data_writes_files_and_manifest(tmp_path):
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    for name in ("source.ds", "target.ds", "eval_target.ds"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["config_hash"]) == 16
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_full_pipeline_train_then_eval(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    capsys.readouterr()

    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    assert (out / "best.ckpt").exists()
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("# config_hash=")
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["overall_accuracy"] <= 1.0

    code = main(_fast_args(out) + ["eval", str(out / "best.ckpt"),
                                   str(out / "eval_target.ds")])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    # scoring the saved checkpoint reproduces the training-time metrics
    assert report["overall_accuracy"] == metrics["overall_accuracy"]
    assert report["final_reward"] == metrics["final_reward"]


def _first_row(ds):
    labels = None if ds.labels is None else ds.labels[:1]
    return Dataset(Tensor(ds.inputs.data[:1]), labels, ds.domain)


def test_train_rejects_a_one_row_dataset_and_eval_scores_one(tmp_path, capsys):
    # pretraining and train-mode batch norm need two rows; eval-mode batch
    # norm reads the running statistics, so eval scores a single row
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    one = tmp_path / "one.ds"
    eval_target = load_dataset(out / "eval_target.ds")
    save_dataset(one, _first_row(eval_target))
    assert main(_fast_args(out) + ["eval", str(out / "best.ckpt"), str(one)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["per_class_counts"] == {str(eval_target.labels[0]): 1}
    for name in ("source.ds", "target.ds"):
        run = tmp_path / name.replace(".", "_")
        assert main(_fast_args(run) + ["gen-data"]) == EXIT_OK
        save_dataset(run / name, _first_row(load_dataset(run / name)))
        capsys.readouterr()
        assert main(_fast_args(run) + ["train"]) == EXIT_DATA, name
        err = capsys.readouterr().err
        assert name in err and "at least 2 rows, got 1" in err, err


def test_train_extracts_the_target_rows_once(tmp_path, monkeypatch, capsys):
    # gen-data writes the same target rows to target.ds and eval_target.ds;
    # train shares one tensor between them, so training extracts them once,
    # and the metrics score the features training extracted
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    calls = []
    extract = train.extract

    def counting(model, x, domain_of_x):
        calls.append(domain_of_x)
        return extract(model, x, domain_of_x)
    # every module that calls extract binds it by name
    for module in (train, model):
        monkeypatch.setattr(module, "extract", counting)
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    assert calls == ["source", "target"]
    shared = json.loads((out / "metrics.json").read_text())

    # the eval rows in a tensor of their own are extracted separately, with
    # the same metrics
    train_interactive = cli.train_interactive

    def separate(source, target, cfg, model_cfg, eval_target, **kwargs):
        copy = Dataset(Tensor(eval_target.inputs.data.copy()), eval_target.labels,
                       eval_target.domain)
        return train_interactive(source, target, cfg, model_cfg,
                                 eval_target=copy, **kwargs)
    monkeypatch.setattr(cli, "train_interactive", separate)
    calls.clear()
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    assert calls == ["source", "target", "target"]
    apart = json.loads((out / "metrics.json").read_text())
    for report in (shared, apart):
        del report["wall_clock_seconds"]
    assert shared == apart


def test_eval_warns_on_config_hash_mismatch(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    changed = _fast_args(out, extra=["train.temperature=0.7"])
    assert main(changed + ["eval", str(out / "best.ckpt"),
                           str(out / "eval_target.ds")]) == EXIT_OK
    assert "warning" in capsys.readouterr().err


def test_compare_stopping_outputs(tmp_path, capsys):
    out = tmp_path / "study"
    args = _fast_args(out, extra=["study.n_seeds=2"])
    assert main(args + ["compare-stopping"]) == EXIT_OK
    assert "median regret" in capsys.readouterr().out
    with open(out / "compare_epochs.csv") as f:
        rows = list(csv.DictReader(f))
    assert {r["seed"] for r in rows} == {"0", "1"}
    with open(out / "compare_summary.csv") as f:
        summary = list(csv.DictReader(f))
    assert len(summary) == 2
    for r in summary:
        assert float(r["regret_V_rule"]) >= 0.0
        assert float(r["regret_loss_rule"]) >= 0.0


def test_unlabeled_or_empty_datasets_exit_3_naming_the_file(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    empty = tmp_path / "empty.ds"
    save_dataset(empty, Dataset(Tensor(np.zeros((0, 8))), [], "target"))
    # eval scores against labels: target.ds, as written by gen-data, has none
    for ds, message in ((out / "target.ds", "no labels"), (empty, "empty")):
        code = main(_fast_args(out) + ["eval", str(out / "best.ckpt"), str(ds)])
        assert code == EXIT_DATA, ds
        err = capsys.readouterr().err
        assert str(ds) in err and message in err, err
    for name in ("eval_target.ds", "source.ds"):
        path = out / name
        labeled = load_dataset(path)
        save_dataset(path, labeled.without_labels())
        assert main(_fast_args(out) + ["train"]) == EXIT_DATA, name
        err = capsys.readouterr().err
        assert str(path) in err and "no labels" in err, err
        save_dataset(path, labeled)


def _with_label(ds, row, label):
    labels = list(ds.labels)
    labels[row] = label
    return Dataset(ds.inputs, labels, ds.domain)


def test_negative_labels_exit_3_naming_the_file(tmp_path, capsys):
    # a negative label fails when the file is loaded, not when a sampled
    # batch or a per-class count happens to reach its row
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    source = out / "source.ds"
    labeled = load_dataset(source)
    save_dataset(source, _with_label(labeled, 5, -1))
    assert main(_fast_args(out) + ["train"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{source}: negative label -1 in row 5" in err, err
    save_dataset(source, labeled)

    bad = tmp_path / "bad_eval.ds"
    save_dataset(bad, _with_label(load_dataset(out / "eval_target.ds"), 0, -3))
    code = main(_fast_args(out) + ["eval", str(out / "best.ckpt"), str(bad)])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad}: negative label -3 in row 0" in captured.err, captured.err


def test_labels_outside_the_source_classes_exit_3_naming_the_file(tmp_path, capsys):
    # heads are sized from task.source_classes, so a larger label is bad
    # data, not a reason to train heads of another size
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    capsys.readouterr()
    classes = load_config(None, FAST_OVERRIDES).task.source_classes
    source = out / "source.ds"
    labeled = load_dataset(source)
    save_dataset(source, _with_label(labeled, 3, 9))
    assert main(_fast_args(out) + ["train"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{source}: label 9 in row 3 is not below "
            f"task.source_classes={classes}") in err, err
    assert not (out / "best.ckpt").exists()
    save_dataset(source, labeled)
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()

    bad = tmp_path / "bad_eval.ds"
    save_dataset(bad, _with_label(load_dataset(out / "eval_target.ds"), 0, classes))
    code = main(_fast_args(out) + ["eval", str(out / "best.ckpt"), str(bad)])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{bad}: label {classes} in row 0 is not below "
            f"task.source_classes={classes}") in captured.err, captured.err


def _with_input(ds, row, col, value):
    inputs = ds.inputs.data.copy()
    inputs[row, col] = value
    return Dataset(Tensor(inputs), ds.labels, ds.domain)


def test_train_rejects_a_nan_input_naming_the_file_row_and_column(tmp_path, capsys):
    # a NaN input used to surface as a non-finite parameter after the first
    # update, which blames the parameter, not the data
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    capsys.readouterr()
    source = out / "source.ds"
    save_dataset(source, _with_input(load_dataset(source), 7, 3, np.nan))
    assert main(_fast_args(out) + ["train"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{source}: non-finite value nan in row 7, column 3" in err, err
    assert not (out / "best.ckpt").exists()


def test_eval_rejects_an_infinite_input_naming_the_file_row_and_column(
        tmp_path, capsys):
    # an infinite cell used to be scored like any other row
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    bad = tmp_path / "bad_eval.ds"
    save_dataset(bad, _with_input(load_dataset(out / "eval_target.ds"), 2, 5, -np.inf))
    code = main(_fast_args(out) + ["eval", str(out / "best.ckpt"), str(bad)])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad}: non-finite value -inf in row 2, column 5" in captured.err, captured.err


def test_eval_rejects_garbage_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNK")
    ds = tmp_path / "missing.ds"
    code = main(_fast_args(tmp_path) + ["eval", str(bad), str(ds)])
    assert code == EXIT_DATA
    assert "not a checkpoint" in capsys.readouterr().err
