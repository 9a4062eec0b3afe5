import configparser
import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings
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
    assert cfg.study.n_seeds == 5
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


def test_a_config_path_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys):
    # a directory exists, so it is not reported as missing
    args = ["-c", str(tmp_path), "--set", f"output.dir={tmp_path / 'out'}"]
    assert main(args + ["gen-data"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {tmp_path}: cannot read the config file (" in err
    assert "not found" not in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("overrides, expected", [
    ([], "f342cfbe3a83d151"),
    (["output.dir=runs/other", "study.n_seeds=3"], "83e0e3393c0091cb"),
    (["task.input_kind=image", "model.extractor=conv_stack"], "2e50bc6976aeb76b"),
])
def test_config_hashes_are_pinned(overrides, expected):
    # every file a run writes carries the hash: a change to how the config
    # is tabled or resolved must not move it
    assert load_config(None, overrides).config_hash == expected


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
    ["task.rotation_angle=0.1"], ["task.scale=1.5"],
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


@pytest.mark.parametrize("override", [
    "train.epochs=0", "task.samples_per_class=0", "train.learning_rate=-1",
    "task.input_kind=audio", "train.desired_reward=2"])
def test_a_value_out_of_range_exits_2_naming_the_key(tmp_path, capsys, override):
    args = ["--set", override, "--set", f"output.dir={tmp_path}"]
    assert main(args + ["gen-data"]) == EXIT_CONFIG
    key = override.split("=")[0]
    assert f"config error: {key} " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("text", ["epochs = 3\n",
                                  "[train]\nepochs = 3\nepochs = 4\n"])
def test_a_malformed_config_file_exits_2_naming_the_file(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    args = ["-c", str(ini), "--set", f"output.dir={tmp_path / 'out'}"]
    assert main(args + ["gen-data"]) == EXIT_CONFIG
    assert f"config error: {ini}: " in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes("[output]\ndir = caf\u00e9\n".encode("latin-1"))
    args = ["-c", str(ini), "--set", f"output.dir={tmp_path / 'out'}"]
    assert main(args + ["gen-data"]) == EXIT_CONFIG
    assert f"config error: {ini}: 'utf-8' codec can't decode byte 0xe9" \
        in capsys.readouterr().err
    # the same value written as UTF-8 reads whatever the locale
    ini.write_bytes("[output]\ndir = caf\u00e9\n".encode("utf-8"))
    assert load_config(str(ini), []).output.dir == "caf\u00e9"


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                  "[DEFAULT]\nfoo = 1\n[task]\nseed = 1\n"],
                         ids=["seed", "unknown-key"])
def test_a_default_section_exits_2_as_an_unknown_section(tmp_path, capsys, text):
    ini = tmp_path / "default.ini"
    ini.write_text(text)
    args = ["-c", str(ini), "--set", f"output.dir={tmp_path / 'out'}"]
    assert main(args + ["gen-data"]) == EXIT_CONFIG
    assert "config error: unknown config section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["100%", "out_%(seed)s"], ids=["percent", "reference"])
def test_config_values_are_read_literally(tmp_path, name):
    # a % is a character of the value, not the start of an interpolation
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[output]\ndir = {tmp_path / name}\n")
    assert load_config(str(ini), []).output.dir == str(tmp_path / name)
    assert main(["-c", str(ini), "gen-data"]) == EXIT_OK
    assert (tmp_path / name / "source.ds").is_file()


def test_a_config_file_with_a_bom_hashes_like_the_file_without_it(tmp_path):
    text = "[train]\nepochs = 3\n[output]\ndir = runs/bom\n"
    plain, bom = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(text.encode("utf-8-sig"))
    want = load_config(str(plain), [])
    assert want.train.epochs == 3
    assert load_config(str(bom), []).config_hash == want.config_hash
    out = tmp_path / "out"
    assert main(["-c", str(bom), "--set", f"output.dir={out}", "gen-data"]) == EXIT_OK
    assert (out / "source.ds").is_file()


def test_a_class_per_dimension_and_a_full_offset_generate(tmp_path):
    # the generator draws one orthogonal mean direction per class and adds
    # the offset to the leading coordinates: both may use every dimension
    args = [a for ov in ("task.source_classes=3", "task.dim=3",
                         "task.samples_per_class=2", "task.mean_offset=1,2,3",
                         f"output.dir={tmp_path}") for a in ("--set", ov)]
    assert main(args + ["gen-data"]) == EXIT_OK
    assert np.array_equal(load_dataset(tmp_path / "source.ds").labels,
                          [0, 0, 1, 1, 2, 2])


# -- metrics ------------------------------------------------------------------

def test_metrics_report_per_class_and_overall():
    preds = np.array([0, 0, 1, 1, 1, 1])
    labels = np.array([0, 0, 0, 1, 1, 1])
    rep = metrics_report(preds, labels, final_reward=0.9, chosen_epoch=2,
                         seconds=1.0, config_hash="h")
    assert rep["per_class_accuracy"] == {"0": 2 / 3, "1": 1.0}
    assert rep["per_class_counts"] == {"0": 3, "1": 3}
    assert abs(rep["overall_accuracy"] - 5 / 6) <= 1e-12
    parsed = json.loads(cli._json(rep))
    assert parsed["per_class_accuracy"]["0"] == 2 / 3
    assert parsed["final_reward"] == 0.9


def test_metrics_report_overall_accuracy_is_the_mean_train_takes():
    # 200 rows per class, 1 and 14 correct: the count-weighted sum of the
    # per-class accuracies reads 0.037500000000000006, the mean 0.0375
    labels = np.repeat([0, 1], 200)
    preds = 1 - labels
    preds[[0, *range(200, 214)]] = [0, *[1] * 14]
    rep = metrics_report(preds, labels, final_reward=0.5, chosen_epoch=1,
                         seconds=0.0, config_hash="h")
    assert rep["overall_accuracy"] == float(np.mean(preds == labels)) == 0.0375


# -- commands -----------------------------------------------------------------

def test_exit_codes_for_bad_config_and_missing_data(tmp_path, capsys):
    assert main(["--set", "train.epochs=zero", "train"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    for overrides, key in ((["task.input_kind=image"], "task.input_kind"),
                           (["model.extractor=conv_stack"], "task.input_kind"),
                           (["model.extractor=resnet"], "model.extractor"),
                           (["train.seed=-1"], "train.seed must be at least 0"),
                           (["task.seed=-1"], "task.seed must be at least 0"),
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
                           (["task.scale=0"], "task.scale must be nonzero"),
                           (["task.mean_offset=1,2,3,4,5,6,7,8,9"],
                            "task.mean_offset has 9 values, more than task.dim=8"),
                           (["task.source_classes=10"],
                            "task.source_classes=10 needs task.dim"),
                           (["task.source_classes=10", "task.input_kind=image",
                             "model.extractor=conv_stack"],
                            "task.source_classes=10, task.rotation_angle=0.0: "
                            "image source class 8"),
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

    # a real overflow, met as the command meets it, where numpy warns rather
    # than raises: the first update that leaves a parameter non-finite is named
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(_fast_args(out, ["train.learning_rate=1e308"]) + ["train"])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "pretraining epoch 1, batch" in err and "non-finite values" in err, err


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
    # four epochs, none stopped early by the reward
    args = _fast_args(out, ["train.epochs=4", "train.desired_reward=1.0"])
    assert main(args + ["gen-data"]) == EXIT_OK
    capsys.readouterr()

    assert main(args + ["train"]) == EXIT_OK
    capsys.readouterr()
    assert (out / "best.ckpt").exists()
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("# config_hash=")
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["overall_accuracy"] <= 1.0
    # the chosen epoch is the row of highest V, the earliest on a tie, and
    # its accuracy is the one trace.csv holds, bit for bit
    rows = list(csv.DictReader(trace_lines[2:]))
    assert [int(r["epoch"]) for r in rows] == [1, 2, 3, 4]
    chosen = max(rows, key=lambda r: (float(r["V"]), -int(r["epoch"])))
    assert metrics["chosen_epoch"] == int(chosen["epoch"])
    assert chosen["checkpoint_id"] == f"epoch_{chosen['epoch']}"
    assert metrics["overall_accuracy"] == float(chosen["target_accuracy"])

    code = main(args + ["eval", str(out / "best.ckpt"), str(out / "eval_target.ds")])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    # scoring the saved checkpoint reproduces the training-time metrics
    assert report["overall_accuracy"] == metrics["overall_accuracy"]
    assert report["chosen_epoch"] == metrics["chosen_epoch"]
    assert report["final_reward"] == metrics["final_reward"] == float(chosen["V"])


def test_image_session_trains_a_conv_stack_that_eval_scores_alike(tmp_path, capsys):
    out = tmp_path / "image"
    args = []
    for ov in ("task.input_kind=image", "model.extractor=conv_stack",
               "task.source_classes=2", "task.samples_per_class=3",
               "train.pretrain_epochs=1", "train.epochs=1",
               "train.iters_per_step=1", "train.batch_size=4",
               f"output.dir={out}"):
        args += ["--set", ov]
    assert main(args + ["gen-data"]) == EXIT_OK
    assert main(args + ["train"]) == EXIT_OK
    capsys.readouterr()
    assert any(name.startswith("Gs.convs") for name in
               model.load_checkpoint(out / "best.ckpt").arrays)
    metrics = json.loads((out / "metrics.json").read_text())
    code = main(args + ["eval", str(out / "best.ckpt"), str(out / "eval_target.ds")])
    assert code == EXIT_OK
    assert (json.loads(capsys.readouterr().out)["overall_accuracy"]
            == metrics["overall_accuracy"])


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

    # the eval rows in another order are extracted separately, with the same
    # metrics
    train_interactive = cli.train_interactive

    def separate(source, target, cfg, model_cfg, eval_target, **kwargs):
        copy = Dataset(Tensor(eval_target.inputs.data[::-1].copy()),
                       eval_target.labels[::-1], eval_target.domain)
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
    # the checkpoint sets every tensor, so the seed eval builds from is moot:
    # another train.seed scores the same, naming its own config hash
    reports = []
    for extra in ([], ["train.seed=7"]):
        assert main(_fast_args(out, extra) + ["eval", str(out / "best.ckpt"),
                                              str(out / "eval_target.ds")]) == EXIT_OK
        captured = capsys.readouterr()
        assert ("warning" in captured.err) == bool(extra)
        reports.append(json.loads(captured.out))
    reseeded = load_config(None, FAST_OVERRIDES + [f"output.dir={out}", "train.seed=7"])
    assert reports[1].pop("config_hash") == reseeded.config_hash
    del reports[0]["config_hash"]
    for report in reports:
        del report["wall_clock_seconds"]
    assert reports[0] == reports[1]


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


def test_a_source_without_its_highest_class_exits_3_naming_the_file(
        tmp_path, capsys):
    # train sized the heads from source.ds's labels and wrote a best.ckpt
    # that its own eval, which sizes them from task.source_classes, rejected
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    capsys.readouterr()
    classes = load_config(None, FAST_OVERRIDES).task.source_classes
    source = out / "source.ds"
    ds = load_dataset(source)
    keep = [i for i, y in enumerate(ds.labels) if y < classes - 1]
    save_dataset(source, Dataset(Tensor(ds.inputs.data[keep]),
                                 [ds.labels[i] for i in keep], ds.domain))
    assert main(_fast_args(out) + ["train"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"data error: {source}: highest label {classes - 2}, but "
            f"task.source_classes={classes} needs label {classes - 1}") in err, err
    assert not (out / "best.ckpt").exists()


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


def test_train_and_eval_exit_3_naming_a_file_cut_after_its_magic(tmp_path, capsys):
    # the version used to be read before the parser's error translation, so
    # a file cut after its magic exited 4 with a bare struct message
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    ckpt, ds = out / "best.ckpt", out / "eval_target.ds"
    for cut in (ds, ckpt):
        cut.write_bytes(cut.read_bytes()[:4])
        assert main(_fast_args(out) + ["eval", str(ckpt), str(ds)]) == EXIT_DATA
        assert f"data error: {cut}: " in capsys.readouterr().err
    assert main(_fast_args(out) + ["train"]) == EXIT_DATA
    assert f"data error: {ds}: " in capsys.readouterr().err


def test_train_and_eval_exit_3_naming_a_file_of_another_version_or_no_rows(
        tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    ckpt, ds = out / "best.ckpt", out / "eval_target.ds"
    good_ds, good_ckpt = ds.read_bytes(), ckpt.read_bytes()

    def version_2(raw):
        return raw[:4] + struct.pack("<H", 2) + raw[6:]

    # byte 6 is a dataset's labels flag, byte 7 its ndim
    for raw, message in ((version_2(good_ds), "unsupported dataset version 2"),
                         (good_ds[:6] + b"\2" + good_ds[7:],
                          "the labels flag (byte 6) is 2, not 0 or 1"),
                         (good_ds[:7] + b"\0" + good_ds[8:],
                          "a dataset needs a row dimension")):
        ds.write_bytes(raw)
        assert main(_fast_args(out) + ["eval", str(ckpt), str(ds)]) == EXIT_DATA
        assert f"data error: {ds}: {message}" in capsys.readouterr().err
        assert main(_fast_args(out) + ["train"]) == EXIT_DATA
        assert f"data error: {ds}: {message}" in capsys.readouterr().err
    ds.write_bytes(good_ds)
    ckpt.write_bytes(version_2(good_ckpt))
    assert main(_fast_args(out) + ["eval", str(ckpt), str(ds)]) == EXIT_DATA
    assert (f"data error: {ckpt}: unsupported checkpoint version 2"
            in capsys.readouterr().err)


def test_train_and_eval_exit_3_naming_a_path_that_is_a_directory(tmp_path, capsys):
    # opening a directory raised IsADirectoryError, which exited 4
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    capsys.readouterr()
    source = out / "source.ds"
    source.unlink()
    source.mkdir()
    assert main(_fast_args(out) + ["train"]) == EXIT_DATA
    assert (f"data error: {source}: cannot read the dataset file"
            in capsys.readouterr().err)
    code = main(_fast_args(out) + ["eval", str(tmp_path), str(out / "target.ds")])
    assert code == EXIT_DATA
    assert (f"data error: {tmp_path}: cannot read the checkpoint file"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name", ["target.ds", "eval_target.ds"])
def test_train_rejects_rows_unlike_the_source_rows_naming_both_shapes(
        tmp_path, capsys, name):
    # the 6-column rows reached a linear layer, which exited 4 naming no file
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    capsys.readouterr()
    path = out / name
    ds = load_dataset(path)
    save_dataset(path, Dataset(Tensor(ds.inputs.data[:, :6]), ds.labels, ds.domain))
    assert main(_fast_args(out) + ["train"]) == EXIT_DATA
    assert (f"data error: {path}: rows of shape (6,), but source.ds has rows "
            "of shape (8,)" in capsys.readouterr().err)


def test_rows_the_extractor_cannot_read_exit_3_naming_the_file(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    ckpt = str(out / "best.ckpt")
    vectors = out / "eval_target.ds"
    conv = _fast_args(out, ["task.input_kind=image", "model.extractor=conv_stack"])
    assert main(conv + ["eval", ckpt, str(vectors)]) == EXIT_DATA
    assert (f"data error: {vectors}: rows of shape (8,), but model.extractor="
            "conv_stack reads rows of shape (1, 32, 32)" in capsys.readouterr().err)
    # images under the mlp extractor, and rows of no values, which passed
    # as 1-D rows and exited 4 with a float division by zero from a Linear
    # layer's init
    source = out / "source.ds"
    ds = load_dataset(source)
    for row in ((1, 32, 32), (0,)):
        save_dataset(source, Dataset(Tensor(np.zeros((len(ds), *row))),
                                     ds.labels, ds.domain))
        for command in (["train"], ["eval", ckpt, str(source)]):
            assert main(_fast_args(out) + command) == EXIT_DATA, command
            assert (f"data error: {source}: rows of shape {row}, but "
                    "model.extractor=mlp reads 1-D rows" in capsys.readouterr().err)


def test_eval_rejects_a_nan_checkpoint_value_naming_the_tensor(tmp_path, capsys):
    # a NaN weight used to load, and eval exited 0 with an accuracy
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    capsys.readouterr()
    path = out / "best.ckpt"
    ckpt = model.load_checkpoint(path)
    ckpt.arrays["Ms.Cs.out.weight"][1, 0] = np.nan
    model.save_checkpoint(path, ckpt)
    code = main(_fast_args(out) + ["eval", str(path), str(out / "eval_target.ds")])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: non-finite value nan in tensor 'Ms.Cs.out.weight'" in captured.err


def test_eval_of_a_checkpoint_unlike_the_dataset_names_both_files(tmp_path, capsys):
    # eval builds the model from the dataset's row width, so rows of another
    # width used to exit 3 naming only the tensor, as if the checkpoint were bad
    out = tmp_path / "run"
    assert main(_fast_args(out) + ["gen-data"]) == EXIT_OK
    assert main(_fast_args(out) + ["train"]) == EXIT_OK
    six = tmp_path / "six"
    assert main(_fast_args(six, ["task.dim=6"]) + ["gen-data"]) == EXIT_OK
    capsys.readouterr()
    ckpt, ds = out / "best.ckpt", six / "eval_target.ds"
    assert main(_fast_args(out) + ["eval", str(ckpt), str(ds)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"data error: {ckpt} does not fit the model built from the config "
            f"and {ds}: tensor 'Gs.layers0.weight': checkpoint shape (8, 16) != "
            "model shape (6, 16)" in captured.err), captured.err


# -- determinism across processes ---------------------------------------------

# one interpreter runs a session of commands, stopping at the first failure
SESSION = ("import json, sys\n"
           "from duoadapt.cli import main\n"
           "for args in json.loads(sys.argv[1]):\n"
           "    if main(args):\n"
           "        sys.exit(f'{args} failed')\n")


def test_sessions_in_two_interpreters_write_identical_bytes(tmp_path):
    # the output root, the hash seed and the BLAS thread count are outside the
    # config hash, so no byte a session writes may depend on them: a vector
    # session whose compare-stopping runs the full-set accuracy pass every
    # epoch, and an image session whose 36 source rows cross conv_stack's
    # 32-row eval chunk
    vector = ["--set", "output.dir=cli", "--set", "train.pretrain_epochs=1",
              "--set", "train.epochs=1"]
    image = [a for ov in ("output.dir=img", "task.input_kind=image",
                          "model.extractor=conv_stack", "task.samples_per_class=9",
                          "train.batch_size=8", "train.pretrain_epochs=1",
                          "train.epochs=1", "train.iters_per_step=1")
             for a in ("--set", ov)]
    session = json.dumps([vector + ["gen-data"], vector + ["train"],
                          vector + ["--set", "study.n_seeds=2", "compare-stopping"],
                          image + ["gen-data"], image + ["train"]])
    src = str(Path(cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    roots = tmp_path / "a", tmp_path / "b"
    envs = [dict(env, DUOADAPT_OUTPUT_ROOT=str(roots[0]), PYTHONHASHSEED="0"),
            dict(env, DUOADAPT_OUTPUT_ROOT=str(roots[1]), PYTHONHASHSEED="1",
                 OPENBLAS_NUM_THREADS="1")]
    runs = [subprocess.Popen([sys.executable, "-c", SESSION, session], cwd=tmp_path,
                             env=e, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             text=True) for e in envs]
    for run in runs:
        err = run.communicate()[1]
        assert run.returncode == 0, err

    def contents(path):
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name == "metrics.json":
            lines = [x for x in lines if b'"wall_clock_seconds"' not in x]
        return lines

    for out in ("cli", "img"):
        names = sorted(p.name for p in (roots[0] / out).iterdir())
        assert {"trace.csv", "best.ckpt", "metrics.json"} <= set(names)
        assert out == "img" or "compare_summary.csv" in names
        assert sorted(p.name for p in (roots[1] / out).iterdir()) == names
        for name in names:
            assert contents(roots[0] / out / name) == contents(roots[1] / out / name), \
                f"{out}/{name}"
