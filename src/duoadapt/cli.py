"""Config-driven command line frontend.

Subcommands: gen-data, train, eval, compare-stopping.
Experiments are described by an INI-style config file; ``--set
section.key=value`` overrides individual entries. Every artifact embeds
the config hash so runs can be cross-checked.

Exit codes: 0 success, 2 config error, 3 data error (missing or malformed
dataset or checkpoint), 4 runtime error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import (Dict, List, Optional, Tuple, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .data import (Dataset, DatasetFormatError, PdaTaskSpec, gen_synthetic_pda,
                   load_dataset, save_dataset)
from .model import (CheckpointFormatError, ensemble_predict, fused_logits,
                    load_checkpoint, save_checkpoint)
from .train import (ModelConfig, TrainConfig, build_pair, selection_study,
                    train_interactive)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

OUTPUT_ROOT_ENV = "DUOADAPT_OUTPUT_ROOT"

# extractor kind -> the task.input_kind it reads
_EXTRACTOR_INPUT = {"mlp": "vector", "conv_stack": "image"}

# config section -> the dataclass whose fields are its keys, with their
# types and defaults
_SECTIONS = {"task": PdaTaskSpec, "train": TrainConfig, "model": ModelConfig}
# the keys no dataclass holds; each default's type is its key's type
_EXTRA_DEFAULTS = {"output": {"dir": "runs/experiment"}, "study": {"n_seeds": 5}}
# section -> key -> type, for every key a config may set
_KEY_TYPES = {sec: {f.name: get_type_hints(cls)[f.name] for f in fields(cls)}
              for sec, cls in _SECTIONS.items()}
_KEY_TYPES.update({sec: {key: type(default) for key, default in keys.items()}
                   for sec, keys in _EXTRA_DEFAULTS.items()})
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    task: PdaTaskSpec
    train: TrainConfig
    model: ModelConfig
    output_dir: Path
    n_seeds: int
    config_hash: str

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ConfigError(f"study.n_seeds must be at least 1, got {self.n_seeds}")
        needs = _EXTRACTOR_INPUT.get(self.model.extractor)
        if needs is None:
            raise ConfigError(f"unknown model.extractor {self.model.extractor!r}")
        if self.task.input_kind != needs:
            raise ConfigError(f"model.extractor={self.model.extractor} needs "
                              f"task.input_kind={needs}, got {self.task.input_kind}")


def _parse(tp, text: str, key: str):
    """``text`` as a value of ``tp``: an int, float, str or bool, or a tuple
    of ints or floats written comma-separated. Floats must be finite."""
    item = get_args(tp)[0] if get_origin(tp) is tuple else tp
    try:
        if item is not tp:
            value = tuple(item(v) for v in text.split(",") if v.strip())
        elif tp is bool:
            value = _BOOLS[text.lower()]
        else:
            value = tp(text)
    except (ValueError, KeyError):
        what = tp.__name__ if item is tp else f"comma-separated {item.__name__}s"
        raise ConfigError(f"{key}: cannot read {text!r} as {what}") from None
    if item is float and not np.isfinite(value).all():
        raise ConfigError(f"{key}: {text!r} is not finite")
    return value


def load_config(path: Optional[str], overrides: List[str]) -> ExperimentConfig:
    texts: Dict[str, Dict[str, str]] = {sec: {} for sec in _KEY_TYPES}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except configparser.Error as e:
            raise ConfigError(f"{path}: {e}") from e
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for sec in parser.sections():
            if sec not in texts:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, text in parser.items(sec):
                if key not in _KEY_TYPES[sec]:
                    raise ConfigError(f"unknown config key {sec}.{key}")
                texts[sec][key] = text
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, text = item.split("=", 1)
        sec, key = target.split(".", 1)
        if sec not in texts or key not in _KEY_TYPES[sec]:
            raise ConfigError(f"unknown config key {sec}.{key}")
        texts[sec][key] = text
    values = {sec: {key: _parse(_KEY_TYPES[sec][key], text, f"{sec}.{key}")
                    for key, text in keys.items()}
              for sec, keys in texts.items()}

    try:
        built = {sec: cls(**values[sec]) for sec, cls in _SECTIONS.items()}
    except ValueError as e:
        raise ConfigError(str(e)) from e
    extra = {sec: {**keys, **values[sec]} for sec, keys in _EXTRA_DEFAULTS.items()}
    # the resolved values, so every spelling of one config hashes alike
    resolved = {**{sec: asdict(obj) for sec, obj in built.items()}, **extra}
    canonical = json.dumps(resolved, sort_keys=True)
    config_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]

    out = Path(extra["output"]["dir"])
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    return ExperimentConfig(**built, output_dir=out,
                            n_seeds=extra["study"]["n_seeds"],
                            config_hash=config_hash)


@dataclass
class MetricsReport:
    per_class_accuracy: Dict[int, float]
    per_class_counts: Dict[int, int]
    overall_accuracy: float
    final_reward: float
    chosen_epoch: int
    wall_clock_seconds: float
    config_hash: str

    def to_json(self) -> str:
        d = asdict(self)
        d["per_class_accuracy"] = {str(k): v for k, v in self.per_class_accuracy.items()}
        d["per_class_counts"] = {str(k): v for k, v in self.per_class_counts.items()}
        return json.dumps(d, indent=2, sort_keys=True)


def metrics_report(preds: np.ndarray, labels: np.ndarray, final_reward: float,
                   chosen_epoch: int, seconds: float,
                   config_hash: str) -> MetricsReport:
    per_class: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for c in sorted(set(labels.tolist())):
        mask = labels == c
        counts[c] = int(mask.sum())
        per_class[c] = float(np.mean(preds[mask] == c))
    overall = float(sum(per_class[c] * counts[c] for c in counts)
                    / sum(counts.values()))
    return MetricsReport(per_class_accuracy=per_class, per_class_counts=counts,
                         overall_accuracy=overall, final_reward=final_reward,
                         chosen_epoch=chosen_epoch, wall_clock_seconds=seconds,
                         config_hash=config_hash)


# -- dataset file handling ----------------------------------------------------

_DATA_FILES = ("source.ds", "target.ds", "eval_target.ds")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_gen_data(cfg: ExperimentConfig) -> int:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    source, target, eval_target = gen_synthetic_pda(cfg.task)
    for name, ds in zip(_DATA_FILES, (source, target, eval_target)):
        save_dataset(cfg.output_dir / name, ds)
    manifest = {
        "config_hash": cfg.config_hash,
        "files": {name: _sha256(cfg.output_dir / name) for name in _DATA_FILES},
    }
    (cfg.output_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                             sort_keys=True))
    print(f"wrote {len(_DATA_FILES)} dataset files to {cfg.output_dir}")
    return EXIT_OK


def _load_checked(path, n_classes: Optional[int]) -> Dataset:
    """A non-empty dataset; with ``n_classes``, one whose rows all carry a
    label below it (the configured ``task.source_classes``)."""
    ds = load_dataset(path)
    if len(ds) == 0 or (n_classes is not None and ds.labels is None):
        what = "is empty" if len(ds) == 0 else "has no labels"
        raise DatasetFormatError(f"{path}: dataset {what}")
    if n_classes is not None and max(ds.labels) >= n_classes:
        row = next(i for i, y in enumerate(ds.labels) if y >= n_classes)
        raise DatasetFormatError(f"{path}: label {ds.labels[row]} in row {row} "
                                 f"is not below task.source_classes={n_classes}")
    return ds


def _load_datasets(cfg: ExperimentConfig) -> Tuple[Dataset, Dataset, Dataset]:
    paths = [cfg.output_dir / n for n in _DATA_FILES]
    for p in paths:
        if not p.exists():
            raise FileNotFoundError(f"missing dataset file {p}; run gen-data first")
    n_classes = cfg.task.source_classes
    datasets = tuple(_load_checked(p, classes)
                     for p, classes in zip(paths, (n_classes, None, n_classes)))
    for p, ds in zip(paths[:2], datasets):
        if len(ds) < 2:
            # pretraining and train-mode batch norm need two rows
            raise DatasetFormatError(f"{p}: training needs at least 2 rows, "
                                     f"got {len(ds)}")
    return datasets  # type: ignore[return-value]


def cmd_train(cfg: ExperimentConfig) -> int:
    source, target, eval_target = _load_datasets(cfg)
    if np.array_equal(eval_target.inputs.data, target.inputs.data):
        # gen-data writes the target rows to both files: share one tensor so
        # that training extracts them once
        eval_target = Dataset(target.inputs, eval_target.labels,
                              eval_target.domain)
    t0 = time.monotonic()
    result = train_interactive(source, target, cfg.train, cfg.model,
                               eval_target=eval_target,
                               config_hash=cfg.config_hash)
    seconds = time.monotonic() - t0
    result.trace.save(cfg.output_dir / "trace.csv")
    save_checkpoint(cfg.output_dir / "best.ckpt", result.best)
    # training extracted the eval rows already: score their features
    preds = fused_logits(result.ms, result.mt, result.eval_z.inputs).argmax(axis=1)
    report = metrics_report(preds, np.asarray(eval_target.labels),
                            final_reward=result.best.reward,
                            chosen_epoch=result.best.epoch, seconds=seconds,
                            config_hash=cfg.config_hash)
    (cfg.output_dir / "metrics.json").write_text(report.to_json())
    print(f"finished: best epoch {result.best.epoch} "
          f"(V={result.best.reward:.3f}, accuracy={report.overall_accuracy:.3f}, "
          f"{seconds:.1f}s)")
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig, checkpoint_path: str,
             dataset_path: str) -> int:
    ckpt = load_checkpoint(checkpoint_path)
    ds = _load_checked(dataset_path, cfg.task.source_classes)
    if ckpt.config_hash and ckpt.config_hash != cfg.config_hash:
        print(f"warning: checkpoint hash {ckpt.config_hash} != "
              f"config hash {cfg.config_hash}", file=sys.stderr)
    ms, mt = build_pair(cfg.model, cfg.task.source_classes,
                        ds.inputs.shape[-1], cfg.train.seed)
    ms.extractor_s.mark_pretrained()
    ms.extractor_t.mark_pretrained()
    ckpt.restore(ms, mt)
    t0 = time.monotonic()
    preds = ensemble_predict(ms, mt, ds.inputs)
    report = metrics_report(preds, np.asarray(ds.labels), ckpt.reward,
                            ckpt.epoch, time.monotonic() - t0, cfg.config_hash)
    print(report.to_json())
    return EXIT_OK


def cmd_compare_stopping(cfg: ExperimentConfig) -> int:
    """Multi-seed study of epoch-selection rules (reward vs training loss)."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    epoch_rows: List[Dict[str, object]] = []
    summary_rows: List[Dict[str, object]] = []
    for k in range(cfg.n_seeds):
        task = replace(cfg.task, seed=cfg.task.seed + k)
        source, target, eval_target = gen_synthetic_pda(task)
        train_cfg = replace(cfg.train, seed=cfg.train.seed + k,
                            desired_reward=1.0)
        result = train_interactive(source, target, train_cfg, cfg.model,
                                   eval_target=eval_target,
                                   config_hash=cfg.config_hash)
        for r in result.trace.rows:
            epoch_rows.append({
                "seed": train_cfg.seed, "epoch": r.epoch,
                "accuracy": r.target_accuracy, "V": r.V,
                "train_loss": sum(r.losses.values())})
        study = selection_study(result.trace)
        summary_rows.append({"seed": train_cfg.seed, **study})

    for name, rows in (("compare_epochs.csv", epoch_rows),
                       ("compare_summary.csv", summary_rows)):
        with open(cfg.output_dir / name, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    med_v = float(np.median([r["regret_V_rule"] for r in summary_rows]))
    med_l = float(np.median([r["regret_loss_rule"] for r in summary_rows]))
    print(f"median regret: reward rule {med_v:.4f}, loss rule {med_l:.4f}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="duoadapt",
        description="Co-trained domain-wise classifiers with residual "
                    "feature adaptation on synthetic partial-shift tasks.")
    parser.add_argument("--config", "-c", default=None,
                        help="INI config file (defaults used when omitted)")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="SECTION.KEY=VALUE",
                        help="override a single config entry")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", help="generate and write the synthetic task")
    sub.add_parser("train", help="full pipeline: pretrain + interactive epochs")
    p_eval = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("dataset")
    sub.add_parser("compare-stopping",
                   help="multi-seed study of epoch selection rules")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.dataset)
        if args.command == "compare-stopping":
            return cmd_compare_stopping(cfg)
        raise AssertionError(args.command)
    except (FileNotFoundError, DatasetFormatError, CheckpointFormatError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
