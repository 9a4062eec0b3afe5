"""One repetition of a perfbench workload, run in a fresh process.

run.py starts one worker per repetition; a worker can also be run by hand
from the repository root:

    python3 perfbench/worker.py --workload vector_shift --data-seed 0 --out .perfbench/by-hand

It imports duoadapt from ``src/`` cold, generates the workload's data from
``--data-seed``, runs it, checks the outputs and prints one JSON object as
the last line of its standard output.
"""
import time

T0 = time.perf_counter()  # worker start: everything after this counts in run_s

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CLI_SEEDS = 4   # compare-stopping seeds: at least the CPU count of a 2-4 core box


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Outcome:
    """Operations attempted and the problems that failed them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, name, fn):
        """Run one operation; a raise or a returned problem fails it."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception as exc:  # an operation's error is a result to count
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.extend(f"{name}: {p}" for p in problems)


def call_problems(call) -> list:
    """Output checks on one train_interactive call."""
    problems = []
    if not call["losses_finite"]:
        problems.append("a recorded loss is not finite")
    if not call["in_unit_range"]:
        problems.append("V or an accuracy lies outside [0, 1]")
    if call["best_accuracy"] is None:
        problems.append("no accuracy recorded for the selected epoch")
    return problems


# -- vector_shift: one train_interactive call ---------------------------------

def shifted_vector_task(seed):
    """The shifted task of acceptance criterion 5: the target's offset drags
    the shared classes toward an absent source class."""
    import numpy as np
    from duoadapt.data import PdaTaskSpec, _class_means
    base = dict(source_classes=4, target_classes=(0, 1), samples_per_class=200,
                dim=8, class_separation=3.0, rotation_angle=0.5)
    means = _class_means(PdaTaskSpec(seed=seed, **base),
                         np.random.default_rng(seed + 7919))
    return PdaTaskSpec(seed=seed, mean_offset=tuple(means[2] - means[0]), **base)


def setup_vector(seed, out, outcome):
    from duoadapt import data
    return data.gen_synthetic_pda(shifted_vector_task(seed))


def run_vector(seed, datasets, out, rec, outcome, report):
    from duoadapt import model, train
    source, target, eval_target = datasets
    cfg = train.TrainConfig(epochs=10, iters_per_step=20, desired_reward=1.0,
                            seed=seed)

    def op():
        result = train.train_interactive(source, target, cfg,
                                         eval_target=eval_target)
        call = rec.train_calls[-1]
        result.trace.save(out / "trace.csv")
        model.save_checkpoint(out / "best.ckpt", result.best)
        problems = call_problems(call)
        restored = train.ensemble_accuracy(result.ms, result.mt, eval_target)
        if restored != call["best_accuracy"]:
            problems.append(f"restored model scores {restored}, the selected "
                            f"epoch recorded {call['best_accuracy']}")
        report["target_accuracy"] = call["best_accuracy"]
        report["best_V"] = call["best_V"]
        return problems
    outcome.run("train_interactive", op)
    report["hashes"] = hashes(out)
    return {}


def hashes(directory: Path) -> dict:
    return {name: sha256(directory / name) for name in ("trace.csv", "best.ckpt")
            if (directory / name).exists()}


# -- cli_sweep: a user session through duoadapt.cli.main ----------------------

def cli_call(*argv):
    """Run one subcommand in-process; returns (exit code, its stdout)."""
    from duoadapt import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# The session trains two experiments: the vector study it is named for, and
# the conv_stack spectrogram toy, which is the only input that runs the
# conv2d / batch_norm / maxpool2x2 layers.
VECTOR_INI = """[task]
samples_per_class = 1000
rotation_angle = 0.3
seed = {seed}
[train]
pretrain_epochs = 2
epochs = 3
iters_per_step = 10
learning_rate = 1e-2
desired_reward = 1.0
seed = {seed}
[output]
dir = {dir}
[study]
n_seeds = {n_seeds}
"""

IMAGE_INI = """[task]
samples_per_class = 20
input_kind = image
rotation_angle = 0.5
seed = {seed}
[train]
pretrain_epochs = 1
epochs = 1
iters_per_step = 2
batch_size = 32
desired_reward = 1.0
seed = {seed}
[model]
extractor = conv_stack
[output]
dir = {dir}
"""


def setup_cli(seed, out, outcome):
    """Write both configs and run gen-data for each."""
    # The config hash covers output.dir and is written into trace.csv and
    # best.ckpt, so the session uses relative paths from inside ``out``.
    os.environ.pop("DUOADAPT_OUTPUT_ROOT", None)
    os.chdir(out)
    sessions = {}
    for name, template in (("vector", VECTOR_INI), ("image", IMAGE_INI)):
        ini = Path(f"{name}.ini")
        ini.write_text(template.format(seed=seed, dir=name, n_seeds=CLI_SEEDS))
        sessions[name] = (ini, Path(name))
        outcome.run(f"{name} gen-data",
                    lambda ini=ini: exit_problems(cli_call("-c", str(ini), "gen-data")))
    return sessions


def exit_problems(result) -> list:
    code, _ = result
    return [] if code == 0 else [f"exit code {code}"]


def train_subcommand(ini, session, rec):
    """Run ``train``; returns (problems, reported accuracy)."""
    code, _ = cli_call("-c", str(ini), "train")
    if code != 0:
        return [f"exit code {code}"], None
    metrics = json.loads((session / "metrics.json").read_text())
    return call_problems(rec.train_calls[-1]), metrics["overall_accuracy"]


def run_cli(seed, sessions, out, rec, outcome, report):
    ini, session = sessions["vector"]
    trained = {}

    def train_op():
        problems, trained["accuracy"] = train_subcommand(ini, session, rec)
        return problems
    outcome.run("vector train", train_op)

    def eval_op():
        code, text = cli_call("-c", str(ini), "eval", str(session / "best.ckpt"),
                              str(session / "eval_target.ds"))
        if code != 0:
            return [f"exit code {code}"]
        accuracy = json.loads(text)["overall_accuracy"]
        if accuracy != trained.get("accuracy"):
            return [f"eval of best.ckpt scores {accuracy}, train reported "
                    f"{trained.get('accuracy')}"]
        return []
    outcome.run("vector eval", eval_op)

    def compare_op():
        first = len(rec.train_calls)
        code, _ = cli_call("-c", str(ini), "compare-stopping")
        if code != 0:
            return [f"exit code {code}"]
        calls = rec.train_calls[first:]
        problems = [p for c in calls for p in call_problems(c)]
        with open(session / "compare_summary.csv", newline="") as f:
            written = [float(r["accuracy_at_argmax_V"]) for r in csv.DictReader(f)]
        if len(calls) != CLI_SEEDS or written != [c["best_accuracy"] for c in calls]:
            problems.append("compare_summary.csv disagrees with the trained runs")
        report["target_accuracy"] = statistics.median(c["best_accuracy"] for c in calls)
        report["best_V"] = statistics.median(c["best_V"] for c in calls)
        return problems
    outcome.run("vector compare-stopping", compare_op)

    image_ini, image_session = sessions["image"]
    outcome.run("image train", lambda: train_subcommand(image_ini, image_session, rec)[0])
    report["hashes"] = {f"{name}/{k}": v
                        for name, (_, directory) in sessions.items()
                        for k, v in hashes(directory).items()}
    compare_s = rec.inclusive("cli.compare_stopping")   # 0 when not traced
    return {"cli.seeds_per_s": CLI_SEEDS / compare_s if compare_s else 0.0,
            "cli.bytes_written": float(sum(f.stat().st_size
                                           for _, directory in sessions.values()
                                           for f in directory.iterdir()))}


SETUP = {"vector_shift": setup_vector, "cli_sweep": setup_cli}
# each returns the per-layer metrics only the worker itself can measure
RUN = {"vector_shift": run_vector, "cli_sweep": run_cli}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SETUP), required=True)
    parser.add_argument("--data-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="empty directory for the workload's files")
    parser.add_argument("--spans", type=Path,
                        help="record spans around every layer and write them here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = args.out.resolve()   # the CLI session changes directory
    spans = args.spans.resolve() if args.spans else None
    trace = spans is not None

    sys.path.insert(0, str(SRC))
    import duoadapt
    if Path(duoadapt.__file__).resolve().parent != SRC / "duoadapt":
        raise SystemExit(f"imported duoadapt from {duoadapt.__file__}, not {SRC}")
    import tracer
    rec = tracer.Recorder(f"{args.workload}:{args.data_seed}")
    tracer.install(rec, full=trace)

    out.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    state = SETUP[args.workload](args.data_seed, out, outcome)
    report = {"setup_s": time.perf_counter() - T0}
    if not args.setup_only:
        cli_layers = RUN[args.workload](args.data_seed, state, out, rec, outcome, report)
        train_s = rec.inclusive("train.interactive")
        report.update(
            pretrain_s=rec.inclusive("train.pretrain"), train_s=train_s,
            updates=sum(c["updates"] for c in rec.train_calls),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if trace:
            report["layers"] = {**rec.layer_metrics(), "cli.seeds_per_s": 0.0,
                                "cli.bytes_written": 0.0, **cli_layers}
            report["spans"] = rec.span_summary()
            rec.write(spans)
        report["run_s"] = time.perf_counter() - T0
    report.update(attempted=outcome.attempted, failed=outcome.failed,
                  failures=outcome.failures)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
