"""Benchmark runner for duoadapt: runs one workload and reports its metrics.

    python3 perfbench/run.py --workload vector_shift --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

Run it from the repository root. Each repetition runs in a fresh worker
process (perfbench/worker.py), one at a time in a closed loop: the next
repetition starts when the previous one has exited. Repetitions continue
until ``--seconds`` have passed and the workload's quality seeds have all
run, with the first seed run once more to check determinism.

With ``--trace 0`` the result carries every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
repetitions of one seed and carries every per-layer metric. The lines above
the last are a readable report; the last line is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median
from typing import Dict, List

from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
CALIBRATE = HERE / "calibrate.py"
SCRATCH = ROOT / ".perfbench"

# Distinct data seeds per run. Quality metrics are the mean over these, so
# they depend on --seed only, never on how many repetitions fit in the time.
QUALITY_SEEDS = {"vector_shift": 8, "cli_sweep": 1}
MIN_SETUP_SAMPLES = 15    # set-up is short and noisy; report the median of many
TIME_LIMIT_S = 165.0      # a run must end within 180 s
# Times are reported at a reference machine speed: each repetition's times
# are scaled by CALIBRATION_REF_S over its calibration time (calibrate.py, run
# in a process of its own before and after each worker), which cancels most
# of the drift of a shared machine. The reference is about the calibration
# time on a 2-vCPU Intel Xeon machine.
CALIBRATION_REF_S = 0.17


def data_seed(seed: int, rep: int, workload: str) -> int:
    return 1000 * seed + rep % QUALITY_SEEDS[workload]


def run_worker(workload: str, seed: int, out: Path, timeout: float,
               *flags: str) -> dict:
    """One repetition in a fresh process; a crash counts as one failed operation."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--data-seed", str(seed), "--out", str(out), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"data_seed": seed, "attempted": 1, "failed": 1,
                "failures": [f"worker timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if proc.returncode != 0 or report is None:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"data_seed": seed, "attempted": 1, "failed": 1,
                "failures": [f"worker exited {proc.returncode}: {tail}"]}
    report["data_seed"] = seed
    return report


def run_calibration(timeout: float) -> float:
    """calibrate.py's time, in a fresh process that never imports duoadapt."""
    try:
        proc = subprocess.run([sys.executable, str(CALIBRATE)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        return float(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        raise SystemExit(f"calibration failed: {exc!r}")


def hash_mismatches(reps: List[dict]) -> List[str]:
    """Repetitions whose output hashes differ from the first of their seed."""
    first: Dict[int, dict] = {}
    bad = []
    for i, rep in enumerate(reps):
        if "hashes" not in rep:
            continue
        seen = first.setdefault(rep["data_seed"], rep["hashes"])
        if rep["hashes"] != seen:
            bad.append(f"repetition {i} (data seed {rep['data_seed']}) wrote "
                       f"different bytes than the first run of its seed")
    return bad


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Run:
    """Repetitions of one workload within the time limit."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.start = time.monotonic()
        self.longest = 0.0
        self.count = 0
        self.calibration = None   # the latest calibration time

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def room_for_another(self) -> bool:
        return self.elapsed() + 1.5 * self.longest < TIME_LIMIT_S

    def rep(self, seed: int, *flags: str, calibrate: bool = False) -> dict:
        """One worker. With ``calibrate``, its calibration_s is the mean of the
        calibrations just before and just after it; consecutive calibrated
        repetitions share the one between them."""
        t = time.monotonic()
        if calibrate and self.calibration is None:
            self.calibration = run_calibration(TIME_LIMIT_S - self.elapsed())
        out = self.work / f"rep{self.count}"
        self.count += 1
        report = run_worker(self.workload, seed, out,
                            TIME_LIMIT_S - self.elapsed(), *flags)
        if calibrate:
            after = run_calibration(TIME_LIMIT_S - self.elapsed())
            report["calibration_s"] = (self.calibration + after) / 2
            self.calibration = after
        self.longest = max(self.longest, time.monotonic() - t)
        return report


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    run = Run(workload, work)
    k = QUALITY_SEEDS[workload]
    reps: List[dict] = []
    while (len(reps) <= k or run.elapsed() < seconds) and (not reps or run.room_for_another()):
        reps.append(run.rep(data_seed(seed, len(reps), workload), calibrate=True))
    setup = [r["setup_s"] for r in reps if "setup_s" in r]
    extra: List[dict] = []
    while len(setup) < MIN_SETUP_SAMPLES and run.room_for_another():
        extra.append(run.rep(data_seed(seed, 0, workload), "--setup-only",
                             calibrate=True))
        setup += [extra[-1]["setup_s"]] if "setup_s" in extra[-1] else []

    checks = hash_mismatches(reps)
    full = [r for r in reps if "run_s" in r]
    quality = {r["data_seed"]: r for r in full
               if r.get("target_accuracy") is not None}
    if len(quality) < k:
        checks.append(f"only {len(quality)} of {k} quality seeds completed")
    if not full or not setup or not quality:
        raise SystemExit(f"{workload}: no repetition completed: "
                         f"{[f for r in reps for f in r['failures']] + checks}")
    timed = [r for r in reps + extra if "setup_s" in r]

    def samples_of(scale) -> Dict[str, List[float]]:
        return {
            "setup_s": [r["setup_s"] * scale(r) for r in timed],
            "pretrain_s": [r["pretrain_s"] * scale(r) for r in full],
            "adapt_s": [(r["train_s"] - r["pretrain_s"]) * scale(r) for r in full],
            "run_s": [r["run_s"] * scale(r) for r in full],
            "updates_per_s": [r["updates"] / (r["train_s"] * scale(r)) for r in full],
            "peak_rss_mb": [r["peak_rss_mb"] for r in full],
        }
    samples = samples_of(lambda r: 1.0)
    values = {name: median(xs) for name, xs in samples_of(
        lambda r: CALIBRATION_REF_S / r["calibration_s"]).items()}
    slowdown = median(r["calibration_s"] for r in timed) / CALIBRATION_REF_S
    values["target_accuracy"] = fmean(
        q["target_accuracy"] for q in quality.values())
    values["best_V"] = fmean(q["best_V"] for q in quality.values())
    return tally(reps + extra, checks, values=values, samples=samples,
                 slowdown=slowdown, reps=full, wall_s=run.elapsed())


def tally(ran: List[dict], checks: List[str], **result) -> dict:
    """Operations attempted and failed: each worker's own, plus one failed
    operation per check run.py makes across repetitions."""
    attempted = sum(r["attempted"] for r in ran)
    result.update(attempted=attempted,
                  failed=min(attempted, sum(r["failed"] for r in ran) + len(checks)),
                  problems=[f for r in ran for f in r["failures"]] + checks)
    return result


def measure_traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    run = Run(workload, work)
    first = data_seed(seed, 0, workload)
    plain: List[dict] = []
    traced: List[dict] = []
    while not traced or (run.elapsed() < seconds and run.room_for_another()):
        plain.append(run.rep(first, calibrate=True))
        spans = SCRATCH / "spans" / f"{workload}-seed{seed}-{len(traced)}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced.append(run.rep(first, "--spans", str(spans), calibrate=True))

    checks = hash_mismatches(plain + traced)
    plain_ok = [r for r in plain if "run_s" in r]
    traced_ok = [r for r in traced if "layers" in r]
    # Each traced repetition against the untraced one just before it, both
    # at the reference speed by their own calibrations, so drift cancels.
    def at_ref(r):
        return r["run_s"] * CALIBRATION_REF_S / r["calibration_s"]
    pairs = [(at_ref(p), at_ref(t)) for p, t in zip(plain, traced)
             if "run_s" in p and "layers" in t]
    if not pairs:
        raise SystemExit(f"{workload}: no untraced/traced pair completed: "
                         f"{[f for r in plain + traced for f in r['failures']]}")
    for r in traced_ok:
        counted = r["layers"]["autodiff.optimizer_updates"]
        if counted != r["updates"]:
            checks.append(f"traced run counted {counted:.0f} optimizer updates, "
                          f"the schedule implies {r['updates']}")
    values = {name: median(r["layers"][name] for r in traced_ok)
              for name in traced_ok[0]["layers"]}
    values["trace.overhead_s"] = median(t - p for p, t in pairs)
    values["trace.overhead_frac"] = median((t - p) / p for p, t in pairs)
    return tally(plain + traced, checks, values=values, samples={},
                 reps=plain_ok + traced_ok, spans=traced_ok[0]["spans"],
                 overhead_pairs=len(pairs), wall_s=run.elapsed())


def blas_info() -> dict:
    """BLAS name, version and the thread count in effect (not pinned)."""
    import ctypes

    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = None
    info["blas_threads"] = None
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():   # an exported checkout has no commit
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10)
            commit = commit.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": src_digest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            **blas_info(), "seed": seed,
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in SRC.rglob("*.py"))}


def fmt(x) -> str:
    return "-" if x is None else f"{x:.6g}"


def report(workload: str, result: dict, units: Dict[str, str]) -> None:
    print(f"== {workload}: {len(result['reps'])} repetitions in "
          f"{result['wall_s']:.1f} s")
    if "overhead_pairs" in result:
        print(f"  trace.overhead_* are medians over {result['overhead_pairs']} "
              f"adjacent untraced/traced pairs")
    if "slowdown" in result:
        print(f"  median calibration {result['slowdown']:.4g}x the reference; each "
              f"repetition's times are scaled by its own calibration")
    for name, value in result["values"].items():
        line = f"  {name:32s} {fmt(value):>12s} {units.get(name, '')}"
        xs = result["samples"].get(name)
        if xs:
            s = summarize(xs)
            pct = (f"p{s['pct']} {fmt(s['pct_value'])}" if s["pct"] is not None
                   else "no percentile with 10 samples above it")
            line += f"   (measured: median {fmt(s['median'])} of n={s['n']}; {pct})"
        print(line)
    print(f"  {'error_rate':32s} {result['failed'] / max(result['attempted'], 1):12.6g} "
          f"fraction ({result['failed']} of {result['attempted']} operations failed)")
    if "spans" in result:
        print(f"  {'span':26s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} "
              f"{'median_s':>10s}  high percentile")
        for name, s in sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            pct = f"p{s['pct']} {fmt(s['pct_value'])}" if s["pct"] is not None else "-"
            print(f"  {name:26s} {s['n']:7d} {s['total_s']:9.4f} {s['self_s']:9.4f} "
                  f"{s['median']:10.3g}  {pct}")
    oracle = json.loads((HERE / "oracle.json").read_text()).get(workload, {})
    for rep in result["reps"][:QUALITY_SEEDS[workload]]:
        expected = oracle.get(str(rep["data_seed"]))
        verdict = ("no oracle" if expected is None
                   else "matches oracle" if expected == rep.get("hashes")
                   else "differs from oracle")
        print(f"  data seed {rep['data_seed']}: {verdict}: "
              + json.dumps(rep.get("hashes", {}), sort_keys=True))
    for p in result["problems"]:
        print(f"  FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "duoadapt" / "__init__.py").is_file():
        print(f"error: no duoadapt package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    work = SCRATCH / f"work-{os.getpid()}"
    results = {}
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            measure_fn = measure_traced if args.trace else measure
            result = measure_fn(workload, args.seed, args.seconds, work / workload)
            missing = set(units) - set(result["values"])
            if missing:
                raise SystemExit(f"{workload}: metrics not measured: {sorted(missing)}")
            report(workload, result, units)
            results[workload] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))

    def metrics(result, prefix=""):
        return {prefix + name: {"value": result["values"][name], "unit": unit}
                for name, unit in units.items() if name in result["values"]}
    if args.workload == "all":
        out_metrics = {k: v for w, r in results.items() for k, v in metrics(r, w + ".").items()}
    else:
        out_metrics = metrics(results[args.workload])
    print(json.dumps({
        "correct": all(not r["problems"] and not r["failed"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": out_metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
