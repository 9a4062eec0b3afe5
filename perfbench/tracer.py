"""Span recorder and the wrappers that time calls into duoadapt's modules.

Every wrapper is installed from outside the package: the wrapped function is
replaced at every module attribute of ``duoadapt`` that binds it (``train``
imports ``extract`` by name, ``cli`` imports ``train_interactive`` by name,
and so on), and methods are replaced on their class. A wrapper passes its
arguments and result through unchanged and draws from no RNG, so a traced
run trains the same model, byte for byte, as an untraced one.

A span records its name, start, end, parent span and run id. Spans stay in
memory until the worker writes them out at the end of its run.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# per-layer metric -> span name whose inclusive time it reports
LAYER_TIMES = {
    "autodiff.backward_s": "autodiff.backward",
    "autodiff.conv2d_fwd_s": "autodiff.conv2d_fwd",
    "autodiff.conv2d_bwd_s": "autodiff.conv2d_bwd",
    "autodiff.batch_norm_s": "autodiff.batch_norm",
    "autodiff.maxpool_s": "autodiff.maxpool",
    "autodiff.optimizer_s": "autodiff.optimizer",
    "losses.mmd_s": "losses.mmd",
    "losses.kernel_resolve_s": "losses.kernel_resolve",
    "losses.cross_entropy_s": "losses.cross_entropy",
    "losses.nt_xent_s": "losses.nt_xent",
    "data.augment_s": "data.augment",
    "data.gen_s": "data.gen",
    "data.spectrogram_s": "data.spectrogram",
    "data.io_s": "data.io",
    "model.extract_s": "model.extract",
    "model.ckpt_capture_s": "model.ckpt_capture",
    "model.ckpt_io_s": "model.ckpt_io",
    "model.ensemble_s": "model.ensemble",
    "train.sampler_s": "train.sampler",
    "train.reward_s": "train.reward",
    "train.accuracy_s": "train.accuracy",
    "cli.gen_data_s": "cli.gen_data",
    "cli.train_s": "cli.train",
    "cli.eval_s": "cli.eval",
    "cli.compare_stopping_s": "cli.compare_stopping",
    **{f"train.step_s.S{k}": f"train.step.S{k}" for k in range(1, 7)},
}

# per-layer metric -> span name whose call count it reports
LAYER_CALLS = {
    "autodiff.backward_calls": "autodiff.backward",
    "autodiff.optimizer_updates": "autodiff.optimizer",
    "losses.mmd_calls": "losses.mmd",
}

# per-layer metric -> counter the wrappers add to
LAYER_COUNTS = {
    "autodiff.nodes": "nodes",
    "autodiff.conv2d_flops": "conv2d_flops",
    "autodiff.conv2d_bytes": "conv2d_bytes",
    "data.io_bytes": "data_io_bytes",
    "model.extract_rows": "extract_rows",
    "model.ckpt_capture_bytes": "ckpt_capture_bytes",
    "model.ckpt_io_bytes": "ckpt_io_bytes",
}


class Recorder:
    """Spans and counters of one worker run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index or -1, outermost of its name]
        self.spans: List[list] = []
        self._open: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.train_calls: List[dict] = []
        self.distinct_rows: set = set()
        # checkpoints captured (id -> weak reference) and those since
        # restored or saved; Checkpoint is an unhashable dataclass
        self.captured: Dict[int, weakref.ref] = {}
        self.used: set = set()

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        outermost = all(self.spans[j][0] != name for j in self._open)
        self.spans.append([name, time.perf_counter(), None, parent, outermost])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        timed.__wrapped__ = fn
        return timed

    def inclusive(self, name: str) -> float:
        """Wall time inside spans of ``name``, nested repeats counted once."""
        return sum((s[2] - s[1] for s in self.spans if s[0] == name and s[4]), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def layer_metrics(self) -> Dict[str, float]:
        out = {m: self.inclusive(n) for m, n in LAYER_TIMES.items()}
        out.update({m: float(self.calls(n)) for m, n in LAYER_CALLS.items()})
        out.update({m: float(self.counts[c]) for m, c in LAYER_COUNTS.items()})
        backward = out["autodiff.backward_calls"]
        out["autodiff.nodes_per_backward"] = (
            out["autodiff.nodes"] / backward if backward else 0.0)
        out["model.extract_reuse"] = (
            out["model.extract_rows"] / len(self.distinct_rows)
            if self.distinct_rows else 0.0)
        captured = self.counts["ckpt_captured"]
        out["train.ckpt_kept_ratio"] = (
            self.counts["ckpt_used"] / captured if captured else 0.0)
        return out

    def span_summary(self) -> Dict[str, dict]:
        """Per span name: duration statistics, total and self time."""
        durations: Dict[str, List[float]] = defaultdict(list)
        own: Dict[str, float] = defaultdict(float)
        for span, s in zip(self.spans, self_times(self.spans)):
            durations[span[0]].append(span[2] - span[1])
            own[span[0]] += s
        return {name: {**summarize(d), "total_s": sum(d), "self_s": own[name]}
                for name, d in durations.items()}

    def write(self, path) -> None:
        """Write the spans as JSON lines with their self time."""
        own = self_times(self.spans)
        with open(path, "w") as f:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent, "self": own[i]}) + "\n")


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), kids in zip(spans, children):
        clipped = [(max(a, start), min(b, end)) for a, b in kids if b > start and a < end]
        out.append((end - start) - union_length(clipped))
    return out


# -- installing the wrappers --------------------------------------------------

def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every duoadapt module."""
    sites = 0
    for name, mod in list(sys.modules.items()):
        if name != "duoadapt" and not name.startswith("duoadapt."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                sites += 1
    if sites == 0:
        raise RuntimeError(f"no binding site found for {original!r}")


def _patch_function(module, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, make(original))


def _patch_method(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _updates(n_rows: int, batch_size: int) -> int:
    """Optimizer updates in one pretraining epoch (batches of one row are skipped)."""
    return n_rows // batch_size + (1 if n_rows % batch_size >= 2 else 0)


def install(rec: Recorder, full: bool) -> None:
    """Wrap the training entry points; with ``full`` also every layer."""
    from duoadapt import train

    _patch_function(train, "pretrain_contrastive",
                    lambda f: rec.wrap("train.pretrain", f))
    _patch_function(train, "train_interactive",
                    lambda f: _wrap_train_interactive(rec, f))
    if full:
        _install_layers(rec)


def _wrap_train_interactive(rec: Recorder, fn: Callable) -> Callable:
    signature = inspect.signature(fn)
    timed = rec.wrap("train.interactive", fn)

    def wrapper(*args, **kwargs):
        result = timed(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        source, target = bound.arguments["source"], bound.arguments["target"]
        cfg = bound.arguments["cfg"]
        rows = result.trace.rows
        best = next(r for r in rows if r.checkpoint_id == result.best_checkpoint_id)
        losses = [v for r in rows for v in r.losses.values()]
        losses += [result.trace.pretrain_loss_s, result.trace.pretrain_loss_t]
        accuracies = [r.target_accuracy for r in rows if r.target_accuracy is not None]
        rec.train_calls.append({
            "updates": cfg.pretrain_epochs * (_updates(len(source), cfg.batch_size)
                                              + _updates(len(target), cfg.batch_size))
                       + len(rows) * 6 * cfg.iters_per_step,
            "losses_finite": all(math.isfinite(v) for v in losses),
            "in_unit_range": all(0.0 <= v <= 1.0
                                 for v in [r.V for r in rows] + accuracies),
            "best_V": best.V,
            "best_accuracy": best.target_accuracy,
        })
        return result
    return wrapper


def _install_layers(rec: Recorder) -> None:
    import numpy as np

    from duoadapt import autodiff, cli, data, losses, model, train
    from duoadapt.autodiff import Adam, Tensor
    from duoadapt.losses import KernelSpec
    from duoadapt.model import Checkpoint
    from duoadapt.train import BatchSampler

    counts = rec.counts

    def count_nodes(fn):
        def wrapper(data_, parents, op, backward):
            out = fn(data_, parents, op, backward)
            if out._backward is not None:
                counts["nodes"] += 1
            return out
        return wrapper
    _patch_method(Tensor, "_from_op", count_nodes)
    _patch_method(Tensor, "backward", lambda f: rec.wrap("autodiff.backward", f))
    _patch_method(Adam, "step", lambda f: rec.wrap("autodiff.optimizer", f))

    def timed_conv(fn):
        forward = rec.wrap("autodiff.conv2d_fwd", fn)

        def wrapper(x, w, stride=1, padding=0):
            out = forward(x, w, stride, padding)
            # computed from shapes, not measured: multiply-adds of the
            # im2col contraction, and operand, result and im2col sizes
            n, c, h, wd = x.shape
            o, _, k, _ = w.shape
            h, wd = h + 2 * padding, wd + 2 * padding
            oh, ow = (h - k) // stride + 1, (wd - k) // stride + 1
            cols = n * c * k * k * oh * ow
            flops = 2 * n * o * c * k * k * oh * ow
            counts["conv2d_flops"] += flops
            counts["conv2d_bytes"] += 8 * (n * c * h * wd + w.size + out.size + cols)
            if out._backward is not None:
                back = rec.wrap("autodiff.conv2d_bwd", out._backward)

                def backward(g):
                    counts["conv2d_flops"] += 2 * flops
                    counts["conv2d_bytes"] += 8 * (out.size + 2 * cols
                                                   + n * c * h * wd + w.size)
                    back(g)
                out._backward = backward
            return out
        return wrapper
    _patch_function(autodiff, "conv2d", timed_conv)
    _patch_function(autodiff, "batch_norm", lambda f: rec.wrap("autodiff.batch_norm", f))

    def timed_pool(fn):
        forward = rec.wrap("autodiff.maxpool", fn)

        def wrapper(x):
            out = forward(x)
            if out._backward is not None:
                out._backward = rec.wrap("autodiff.maxpool", out._backward)
            return out
        return wrapper
    _patch_function(autodiff, "maxpool2x2", timed_pool)

    _patch_function(losses, "mmd_squared", lambda f: rec.wrap("losses.mmd", f))
    _patch_method(KernelSpec, "resolve", lambda f: rec.wrap("losses.kernel_resolve", f))
    for name in ("cross_entropy_hard", "cross_entropy_soft"):
        _patch_function(losses, name, lambda f: rec.wrap("losses.cross_entropy", f))
    _patch_function(losses, "nt_xent", lambda f: rec.wrap("losses.nt_xent", f))

    def note_rows(*datasets):
        for ds in datasets:
            arr = np.ascontiguousarray(ds.inputs.data).reshape(len(ds), -1)
            rec.distinct_rows.update(hashlib.sha1(row.tobytes()).digest() for row in arr)

    def timed_gen(fn):
        timed = rec.wrap("data.gen", fn)

        def wrapper(spec):
            out = timed(spec)
            note_rows(out[0], out[2])
            return out
        return wrapper
    _patch_function(data, "gen_synthetic_pda", timed_gen)
    _patch_function(data, "spectrogram_ingest", lambda f: rec.wrap("data.spectrogram", f))
    _patch_function(data, "augment_pair", lambda f: rec.wrap("data.augment", f))

    def timed_save_dataset(fn):
        timed = rec.wrap("data.io", fn)

        def wrapper(path, ds):
            timed(path, ds)
            counts["data_io_bytes"] += os.path.getsize(path)
        return wrapper

    def timed_load_dataset(fn):
        timed = rec.wrap("data.io", fn)

        def wrapper(path):
            ds = timed(path)
            counts["data_io_bytes"] += os.path.getsize(path)
            note_rows(ds)
            return ds
        return wrapper
    _patch_function(data, "save_dataset", timed_save_dataset)
    _patch_function(data, "load_dataset", timed_load_dataset)

    def timed_extract(fn):
        timed = rec.wrap("model.extract", fn)

        def wrapper(m, x, domain_of_x):
            counts["extract_rows"] += x.shape[0]
            return timed(m, x, domain_of_x)
        return wrapper
    _patch_function(model, "extract", timed_extract)
    _patch_function(model, "ensemble_predict", lambda f: rec.wrap("model.ensemble", f))

    def timed_capture(fn):
        timed = rec.wrap("model.ckpt_capture", fn)

        def wrapper(cls, *args, **kwargs):
            ckpt = timed(cls, *args, **kwargs)
            counts["ckpt_captured"] += 1
            counts["ckpt_capture_bytes"] += sum(a.nbytes for a in ckpt.arrays.values())
            rec.captured[id(ckpt)] = weakref.ref(ckpt)
            rec.used.discard(id(ckpt))
            return ckpt
        return wrapper
    _patch_method(Checkpoint, "capture", timed_capture)

    def mark_used(ckpt):
        ref = rec.captured.get(id(ckpt))
        if ref is not None and ref() is ckpt and id(ckpt) not in rec.used:
            rec.used.add(id(ckpt))
            counts["ckpt_used"] += 1

    def noting_restore(fn):
        def wrapper(self, ms, mt):
            mark_used(self)
            return fn(self, ms, mt)
        return wrapper
    _patch_method(Checkpoint, "restore", noting_restore)

    def timed_save_ckpt(fn):
        timed = rec.wrap("model.ckpt_io", fn)

        def wrapper(path, ckpt):
            mark_used(ckpt)
            timed(path, ckpt)
            counts["ckpt_io_bytes"] += os.path.getsize(path)
        return wrapper

    def timed_load_ckpt(fn):
        timed = rec.wrap("model.ckpt_io", fn)

        def wrapper(path):
            ckpt = timed(path)
            counts["ckpt_io_bytes"] += os.path.getsize(path)
            return ckpt
        return wrapper
    _patch_function(model, "save_checkpoint", timed_save_ckpt)
    _patch_function(model, "load_checkpoint", timed_load_ckpt)

    def timed_step(fn):
        def wrapper(step, *args, **kwargs):
            index = rec.begin(f"train.step.S{step.value}")
            try:
                return fn(step, *args, **kwargs)
            finally:
                rec.end(index)
        return wrapper
    _patch_function(train, "run_step", timed_step)
    for name in ("source_batch", "target_batch"):
        _patch_method(BatchSampler, name, lambda f: rec.wrap("train.sampler", f))
    _patch_function(train, "compute_reward", lambda f: rec.wrap("train.reward", f))
    _patch_function(train, "ensemble_accuracy", lambda f: rec.wrap("train.accuracy", f))

    for span, attr in (("cli.gen_data", "cmd_gen_data"), ("cli.train", "cmd_train"),
                       ("cli.eval", "cmd_eval"),
                       ("cli.compare_stopping", "cmd_compare_stopping")):
        _patch_function(cli, attr, lambda f, span=span: rec.wrap(span, f))


def summarize(values: List[float]) -> Dict[str, Optional[float]]:
    """Median, sample count, and the highest whole percentile that has at
    least ten samples above it (None with ten samples or fewer)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    median = xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2
    out: Dict[str, Optional[float]] = {"median": median, "n": n,
                                       "pct": None, "pct_value": None}
    if n > 10:
        pct = (100 * (n - 10)) // n
        rank = -(-pct * n // 100)          # nearest rank, ceil(pct * n / 100)
        out["pct"], out["pct_value"] = pct, xs[max(rank, 1) - 1]
    return out
