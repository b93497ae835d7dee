"""Span tracer that wraps ctss's public names from outside, and the per-layer metrics.

The tracer replaces a function in every ``ctss`` module namespace that binds
it (``from .tensor import softmax_cross_entropy`` makes a second binding), and
a method on its class. Each call then records a span ``[name, start, end,
parent, size]`` in memory; ``size`` is a per-call quantity such as a batch
size or a byte count. Backward closures are timed by wrapping what
``Tape.record`` receives, and are named after the primitive whose span is
open when it records them (``tensor.conv1d`` records ``tensor.conv1d.bwd``).

Nothing under ``src/`` is edited: ``uninstall`` puts every original back.

Fold workers of a ``ProcessPoolExecutor`` started with ``fork`` inherit the
wrappers. Their spans ride back on the returned fold output and are merged
into the parent's list; with another start method only parent-side spans
are recorded.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import statistics
import sys
from collections import defaultdict
from time import perf_counter

STEP = "coteaching.step"
_WORKER_ATTR = "_perfbench_spans"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)  # summed inside co-teaching steps
        self._stack: list[int] = []
        self._in_step = 0
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def enter(self, name: str, size: float = 0) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, size])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        if self._in_step:
            self.counters[key] += value

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else "untraced"

    def timed(self, fn, name, size=None, after=None, step=False):
        """``fn`` wrapped to record one span per call.

        ``name`` and ``size`` may be callables of ``(args, kwargs)``;
        ``after(args, kwargs, result)`` runs once the call returned.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = tracer.enter(label, size(args, kwargs) if size else 0)
            tracer._in_step += step
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._in_step -= step
                tracer.exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, module, attr: str, wrapper_factory) -> None:
        """Rebind ``module.attr`` in every loaded ctss module that binds the same object."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ctss" or mod_name.startswith("ctss.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, name, wrapper)

    def patch_method(self, cls, attr: str, wrapper_factory) -> None:
        if attr in cls.__dict__:
            self._replace(cls, attr, wrapper_factory(cls.__dict__[attr]))

    def install(self) -> None:
        """Wrap the public names each layer's callers look up."""
        from ctss import cli, coteaching, data, evaluate, metrics, models, optim, tensor

        fn = lambda name, **kw: (lambda orig: self.timed(orig, name, **kw))  # noqa: E731
        for attr, name in (("conv1d", "tensor.conv1d"), ("elu", "tensor.elu"), ("add", "tensor.add"),
                           ("adaptive_avg_pool1d", "tensor.pool"), ("maxpool1d", "tensor.maxpool"),
                           ("linear", "tensor.linear"), ("reshape", "tensor.reshape"),
                           ("softmax_cross_entropy", "tensor.softmax_xent")):
            after = self._conv_counts if attr == "conv1d" else None
            self.patch_function(tensor, attr, fn(name, after=after))
        self.patch_method(tensor.Tape, "record", self._record_wrapper)
        self.patch_method(tensor.Tape, "backward", fn("tensor.backward"))

        self.patch_method(models.Model, "forward", fn(_forward_name, size=lambda a, k: a[1].shape[0]))
        self.patch_method(models.Model, "clone", fn("models.clone"))
        self.patch_function(models, "save_checkpoint", fn("models.save_checkpoint"))
        self.patch_function(models, "load_checkpoint", fn("models.load_checkpoint"))

        self.patch_function(optim, "adam_step", fn("optim.adam_step"))

        self.patch_function(data, "generate_cohort", fn("data.generate_cohort"))
        self.patch_function(data, "save_raw", fn("data.save_raw"))
        self.patch_function(data, "load_raw", fn("data.load_raw"))
        self.patch_function(data, "augment_rest_class",
                            fn("data.augment_rest_class", size=lambda a, k: a[0].subject_id))
        self.patch_function(data, "train_val_split", fn("data.train_val_split"))

        self.patch_function(coteaching, "cross_update_step", fn(STEP, after=self._kept, step=True))
        self.patch_function(coteaching, "per_subject_loss_sums", fn("coteaching.select"))
        self.patch_function(coteaching, "select_small_loss_subjects", fn("coteaching.select"))
        self.patch_function(coteaching, "apply_update", fn("coteaching.update"))
        self.patch_method(coteaching.SubjectBatcher, "next_batch", fn("coteaching.batch"))

        self.patch_function(metrics, "evaluate_balanced_accuracy", fn("metrics.evaluate"))

        self.patch_function(evaluate, "run_loso", fn("evaluate.run_loso"))
        self.patch_function(evaluate, "run_fold", fn("evaluate.run_fold"))
        self.patch_function(evaluate, "_fold_task", self._worker_task_wrapper)
        if "ProcessPoolExecutor" in evaluate.__dict__:
            self._replace(evaluate, "ProcessPoolExecutor",
                          _measured_pool(evaluate.ProcessPoolExecutor, self))

        self.patch_function(cli, "cmd_run", fn("cli.cmd_run"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- special wrappers ----------------------------------------------------

    def _record_wrapper(self, original):
        tracer = self

        def record(tape, out, backward_fn):
            tracer.count("tensor.tape_entries", 1)
            name = tracer.current() + ".bwd"

            def timed_backward(gout):
                idx = tracer.enter(name)
                try:
                    return backward_fn(gout)
                finally:
                    tracer.exit(idx)

            return original(tape, out, timed_backward)

        return record

    def _conv_counts(self, args, kwargs, result) -> None:
        """Computed, not measured: multiply-adds from shapes, im2col bytes from the window matrix."""
        x, kernels = args[0], args[1]
        batch = x.shape[0] if x.ndim == 3 else 1
        c_out, c_in, k = kernels.shape
        rows = batch * result.shape[-1]
        flops = 2.0 * rows * c_out * c_in * k
        taped = kwargs.get("tape", args[5] if len(args) > 5 else None) is not None
        self.count("tensor.conv1d.flops", flops * (3 if taped else 1))  # backward: input + kernel grads
        self.count("tensor.conv1d.im2col_bytes", 8.0 * rows * c_in * k)

    def _kept(self, args, kwargs, result) -> None:
        for rec in result:
            self.counters["coteaching.kept"] += len(rec.selected) / len(rec.subject_ids)

    def _worker_task_wrapper(self, original):
        tracer = self

        @functools.wraps(original)
        def task(args):
            if os.getpid() == tracer._pid:
                return original(args)
            tracer.spans, tracer._stack, tracer.counters = [], [], defaultdict(float)
            out = original(args)
            setattr(out, _WORKER_ATTR, (tracer.spans, dict(tracer.counters)))
            return out

        return task

    def merge_worker(self, result) -> None:
        payload = result.__dict__.pop(_WORKER_ATTR, None)
        if payload is None:
            return
        spans, counters = payload
        base = len(self.spans)
        for name, start, end, parent, size in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, size])
        for key, value in counters.items():
            self.counters[key] += value


def _forward_name(args, kwargs) -> str:
    tape = kwargs.get("tape", args[2] if len(args) > 2 else None)
    return "models.forward_taped" if tape is not None else "models.forward_untaped"


def _measured_pool(base, tracer: Tracer):
    """The program's pool class, measuring pickled task and result bytes in ``map``."""

    class MeasuredPool(base):
        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            idx = tracer.enter("evaluate.pool_tasks",
                               sum(len(pickle.dumps((fn, args))) for args in zip(*iterables)))
            tracer.exit(idx)
            for result in super().map(fn, *iterables, **kwargs):
                tracer.merge_worker(result)
                idx = tracer.enter("evaluate.pool_result", len(pickle.dumps(result)))
                tracer.exit(idx)
                yield result

    return MeasuredPool


# ---------------------------------------------------------------------------
# per-layer metrics

PER_STEP_CALL_MS = {  # median inclusive milliseconds per call inside co-teaching steps
    "models.forward_taped_ms": "models.forward_taped",
    "models.forward_untaped_ms": "models.forward_untaped",
}
PER_CALL_MS = {  # median inclusive milliseconds per call
    "models.clone_ms": "models.clone",
    "models.save_checkpoint_ms": "models.save_checkpoint",
    "models.load_checkpoint_ms": "models.load_checkpoint",
    "optim.adam_step_ms": "optim.adam_step",
    "data.generate_cohort_ms": "data.generate_cohort",
    "data.save_raw_ms": "data.save_raw",
    "data.load_raw_ms": "data.load_raw",
    "data.augment_rest_class_ms": "data.augment_rest_class",
    "data.train_val_split_ms": "data.train_val_split",
    "coteaching.batch_ms": "coteaching.batch",
    "metrics.evaluate_ms": "metrics.evaluate",
    "evaluate.run_loso_ms": "evaluate.run_loso",
}
PER_STEP_SELF_MS = {  # self milliseconds summed inside one co-teaching step
    "tensor.conv1d.fwd_ms": "tensor.conv1d",
    "tensor.conv1d.bwd_ms": "tensor.conv1d.bwd",
    "tensor.elu.fwd_ms": "tensor.elu",
    "tensor.elu.bwd_ms": "tensor.elu.bwd",
    "tensor.add.fwd_ms": "tensor.add",
    "tensor.add.bwd_ms": "tensor.add.bwd",
    "tensor.pool.fwd_ms": "tensor.pool",
    "tensor.pool.bwd_ms": "tensor.pool.bwd",
    "tensor.linear.fwd_ms": "tensor.linear",
    "tensor.linear.bwd_ms": "tensor.linear.bwd",
    "tensor.softmax_xent_ms": "tensor.softmax_xent",
    "tensor.backward_ms": "tensor.backward",
}
PER_STEP_INCLUSIVE_MS = {  # inclusive milliseconds summed inside one co-teaching step
    "coteaching.select_ms": "coteaching.select",
    "coteaching.update_ms": "coteaching.update",
}
PER_UNIT_CALLS = {  # calls per timed unit
    "optim.adam_step.calls": "optim.adam_step",
    "metrics.evaluate.calls": "metrics.evaluate",
}
PER_UNIT_MB = {  # span sizes summed over one timed unit
    "evaluate.pool_task_mb": "evaluate.pool_tasks",
    "evaluate.pool_result_mb": "evaluate.pool_result",
}
OTHER = (
    "tensor.tape_entries", "tensor.conv1d.gflop", "tensor.conv1d.im2col_mb",
    "models.forwarded_samples", "models.update_sample_frac", "data.augment_reuse_frac",
    "coteaching.step_ms.p50", "coteaching.step_ms.tail", "coteaching.step_ms.tail_pct",
    "coteaching.step_ms.n", "coteaching.forwards_per_step", "coteaching.kept_frac",
    "evaluate.run_fold_ms.p50", "evaluate.run_fold_ms.max", "cli.write_outputs_ms",
)
HARNESS = (  # measured by the harness, not from spans
    "data.cohort_mb", "cli.run_dir_mb", "coteaching.py_calls_per_step",
    "trace.overhead_s", "trace.overhead_pct",
)
PER_LAYER_NAMES = (tuple(PER_STEP_CALL_MS) + tuple(PER_CALL_MS) + tuple(PER_STEP_SELF_MS)
                   + tuple(PER_STEP_INCLUSIVE_MS) + tuple(PER_UNIT_CALLS) + tuple(PER_UNIT_MB)
                   + OTHER + HARNESS)
COMPUTED = ("tensor.conv1d.gflop", "tensor.conv1d.im2col_mb")


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 99, with at least ten of ``n`` samples beyond it."""
    if n < 20:
        return 50
    return min(99, math.floor(100 * (1 - 10 / n)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def self_times(spans) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def step_of(spans) -> list[int]:
    """Index of the enclosing co-teaching step span, or -1. Parents precede children."""
    owner = [-1] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        owner[i] = i if name == STEP else (owner[parent] if parent >= 0 else -1)
    return owner


def layer_metrics(tracer: Tracer, units: list[tuple[float, float]], extra: dict) -> dict:
    """Every per-layer metric from the recorded spans; a layer that did no work reads 0.

    ``units`` are the (start, end) windows of the traced timed units, and
    ``extra`` holds the ``HARNESS`` metrics.
    """
    spans = tracer.spans
    own = self_times(spans)
    owner = step_of(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
    dur = lambda i: spans[i][2] - spans[i][1]  # noqa: E731
    steps = by_name.get(STEP, [])
    n_steps = max(len(steps), 1)
    in_step = lambda name: [i for i in by_name.get(name, []) if owner[i] >= 0]  # noqa: E731
    out: dict[str, float] = {}

    for metric, name in PER_CALL_MS.items():
        calls = by_name.get(name, [])
        out[metric] = 1e3 * statistics.median(dur(i) for i in calls) if calls else 0.0
    for metric, name in PER_STEP_CALL_MS.items():
        calls = in_step(name)
        out[metric] = 1e3 * statistics.median(dur(i) for i in calls) if calls else 0.0
    for metric, name in PER_STEP_SELF_MS.items():
        out[metric] = 1e3 * sum(own[i] for i in in_step(name)) / n_steps
    for metric, name in PER_STEP_INCLUSIVE_MS.items():
        out[metric] = 1e3 * sum(dur(i) for i in in_step(name)) / n_steps

    def per_unit(name, value):
        totals = [sum(value(i) for i in by_name.get(name, []) if lo <= spans[i][1] <= hi)
                  for lo, hi in units]
        return statistics.median(totals) if totals else 0.0

    for metric, name in PER_UNIT_CALLS.items():
        out[metric] = per_unit(name, lambda i: 1)
    for metric, name in PER_UNIT_MB.items():
        out[metric] = per_unit(name, lambda i: spans[i][4]) / 1e6

    c = tracer.counters
    out["tensor.tape_entries"] = c["tensor.tape_entries"] / n_steps
    out["tensor.conv1d.gflop"] = c["tensor.conv1d.flops"] / n_steps / 1e9
    out["tensor.conv1d.im2col_mb"] = c["tensor.conv1d.im2col_bytes"] / n_steps / 1e6
    taped = sum(spans[i][4] for i in in_step("models.forward_taped"))
    untaped = sum(spans[i][4] for i in in_step("models.forward_untaped"))
    out["models.forwarded_samples"] = (taped + untaped) / n_steps
    out["models.update_sample_frac"] = taped / (taped + untaped) if taped + untaped else 0.0
    out["coteaching.forwards_per_step"] = (len(in_step("models.forward_taped"))
                                           + len(in_step("models.forward_untaped"))) / n_steps
    out["coteaching.kept_frac"] = c["coteaching.kept"] / (2 * n_steps)

    def reuse(lo, hi):
        ids = [spans[i][4] for i in by_name.get("data.augment_rest_class", []) if lo <= spans[i][1] <= hi]
        return len(set(ids)) / len(ids) if ids else 0.0

    out["data.augment_reuse_frac"] = statistics.median(reuse(lo, hi) for lo, hi in units) if units else 0.0

    step_ms = [1e3 * dur(i) for i in steps]
    tail = tail_percentile(len(step_ms))
    out["coteaching.step_ms.p50"] = statistics.median(step_ms) if step_ms else 0.0
    out["coteaching.step_ms.tail"] = percentile(step_ms, tail) if step_ms else 0.0
    out["coteaching.step_ms.tail_pct"] = float(tail)
    out["coteaching.step_ms.n"] = float(len(step_ms))

    fold_ms = [1e3 * dur(i) for i in by_name.get("evaluate.run_fold", [])]
    out["evaluate.run_fold_ms.p50"] = statistics.median(fold_ms) if fold_ms else 0.0
    out["evaluate.run_fold_ms.max"] = max(fold_ms, default=0.0)

    writes = []
    for i in by_name.get("cli.cmd_run", []):
        loso_end = max((spans[j][2] for j in by_name.get("evaluate.run_loso", []) if spans[j][3] == i),
                       default=None)
        if loso_end is not None:
            writes.append(1e3 * (spans[i][2] - loso_end))
    out["cli.write_outputs_ms"] = statistics.median(writes) if writes else 0.0

    out.update(extra)
    return {name: float(out[name]) for name in PER_LAYER_NAMES}


def step_breakdown(tracer: Tracer, top: int = 12) -> list[tuple[str, float]]:
    """Self milliseconds per co-teaching step by span name, largest first."""
    spans = tracer.spans
    own = self_times(spans)
    owner = step_of(spans)
    n_steps = max(sum(1 for s in spans if s[0] == STEP), 1)
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if owner[i] >= 0:
            totals[span[0]] += 1e3 * own[i] / n_steps
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]


def write_spans(tracer: Tracer, path) -> None:
    """Spans as a name table plus ``[name_id, start_s, end_s, parent, size]`` rows."""
    names: dict[str, int] = {}
    rows = [[names.setdefault(name, len(names)), start, end, parent, size]
            for name, start, end, parent, size in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": list(names), "spans": rows}, fh)
