"""Dual-network training with per-subject small-loss selection and cross-updates.

Each iteration draws a subject-stratified mini-batch (b samples from every
source subject, B = b*N total) and runs one taped forward per network over
it. Both networks rank subjects by their summed per-sample loss from that
forward, keep the ceil(R(T)*N) smallest-loss subjects, and each network is
then updated on the mean loss over the subjects its peer selected: the same
forward is backpropagated with the logit gradient masked to the peer's
subjects. R(T) decays from 1 toward 1 - tau over the first t_k epochs and
stays flat after, so the pair gradually stops learning from consistently
high-loss subjects.

The transfer-learning baseline runs the same loop with network f alone: it
is its own peer at R = 1, so it keeps every subject and its update is the
plain mean-loss step.

On a large batch, co-teaching runs network g's half of each phase (its
forward, its update, and its validation at the end of an epoch) on one
helper thread while the calling thread runs f's, with OpenBLAS pinned to one
thread so the two threads have the cores to themselves. The arithmetic is
the same, so results are bitwise unchanged.
"""

from __future__ import annotations

import contextlib
import json
import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .blas import single_blas_thread
from .config import METHODS, CoteachConfig, ModelConfig
from .errors import ValidationError
from .heap import keep_freed_memory
from .metrics import evaluate_balanced_accuracy
from .models import Model, build_mini_resnet1d, per_sample_losses
from .optim import AdamState, adam_step, cosine_lr, sgd_step
from .seeding import derive_seed
from .tensor import Tape, Tensor, softmax_cross_entropy

# Co-teaching batches of at least this many input values (b*N*E*T) train f
# and g on two threads. Below it the interpreter lock dominates the small
# tensor operations and two threads are no faster than one.
_THREAD_MIN_VALUES = 2 ** 16


@dataclass
class SubjectBatch:
    """One stratified mini-batch: b consecutive samples per subject, ordered by id."""

    subject_ids: tuple[int, ...]
    trials: Tensor  # [N*b, E, T]
    labels: np.ndarray  # [N*b]
    b: int

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def total_samples(self) -> int:
        return self.b * self.n_subjects

    def subject_sums(self, losses: np.ndarray) -> np.ndarray:
        """Per-sample losses [N*b] summed per subject [N]."""
        return losses.reshape(self.n_subjects, self.b).sum(axis=1)

    def sample_mask(self, positions) -> np.ndarray:
        """Per-sample weight [N*b]: 1.0 for the subjects at the given positions, else 0.0."""
        keep = np.zeros(self.n_subjects)
        keep[list(positions)] = 1.0
        return np.repeat(keep, self.b)

    def subset(self, positions) -> tuple[Tensor, np.ndarray]:
        """Samples of the subjects at the given positions, in position order."""
        rows = np.concatenate([np.arange(p * self.b, (p + 1) * self.b) for p in positions])
        return Tensor(self.trials.data[rows]), self.labels[rows]


class SubjectBatcher:
    """Draws stratified batches without replacement per subject, refilling cyclically.

    Each subject's samples are consumed from a seeded permutation; a fresh
    permutation is appended whenever fewer than b indices remain, so one
    epoch pass covers the subject's dataset exactly before any repeat. The
    drawn trials are copied from the subjects' blocks straight into the batch.
    """

    def __init__(self, datasets, b: int, rng: np.random.Generator):
        if not datasets:
            raise ValidationError("batcher requires a nonempty training set")
        if b < 1:
            raise ValidationError(f"subject-wise batch size must be positive, got {b}")
        self._datasets = sorted(datasets, key=lambda ds: ds.subject_id)
        ids = [ds.subject_id for ds in self._datasets]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate subject ids in training set: {ids}")
        shapes = sorted({ds.trial_shape for ds in self._datasets})
        if len(shapes) != 1:
            raise ValidationError(f"training subjects' trials differ in shape [E, T]: {[list(s) for s in shapes]}")
        self._trial_shape = shapes[0]
        self.subject_ids = tuple(ids)
        self.b = b
        self._rng = rng
        self._queues: list[list[int]] = [[] for _ in self._datasets]

    def next_batch(self) -> SubjectBatch:
        b = self.b
        trials = np.empty((b * len(self._datasets), *self._trial_shape))
        labels = np.empty(trials.shape[0], dtype=np.int64)
        row = 0
        for i, ds in enumerate(self._datasets):
            queue = self._queues[i]
            while len(queue) < b:
                queue.extend(self._rng.permutation(ds.n_trials).tolist())
            take, self._queues[i] = queue[:b], queue[b:]
            labels[row:row + b] = ds.labels[take]
            views = ds.trial_views()
            for position in take:
                trials[row] = views[position]
                row += 1
        return SubjectBatch(subject_ids=self.subject_ids, trials=Tensor(trials), labels=labels, b=b)


@dataclass
class SelectionRecord:
    """Outcome of one network's subject ranking within one iteration."""

    epoch: int
    iteration: int
    net: str
    loss_sums: list[float]
    selected: list[int]  # subject ids, ascending
    remember_rate: float
    subject_ids: tuple[int, ...] = ()  # batch universe; not part of the JSONL schema

    def to_json(self) -> str:
        return json.dumps({
            "epoch": self.epoch,
            "iter": self.iteration,
            "net": self.net,
            "loss_sums": self.loss_sums,
            "selected": self.selected,
            "R": self.remember_rate,
        })


@dataclass
class CoteachState:
    """The co-teaching pair, or network f alone for the baseline."""

    model_f: Model
    adam_f: AdamState
    model_g: Model | None = None
    adam_g: AdamState | None = None
    optimizer: str = "adam"

    @property
    def networks(self) -> list[tuple[str, Model, AdamState]]:
        """(name, model, optimizer state) per network, in update order."""
        if self.model_g is None:
            return [("baseline", self.model_f, self.adam_f)]
        return [("f", self.model_f, self.adam_f), ("g", self.model_g, self.adam_g)]


def init_coteach_state(model_config: ModelConfig, config: CoteachConfig,
                       method: str = "coteach") -> CoteachState:
    """Architecturally identical networks with independently derived init seeds.

    The baseline builds only network f, from the same seed as co-teaching's f.
    """
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
    model_f = build_mini_resnet1d(replace(model_config, seed=derive_seed(config.seed, "model-f")))
    state = CoteachState(model_f, _fresh_adam(model_f), optimizer=config.optimizer)
    if method == "coteach":
        state.model_g = build_mini_resnet1d(replace(model_config, seed=derive_seed(config.seed, "model-g")))
        state.adam_g = _fresh_adam(state.model_g)
    return state


def _fresh_adam(model: Model) -> AdamState:
    return AdamState(np.zeros_like(model.flat), np.zeros_like(model.flat))


def remember_rate(t: int, t_k: int, tau: float) -> float:
    """R(T) = 1 - min(T/T_k * tau, tau): linear decay to 1 - tau, then flat."""
    if t < 0:
        raise ValidationError(f"epoch index must be >= 0, got {t}")
    if t_k < 1:
        raise ValidationError(f"t_k must be positive, got {t_k}")
    if not 0.0 <= tau < 1.0:
        raise ValidationError(f"tau must be in [0, 1), got {tau}")
    return 1.0 - min(t / t_k * tau, tau)


def per_subject_loss_sums(model: Model, batch: SubjectBatch) -> np.ndarray:
    """Summed cross-entropy per subject over its b samples; no gradient side effects."""
    return batch.subject_sums(per_sample_losses(model, batch.trials, batch.labels))


def select_small_loss_subjects(sums, r: float) -> list[int]:
    """Positions of the ceil(r*N) smallest loss sums, ties to the lower index, ascending."""
    sums = np.asarray(sums, dtype=np.float64)
    if sums.ndim != 1 or sums.size == 0:
        raise ValidationError("loss sums must be a nonempty vector")
    if not 0.0 < r <= 1.0:
        raise ValidationError(f"remember rate must be in (0, 1], got {r}")
    k = min(math.ceil(r * sums.size), sums.size)
    order = np.argsort(sums, kind="stable")
    return sorted(int(i) for i in order[:k])


class _TapedForward(NamedTuple):
    tape: Tape
    logits: Tensor
    losses: np.ndarray  # per-sample cross-entropy [n]
    grad: np.ndarray  # per-sample logit gradients [n, C]


def _taped_forward(model: Model, trials: Tensor, labels, stem_windows: np.ndarray | None = None) -> _TapedForward:
    """Forward on a fresh tape, kept for a later :func:`_masked_update`."""
    tape = Tape()
    logits = model.forward(trials, tape, stem_windows)
    losses, grad = softmax_cross_entropy(logits, labels)
    return _TapedForward(tape, logits, losses.data, grad.data)


def _masked_update(model: Model, opt_state: AdamState, forward: _TapedForward, mask: np.ndarray,
                   lr: float, optimizer: str) -> None:
    """Step on the mean loss over the samples whose 0/1 ``mask`` is 1, from a taped forward."""
    tape = forward.tape
    params = model.parameters()
    tape.backward(forward.grad * mask[:, None] / mask.sum(), output=forward.logits, wrt=params)
    grad = np.concatenate([tape.grad(p) for p in params], axis=None)  # in flat's order
    if optimizer == "adam":
        adam_step(model.flat, grad, opt_state, lr)
    else:
        sgd_step(model.flat, grad, lr)


def _per_network(helper: ThreadPoolExecutor | None, calls: list) -> list:
    """Each network's call, results in network order.

    With a helper, network g's call runs on it while f's runs here. This
    waits for g even when f raises, so g's call never outlives it, and f's
    error is the one raised, as on the serial path.
    """
    if helper is None:
        return [call() for call in calls]
    f_call, g_call = calls
    g_future = helper.submit(g_call)
    try:
        f_out = f_call()
    finally:
        wait([g_future])
    return [f_out, g_future.result()]


def cross_update_step(state: CoteachState, batch: SubjectBatch, lr: float, r: float,
                      epoch: int = 0, iteration: int = 0,
                      helper: ThreadPoolExecutor | None = None) -> tuple[SelectionRecord, ...]:
    """Select per network from pre-update losses, then update each on its peer's pick.

    One taped forward per network over the whole batch serves both its
    ranking and its update. The networks share one build of the stem conv's
    windows over the batch, read-only, which both tapes keep for the stem's
    kernel gradient. Every ranking is computed before any parameter
    set moves, so network g's update set cannot leak the f update made in
    the same iteration. Returns one record per network, in update order.

    ``helper``, a one-worker executor, runs g's forward and g's update
    alongside f's; ranking and records stay on the calling thread.
    """
    nets = state.networks
    stem_windows = state.model_f.stem.windows(batch.trials)  # the networks share one architecture
    forwards = _per_network(helper, [partial(_taped_forward, model, batch.trials, batch.labels, stem_windows)
                                     for _, model, _ in nets])
    sums = [batch.subject_sums(fw.losses) for fw in forwards]
    picks = [select_small_loss_subjects(s, r) for s in sums]

    ids = batch.subject_ids
    records = tuple(SelectionRecord(epoch, iteration, name, [float(x) for x in s],
                                    [ids[p] for p in pos], r, subject_ids=ids)
                    for (name, _, _), s, pos in zip(nets, sums, picks))

    # g's picks feed f, f's picks feed g; a lone network is its own peer
    _per_network(helper, [partial(_masked_update, model, adam, fw, batch.sample_mask(pos), lr, state.optimizer)
                          for (_, model, adam), fw, pos in zip(nets, forwards, picks[::-1])])
    return records


@dataclass
class Checkpoint:
    model: Model
    net: str
    epoch: int
    balanced_accuracy: float


@dataclass
class EpochStats:
    epoch: int
    remember_rate: float
    lr: float
    val_accuracy: dict[str, float]


@dataclass
class RunLogs:
    selection_records: list[SelectionRecord]
    epoch_stats: list[EpochStats]


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    logs: RunLogs


def default_m_max(train, b: int) -> int:
    """Iterations per epoch: one pass over the scarcest subject's trials."""
    return max(1, min(ds.n_trials for ds in train) // b)


@contextlib.contextmanager
def _network_g_helper(enabled: bool):
    """A one-worker executor for network g's half of each phase, or None for the serial path.

    The helper takes a core that BLAS's own threads would otherwise use, so
    it runs only where the pin replaced more than one OpenBLAS thread. Without
    a pin, or where OpenBLAS already ran one thread (a fold worker, whose
    sibling workers fill the other cores, or a one-core machine), it yields
    None. The thread lives only inside this context, so it is never alive
    across a fork of a fold worker.
    """
    if not enabled:
        yield None
        return
    with single_blas_thread() as replaced_count:
        if replaced_count is None or replaced_count < 2:
            yield None
            return
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="ctss-g") as helper:
            yield helper


def train_coteaching(train, val, model_config: ModelConfig, config: CoteachConfig,
                     epoch_callback=None, method: str = "coteach") -> TrainResult:
    """Full training run of either method; returns the best-validation network and all logs.

    The best checkpoint is the (network, epoch) pair with the highest
    validation balanced accuracy; network f wins exact ties within an epoch
    and earlier epochs win ties across epochs. The baseline trains f alone
    at R = 1 and logs no selections.
    """
    if not train or not val:
        raise ValidationError("training and validation sets must both be nonempty")
    keep_freed_memory()  # each step reuses the last one's freed activations instead of faulting them in
    m_max = default_m_max(train, config.b)
    state = init_coteach_state(model_config, config, method)
    batcher = SubjectBatcher(train, config.b,
                             np.random.default_rng(np.random.PCG64(derive_seed(config.seed, "batches"))))

    best: Checkpoint | None = None
    best_flat: np.ndarray | None = None  # the best network's parameters, snapshotted as it wins
    epoch_stats: list[EpochStats] = []
    selections: list[SelectionRecord] = []
    batch_values = config.b * len(batcher.subject_ids) * model_config.n_electrodes * model_config.n_timesteps
    with _network_g_helper(method == "coteach" and batch_values >= _THREAD_MIN_VALUES) as helper:
        for t in range(1, config.t_max + 1):
            r = remember_rate(t, config.t_k, config.tau) if method == "coteach" else 1.0
            lr = cosine_lr(t - 1, config.lr, config.t_max)
            for it in range(1, m_max + 1):
                records = cross_update_step(state, batcher.next_batch(), lr, r, epoch=t, iteration=it,
                                            helper=helper)
                if method == "coteach":
                    selections.extend(records)

            models = {name: model for name, model, _ in state.networks}
            accs = dict(zip(models, _per_network(helper, [partial(evaluate_balanced_accuracy, model, val,
                                                                  model_config.n_classes)
                                                          for model in models.values()])))
            epoch_stats.append(EpochStats(epoch=t, remember_rate=r, lr=lr, val_accuracy=accs))
            for name, model in models.items():
                if best is None or accs[name] > best.balanced_accuracy:
                    best = Checkpoint(model=model, net=name, epoch=t, balanced_accuracy=accs[name])
                    best_flat = model.flat.copy()
            if epoch_callback is not None:
                epoch_callback(t, models)

    assert best is not None
    # the winning network trained on after its best epoch: the checkpoint gets a copy rewound to it
    best.model = best.model.clone()
    best.model.flat[...] = best_flat
    return TrainResult(checkpoint=best, logs=RunLogs(selection_records=selections, epoch_stats=epoch_stats))


def write_selection_log(records, path) -> None:
    """One JSON object per line: {epoch, iter, net, loss_sums, selected, R}."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def read_selection_log(path) -> list[SelectionRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            records.append(SelectionRecord(
                epoch=obj["epoch"], iteration=obj["iter"], net=obj["net"],
                loss_sums=obj["loss_sums"], selected=obj["selected"],
                remember_rate=obj["R"],
            ))
    return records
