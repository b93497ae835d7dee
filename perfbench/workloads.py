"""The three workloads: their recipes, set-up, timed units and output checks.

Set-up runs ``ctss generate`` in a fresh interpreter, so ``setup_s`` covers
interpreter start, ``import ctss``, cohort generation and ``save_raw``. A
timed unit is one repetition of the workload's work; the checks after it are
not timed. Every call into ctss looks its target up on the module at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

N_SETUP = 5  # set-up repeats per run; setup_s is their median
NOISY = (3, 7)
FULL_TARGET = 0  # held-out subject of fold-fullsize, one of the clean subjects

# The acceptance recipe of criteria 6 and 7: 10 subjects, E=4, T=64, width 4,
# one stage, t_max 30, b=8 (B=72). The cohort seed derives from the run seed
# the way the acceptance suite derives it from a master seed.
SMALL_INI = """\
[generator]
n_subjects = 10
n_imagery_classes = 2
trials_per_class = 8
n_electrodes = 4
n_timesteps = 64
snr = 0.8
subject_shift_scale = 0.3
noisy_subject_ids = 3, 7
seed = {cohort_seed}

[model]
width_base = 4
n_blocks = 1

[coteach]
tau = 0.2
t_k = 10
t_max = 30
b = 8
lr = 0.01

[run]
master_seed = {seed}
val_ratio = 0.9
cohort_file = {cohort}
"""

# The CLI defaults (E=4, T=750, width 8, one stage, b=8, B=72) with the two
# noisy subjects of the small recipe. t_max and t_k are cut together so that
# R(T) still reaches 1 - tau by the last epoch.
FULL_INI = """\
[generator]
noisy_subject_ids = 3, 7
seed = {cohort_seed}

[coteach]
t_max = 3
t_k = 2

[run]
master_seed = {seed}
cohort_file = {cohort}
"""


class Ledger:
    """Operations attempted and failed; a failure is an exception, a bad exit or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # every failure counts and the run goes on
            self.failed += 1
            print(f"perfbench: {what} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    ledger: Ledger
    store: object  # outputs.DigestStore
    setup_s: list[float] = field(default_factory=list)  # wall seconds per set-up
    cohort_bytes: int = 0
    samples_per_unit: int = 0


@dataclass
class Unit:
    start: float
    end: float
    digests: dict[str, str]
    bacc: float = float("nan")
    gap: float = float("nan")
    run_dir_bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def cli_main(argv) -> int:
    """``ctss`` in-process, its stdout kept off the benchmark's stdout."""
    import ctss.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return ctss.cli.main(argv)


def sel_gap(freqs: dict) -> float:
    """Clean-minus-noisy selection frequency (the acceptance criterion 6 statistic)."""
    clean = [v for sid, v in freqs.items() if int(sid) not in NOISY]
    noisy = [v for sid, v in freqs.items() if int(sid) in NOISY]
    return sum(clean) / len(clean) - sum(noisy) / len(noisy)


class Workload:
    name = ""
    recipe = ""  # workloads with one recipe share a cohort path, so their outputs compare bitwise
    ini = ""

    def __init__(self, ctx: Context):
        from ctss.seeding import derive_seed

        self.ctx = ctx
        self.dir = ctx.work / f"{self.recipe}-s{ctx.seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cohort = self.dir / "cohort.ctss"
        self.ini_path = self.dir / "experiment.ini"
        self.ini_path.write_text(self.ini.format(cohort_seed=derive_seed(ctx.seed, "cohort"),
                                                 seed=ctx.seed, cohort=self.rel(self.cohort)),
                                 encoding="utf-8")
        self.first: dict[str, str] = {}

    def rel(self, path: Path) -> str:
        return path.relative_to(self.ctx.root).as_posix()

    def setup(self) -> None:
        """Generate the cohort N_SETUP times in fresh interpreters; each file must be identical."""
        ctx = self.ctx
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ctx.root / "src"), env.get("PYTHONPATH")]))
        hashes = set()
        for _ in range(N_SETUP):
            self.cohort.unlink(missing_ok=True)
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "ctss.cli", "generate", "--config",
                                   self.rel(self.ini_path), "--out", self.rel(self.cohort)],
                                  cwd=ctx.root, env=env, capture_output=True, timeout=120)
            ctx.setup_s.append(perf_counter() - t0)
            if ctx.ledger.check(f"ctss generate exit {proc.returncode}: {proc.stderr.decode()[-500:]}",
                                proc.returncode == 0 and self.cohort.exists()):
                hashes.add(hashlib.sha256(self.cohort.read_bytes()).hexdigest())
        ctx.ledger.check("generated cohorts differ between set-ups", len(hashes) == 1)
        for digest in hashes:
            ctx.ledger.check("cohort differs from an earlier run", ctx.store.check(f"cohort-{self.recipe}",
                                                                                     ctx.seed, digest))
        ctx.cohort_bytes = self.cohort.stat().st_size

        from ctss.config import load_config
        from ctss.data import load_raw

        self.cfg = load_config(self.ini_path)
        self.cohort_data = load_raw(self.cohort)
        self.subjects = {ds.subject_id: ds for ds in self.cohort_data}
        ctx.samples_per_unit = self.samples_per_unit()

    def fold_m_max(self, target: int) -> int:
        """Iterations per epoch of one fold, through the program's public split functions."""
        from ctss.coteaching import default_m_max
        from ctss.data import augment_rest_class, loso_split, train_val_split

        source, _ = loso_split(self.cohort_data, target)
        source = [augment_rest_class(ds, self.cfg.generator) for ds in source]
        train, _ = train_val_split(source, self.cfg.run.val_ratio, 0)
        return default_m_max(train, self.cfg.coteach.b)

    def batch_size(self) -> int:
        return self.cfg.coteach.b * (len(self.cohort_data) - 1)

    def record(self, kind: str, digest: str) -> None:
        """Every repeat must match the run's first one and any earlier run's."""
        ctx = self.ctx
        first = self.first.setdefault(kind, digest)
        ctx.ledger.check(f"{kind} output differs between repeats", digest == first)
        ctx.ledger.check(f"{kind} output differs from an earlier run on seed {ctx.seed}",
                         ctx.store.check(kind, ctx.seed, digest))

    def check_log(self, path: Path, m_max: int) -> None:
        with open(path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        self.ctx.ledger.check(f"{path.name}: {lines} records, expected {2 * self.cfg.coteach.t_max * m_max}",
                              lines == 2 * self.cfg.coteach.t_max * m_max)


class Loso(Workload):
    recipe = "small"
    ini = SMALL_INI
    methods = ("coteach", "baseline")
    parallel_folds = 1

    def samples_per_unit(self) -> int:
        self.m_max = {ds.subject_id: self.fold_m_max(ds.subject_id) for ds in self.cohort_data}
        per_method = sum(self.cfg.coteach.t_max * m * self.batch_size() for m in self.m_max.values())
        return per_method * len(self.methods)

    def after_run(self, out: Path, k: int) -> None:
        """Untimed work on repeat ``k``'s run directory before it is deleted."""

    def run(self, out: Path, method: str, parallel_folds: int) -> int:
        argv = ["run", "--config", self.rel(self.ini_path), "--out", self.rel(out), "--method", method]
        if parallel_folds > 1:
            argv += ["--parallel-folds", str(parallel_folds)]
        return cli_main(argv)

    def unit(self, k: int) -> Unit:
        ledger = self.ctx.ledger
        outs = {m: self.dir / f"run{k}-{m}" for m in self.methods}
        start = perf_counter()
        codes = {m: ledger.call(f"ctss run --method {m}", self.run, outs[m], m, self.parallel_folds)
                 for m in self.methods}
        end = perf_counter()
        unit = Unit(start, end, {})
        for method, out in outs.items():
            if not ledger.check(f"ctss run --method {method} exit {codes[method]}", codes[method] == 0):
                continue
            unit.digests[f"loso-{method}"] = ledger.call("digest", self.verify_run, out, method, unit)
            self.after_run(out, k)
            shutil.rmtree(out, ignore_errors=True)
        for kind, digest in unit.digests.items():
            if digest is not None:
                self.record(kind, digest)
        return unit

    def verify_run(self, out: Path, method: str, unit: Unit) -> str:
        """Rescore every fold checkpoint and check the selection logs; returns the run's digest."""
        from ctss.data import augment_rest_class
        from ctss.metrics import evaluate_balanced_accuracy
        from ctss.models import load_checkpoint
        from outputs import dir_bytes, digest_dir

        ledger = self.ctx.ledger
        n_classes = self.cfg.generator.n_imagery_classes + 1
        with open(out / "results.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ledger.check(f"{method}: {len(rows)} folds in results.csv", len(rows) == len(self.cohort_data))
        for row in rows:
            sid = int(row["target_subject"])
            fold = out / f"fold_{sid:03d}"
            model = load_checkpoint(fold / "checkpoint.bin")
            target = augment_rest_class(self.subjects[sid], self.cfg.generator)
            acc = evaluate_balanced_accuracy(model, target, n_classes)
            ledger.check(f"{method} fold {sid}: rescored checkpoint {acc!r} != {row['balanced_accuracy']}",
                         repr(acc) == row["balanced_accuracy"])
            if method == "coteach":
                self.check_log(fold / "selections.jsonl", self.m_max[sid])
        if method == "coteach":
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            unit.bacc = summary["mean_balanced_accuracy"]
            unit.gap = sel_gap(summary["selection_frequencies"])
            unit.run_dir_bytes = dir_bytes(out)
        return digest_dir(out)


class LosoSmall(Loso):
    name = "loso-small"


class LosoSmallPar2(Loso):
    name = "loso-small-par2"
    methods = ("coteach",)
    parallel_folds = 2

    def setup(self) -> None:
        super().setup()
        self.sequential_known = self.ctx.store.get("loso-coteach", self.ctx.seed) is not None

    def after_run(self, out: Path, k: int) -> None:
        """Compare one fold with a sequential ``run_fold`` when no sequential digest is stored.

        With a stored digest the whole run directory was already compared
        with the sequential run's in ``record``. The fold rotates with the seed.
        """
        if not (self.sequential_known or k):
            self.ctx.ledger.call("sequential fold check", self.compare_fold, out)

    def compare_fold(self, out: Path) -> None:
        import ctss.coteaching
        import ctss.evaluate
        import ctss.models

        cfg = self.cfg
        target = self.cohort_data[self.ctx.seed % len(self.cohort_data)].subject_id
        fold = ctss.evaluate.run_fold(self.cohort_data, target, "coteach", cfg.model_config(), cfg.coteach,
                                      cfg.generator, master_seed=cfg.run.master_seed,
                                      val_ratio=cfg.run.val_ratio)
        ref = self.dir / "sequential"
        ref.mkdir(exist_ok=True)
        ctss.models.save_checkpoint(fold.checkpoint.model, ref / "checkpoint.bin")
        ctss.coteaching.write_selection_log(fold.selection_records, ref / "selections.jsonl")
        for name in ("checkpoint.bin", "selections.jsonl"):
            self.ctx.ledger.check(f"--parallel-folds 2 fold {target} {name} differs from sequential run_fold",
                                  (ref / name).read_bytes() == (out / f"fold_{target:03d}" / name).read_bytes())
        shutil.rmtree(ref, ignore_errors=True)


class FoldFullsize(Workload):
    """One fold at full size.

    Its ``bacc_mean`` is the fold's best validation balanced accuracy (the
    checkpoint-selection score), not the held-out subject's: with one
    held-out subject and three epochs, that accuracy reads 1.0 for most seeds
    but chance for about one seed in five (seeds 43 and 44 of 41-50). The
    held-out score still enters the output digest and the rescore check.
    """

    name = "fold-fullsize"
    recipe = "full"
    ini = FULL_INI

    def samples_per_unit(self) -> int:
        self.m_max = self.fold_m_max(FULL_TARGET)
        return self.cfg.coteach.t_max * self.m_max * self.batch_size()

    def unit(self, k: int) -> Unit:
        ledger = self.ctx.ledger
        out = self.dir / f"fold{k}"
        out.mkdir(parents=True, exist_ok=True)
        start = perf_counter()
        result = ledger.call("fold", self.fold, out)
        end = perf_counter()
        unit = Unit(start, end, {})
        if result is not None:
            from ctss.evaluate import final_epoch_window, selection_frequency_report

            fold, rescored = result
            record = fold.record
            ledger.check(f"rescored checkpoint {rescored!r} != fold accuracy {record.balanced_accuracy!r}",
                         rescored == record.balanced_accuracy)
            self.check_log(out / "selections.jsonl", self.m_max)
            (out / "record.json").write_text(json.dumps(asdict(record), sort_keys=True), encoding="utf-8")
            from outputs import digest_dir

            unit.digests["fold-fullsize"] = digest_dir(out)
            report = selection_frequency_report(fold.selection_records, final_epoch_window(self.cfg.coteach.t_max))
            unit.bacc = fold.checkpoint.balanced_accuracy  # see FoldFullsize
            unit.gap = sel_gap({sid: row["pooled"] for sid, row in report.items()})
            self.record("fold-fullsize", unit.digests["fold-fullsize"])
        shutil.rmtree(out, ignore_errors=True)
        return unit

    def fold(self, out: Path):
        """The timed section: load the cohort, train one fold, save, reload and rescore its checkpoint."""
        import ctss.coteaching
        import ctss.data
        import ctss.evaluate
        import ctss.metrics
        import ctss.models

        cfg = self.cfg
        cohort = ctss.data.load_raw(self.cohort)
        fold = ctss.evaluate.run_fold(cohort, FULL_TARGET, "coteach", cfg.model_config(), cfg.coteach,
                                      cfg.generator, master_seed=cfg.run.master_seed,
                                      val_ratio=cfg.run.val_ratio)
        ctss.models.save_checkpoint(fold.checkpoint.model, out / "checkpoint.bin")
        ctss.coteaching.write_selection_log(fold.selection_records, out / "selections.jsonl")
        model = ctss.models.load_checkpoint(out / "checkpoint.bin")
        target = ctss.data.augment_rest_class(next(ds for ds in cohort if ds.subject_id == FULL_TARGET),
                                              cfg.generator)
        rescored = ctss.metrics.evaluate_balanced_accuracy(model, target, cfg.generator.n_imagery_classes + 1)
        return fold, rescored


WORKLOADS = {w.name: w for w in (LosoSmall, LosoSmallPar2, FoldFullsize)}


def count_step_calls(workload: Workload, steps: int = 3) -> float:
    """Python and builtin calls per co-teaching step, counted exactly with ``sys.setprofile``.

    Runs untimed and untraced on the workload's first fold with selection active (R = 1 - tau).
    """
    import numpy as np
    from ctss.coteaching import SubjectBatcher, cross_update_step, init_coteach_state, remember_rate
    from ctss.data import augment_rest_class, loso_split, train_val_split

    cfg = workload.cfg
    source, _ = loso_split(workload.cohort_data, workload.cohort_data[0].subject_id)
    train, _ = train_val_split([augment_rest_class(ds, cfg.generator) for ds in source],
                               cfg.run.val_ratio, 0)
    cc = cfg.coteach
    state = init_coteach_state(cfg.model_config(), cc)
    batcher = SubjectBatcher(train, cc.b, np.random.default_rng(0))
    r = remember_rate(cc.t_k, cc.t_k, cc.tau)

    def counted(fn) -> int:
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return calls

    baseline = counted(lambda: None)  # the lambda's own call and the setprofile(None) call
    total = 0
    for _ in range(steps):
        batch = batcher.next_batch()
        total += counted(lambda: cross_update_step(state, batch, cc.lr, r)) - baseline
    return total / steps
