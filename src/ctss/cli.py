"""Command-line entry point: ``ctss generate|run|report``.

Exit codes: 0 success, 2 configuration/validation problem or a fold worker
that died, 3 numeric failure, 4 file-format or I/O problem. Set
CTSS_LOG_LEVEL (DEBUG/INFO/WARNING/...) to control verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import METHODS, ExperimentConfig, load_config
from .errors import DataFormatError, NumericError, ValidationError, WorkerError

log = logging.getLogger("ctss")


def _setup_logging() -> None:
    level = os.environ.get("CTSS_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _load_or_default_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return load_config(path)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_generate(args) -> int:
    from .data import generate_cohort, save_raw
    cfg = _load_or_default_config(args.config)
    generator = cfg.generator if args.seed is None else replace(cfg.generator, seed=args.seed)
    cohort = generate_cohort(generator)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_raw(cohort, out)
    log.info("wrote %d subjects to %s", len(cohort), out)
    print(f"generated cohort: {len(cohort)} subjects -> {out}")
    return 0


def cmd_run(args) -> int:
    from .data import generate_cohort, load_raw
    from .evaluate import check_out_dir, run_loso, write_run
    cfg = _load_or_default_config(args.config)
    run_cfg = cfg.run
    if args.method is not None:
        run_cfg = replace(run_cfg, method=args.method)
    if args.seed is not None:
        run_cfg = replace(run_cfg, master_seed=args.seed)

    cohort_sha256 = None  # the manifest's name for a cohort generated in memory
    if run_cfg.cohort_file:
        digest = hashlib.sha256()
        cohort = load_raw(run_cfg.cohort_file, digest)
        cohort_sha256 = digest.hexdigest()
        log.info("loaded cohort of %d subjects from %s", len(cohort), run_cfg.cohort_file)
    else:
        cohort = generate_cohort(cfg.generator)
        log.info("generated cohort of %d subjects", len(cohort))
    check_out_dir(Path(args.out), {ds.subject_id for ds in cohort})

    started = time.time()
    run = run_loso(
        cohort,
        run_cfg.method,
        cfg.model_config(),
        cfg.coteach,
        cfg.generator,
        master_seed=run_cfg.master_seed,
        val_ratio=run_cfg.val_ratio,
        parallel_folds=args.parallel_folds,
        config_echo=replace(cfg, run=run_cfg).to_dict(),
    )
    write_run(run, args.out, time.time() - started, cohort_sha256)
    print(f"{run_cfg.method}: mean balanced accuracy "
          f"{run.summary.mean_balanced_accuracy:.4f} "
          f"(std {run.summary.std_balanced_accuracy:.4f}) over {len(run.folds)} folds -> {args.out}")
    return 0


def format_report(summary: dict) -> str:
    """Fixed-width per-subject table plus Avg./Std. and selection frequencies."""
    folds = sorted(summary["folds"], key=lambda f: f["target_subject"])
    header = ["Model"] + [str(f["target_subject"]) for f in folds] + ["Avg.", "Std."]
    row = [summary["method"]] + [f"{100 * f['balanced_accuracy']:.2f}" for f in folds]
    row += [f"{100 * summary['mean_balanced_accuracy']:.2f}",
            f"{100 * summary['std_balanced_accuracy']:.2f}"]
    widths = [max(len(h), len(v)) for h, v in zip(header, row)]
    lines = [
        "Balanced accuracy (%) per held-out subject",
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        "  ".join(v.rjust(w) for v, w in zip(row, widths)),
    ]
    freqs = summary.get("selection_frequencies") or {}
    if freqs:
        lines.append("")
        lines.append("Selection frequency per source subject (final window, f/g pooled)")
        lines.append("  ".join(f"{sid}:{freqs[sid]:.3f}" for sid in sorted(freqs, key=int)))
    return "\n".join(lines) + "\n"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_summary(summary, path) -> None:
    """Refuse, naming the first offending field, a summary whose layout :func:`format_report` cannot read."""
    def fail(what: str):
        raise DataFormatError(f"{path} is not a run summary: {what}")

    if not isinstance(summary, dict):
        fail(f"expected a JSON object, got a JSON {type(summary).__name__}")
    if not isinstance(summary.get("method"), str):
        fail("'method' must be a string")
    for key in ("mean_balanced_accuracy", "std_balanced_accuracy"):
        if not _is_number(summary.get(key)):
            fail(f"{key!r} must be a number")
    folds = summary.get("folds")
    if not isinstance(folds, list) or not all(
            isinstance(f, dict) and type(f.get("target_subject")) is int and _is_number(f.get("balanced_accuracy"))
            for f in folds):
        fail("'folds' must be a list of objects with an integer 'target_subject' and a numeric 'balanced_accuracy'")
    freqs = summary.get("selection_frequencies") or {}
    if not isinstance(freqs, dict) or not all(re.fullmatch(r"-?\d+", k) and _is_number(v) for k, v in freqs.items()):
        fail("'selection_frequencies' must map subject ids to numbers")


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise DataFormatError(f"no summary.json in {run_dir}; is this a finished run directory?")
    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except ValueError as exc:  # bad UTF-8 or JSON
        raise DataFormatError(f"{summary_path} is not a run summary: {type(exc).__name__}: {exc}") from None
    _check_summary(summary, summary_path)
    text = format_report(summary)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctss",
        description="Confidence-aware cross-subject training with dual-network subject selection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic cohort file")
    p_gen.add_argument("--config", help="experiment config (INI); defaults apply when omitted")
    p_gen.add_argument("--out", required=True, help="output cohort file")
    p_gen.add_argument("--seed", type=int, help="override generator seed")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the leave-one-subject-out experiment")
    p_run.add_argument("--config", help="experiment config (INI); defaults apply when omitted")
    p_run.add_argument("--out", required=True, help="output directory; a rerun replaces the run it holds")
    p_run.add_argument("--seed", type=int, help="override master seed")
    p_run.add_argument("--method", choices=METHODS, help="override run.method")
    p_run.add_argument("--parallel-folds", type=int, default=usable_cpus(), dest="parallel_folds", metavar="K",
                       help="train folds in up to K worker processes, never more than the folds, each on one "
                            "BLAS thread; 1 trains them one by one in this process (default %(default)s, "
                            "the usable CPUs)")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="print tables for a finished run directory")
    p_rep.add_argument("run_dir", help="directory written by 'ctss run'")
    p_rep.add_argument("--out", help="also write the text report to this file")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, WorkerError, MemoryError) as exc:  # out of memory: config sizes, or too many fold workers
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
