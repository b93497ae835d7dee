"""ctss benchmark: one workload per run, its outputs checked, one JSON result line.

    python3 perfbench/run.py --workload loso-small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl [--fail-on-regression]

Run it from the repository root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes the separate traced run that reports the
per-layer metrics, with the tracing overhead measured inside the same run.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``--out FILE`` also appends a fuller record (workload, seed, machine facts,
output digests) for ``--compare``. Set no BLAS thread variable here: thread
counts are program behaviour and are recorded with the machine facts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / ".perfbench"  # scratch space inside the checkout; ignored by git


def import_ctss():
    """The program under test, from this checkout's ``src`` only."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ctss
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ctss from {ROOT / 'src'}: {exc}")
    if not Path(ctss.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: ctss imported from {ctss.__file__}, not from {ROOT / 'src'}")
    return ctss


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for descendant (fold workers, set-up)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def median_or_zero(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def end_to_end(ctx, units) -> dict:
    """The end-to-end metrics of an untraced run from its timed units."""
    run_s = statistics.median(u.seconds for u in units)
    return {
        "setup_s": statistics.median(ctx.setup_s),
        "run_s": run_s,
        "samples_per_s": ctx.samples_per_unit / run_s,
        "peak_rss_mb": peak_rss_mb(),
        "bacc_mean": median_or_zero([u.bacc for u in units]),
        "noisy_sel_gap": median_or_zero([u.gap for u in units]),
        "ok_frac": (ctx.ledger.attempted - ctx.ledger.failed) / ctx.ledger.attempted,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_ctss()
    from outputs import DigestStore, machine_facts, source_hash
    from spans import COMPUTED, Tracer, layer_metrics, step_breakdown, write_spans
    from workloads import WORKLOADS, Context, Ledger, cli_main, count_step_calls

    os.chdir(ROOT)  # the program's paths in the run's outputs are relative to the checkout
    BENCH.mkdir(exist_ok=True)
    source = source_hash(ROOT / "src")
    facts = machine_facts(ROOT, source)
    print("facts " + json.dumps(facts, sort_keys=True), flush=True)
    ledger = Ledger()
    ctx = Context(root=ROOT, work=BENCH / "work", seed=seed, ledger=ledger,
                  store=DigestStore(BENCH / "digests.json", source))
    workload = WORKLOADS[name](ctx)
    tracer = Tracer()
    try:
        workload.setup()
        extra = {}
        if trace:
            extra["coteaching.py_calls_per_step"] = ledger.call("call count", count_step_calls, workload) or 0.0
            tracer.install()
            traced_cohort = workload.dir / "cohort-traced.ctss"
            code = ledger.call("traced ctss generate", cli_main,
                               ["generate", "--config", workload.rel(workload.ini_path),
                                "--out", workload.rel(traced_cohort)])
            ledger.check("traced ctss generate", code == 0
                         and traced_cohort.read_bytes() == workload.cohort.read_bytes())
            tracer.uninstall()

        untraced, traced = [], []
        start = perf_counter()
        while True:
            tracing = trace and len(untraced) > len(traced)  # alternate, untraced first
            if tracing:
                tracer.install()
            try:
                unit = workload.unit(len(untraced) + len(traced))
            finally:
                tracer.uninstall()
            (traced if tracing else untraced).append(unit)
            done = bool(untraced) and (traced or not trace)
            unit_s = statistics.median(u.seconds for u in untraced + traced)
            if done and perf_counter() - start + unit_s > seconds:
                break

        units = untraced + traced
        run_s = statistics.median(u.seconds for u in untraced)
        if trace:
            traced_s = statistics.median(u.seconds for u in traced)
            extra.update({
                "data.cohort_mb": ctx.cohort_bytes / 1e6,
                "cli.run_dir_mb": median_or_zero([u.run_dir_bytes / 1e6 for u in traced]),
                "trace.overhead_s": traced_s - run_s,
                "trace.overhead_pct": 100.0 * (traced_s - run_s) / run_s,
            })
            metrics = layer_metrics(tracer, [(u.start, u.end) for u in traced], extra)
            trace_path = BENCH / f"trace-{name}-s{seed}.json"
            write_spans(tracer, trace_path)
            print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}; "
                  f"computed, not measured: {', '.join(COMPUTED)}", flush=True)
            for span, ms in step_breakdown(tracer):
                print(f"step self ms  {ms:9.3f}  {span}", flush=True)
        else:
            metrics = end_to_end(ctx, untraced)
        return {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
                "units": len(units), "unit_s": [u.seconds for u in units],
                "setup_s": ctx.setup_s,
                "digests": units[-1].digests, "facts": facts, "metrics": metrics,
                "correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed}
    finally:
        tracer.uninstall()
        shutil.rmtree(ctx.work, ignore_errors=True)


def result_line(record: dict) -> str:
    units = {}
    spec = declared()
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    metrics = {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two JSONL files written with --out")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="with --compare, exit 1 when a metric regressed past its bound")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare, declared(), args.fail_on_regression)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "ctss").is_dir():
        raise SystemExit(f"perfbench: no program at {ROOT / 'src' / 'ctss'}")
    out = Path(args.out).resolve() if args.out else None
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
