"""Compare two sets of runs, per workload and metric.

Each input is a JSONL file of records written by ``run.py --out``. For every
workload and metric present in both, the ratio of medians (change / base) is
printed with a verdict:

- ``unresolved``: the run-to-run spread (quartile distance over median, the
  wider of the two sides) exceeds the metric's bound, unless every change run
  reads better than every base run, which is ``improved``;
- ``regressed``: the change's median is worse than the base's by more than
  the bound;
- ``improved``: better by more than the spread;
- ``unchanged`` otherwise. Per-layer metrics have no bound and get ``-``.

Within one file, records whose output digests differ for one workload and
seed are reported as a determinism mismatch.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def spread(values) -> float:
    """Quartile distance as a share of the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def classify(base, change, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse = lambda a, b: sign * (b - a) > 0  # noqa: E731  b worse than a
    mb, mc = statistics.median(base), statistics.median(change)
    if bound is None:
        return "-"
    if not mb:
        return "unchanged" if mb == mc else "unresolved"
    wider = max(spread(base), spread(change))
    all_better = all(worse(c, b) for b in base for c in change)
    if wider > bound:
        return "improved" if all_better else "unresolved"
    shift = sign * (mc - mb) / abs(mb)  # > 0: worse
    if shift > bound:
        return "regressed"
    if -shift > wider:
        return "improved"
    return "unchanged"


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digest_mismatches(records) -> list[str]:
    seen: dict[tuple, dict] = {}
    bad = []
    for rec in records:
        key = (rec["workload"], rec["seed"])
        for kind, digest in rec.get("digests", {}).items():
            first = seen.setdefault(key, {}).setdefault(kind, digest)
            if first != digest:
                bad.append(f"{rec['workload']} seed {rec['seed']} {kind}")
    return bad


def compare(base: list[dict], change: list[dict], spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, base_median, change_median, ratio, verdict)``."""
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    values = {side: defaultdict(list) for side in ("base", "change")}
    for side, records in (("base", base), ("change", change)):
        for rec in records:
            for metric, value in rec["metrics"].items():
                values[side][(rec["workload"], metric)].append(value)
    rows = []
    for key in sorted(set(values["base"]) & set(values["change"])):
        workload, metric = key
        b, c = values["base"][key], values["change"][key]
        mb, mc = statistics.median(b), statistics.median(c)
        m = meta.get(metric, {"better": "lower"})
        rows.append((workload, metric, mb, mc, mc / mb if mb else float("nan"),
                     classify(b, c, m["better"], m.get("bound"))))
    return rows


def compare_files(base_path, change_path, spec: dict, fail_on_regression: bool) -> int:
    base, change = load(base_path), load(change_path)
    rows = compare(base, change, spec)
    print(f"{'workload':<16} {'metric':<34} {'base':>12} {'change':>12} {'ratio':>8}  verdict")
    for workload, metric, mb, mc, ratio, verdict in rows:
        print(f"{workload:<16} {metric:<34} {mb:>12.6g} {mc:>12.6g} {ratio:>8.4f}  {verdict}")
    for side, records in (("base", base), ("change", change)):
        for mismatch in digest_mismatches(records):
            print(f"determinism mismatch in {side}: {mismatch}")
    regressed = [r for r in rows if r[5] == "regressed"]
    return 1 if fail_on_regression and regressed else 0
