#!/usr/bin/env python3
"""Summarise one result set, or compare a parent set with a change set.

    python3 perfbench/compare.py parent.jsonl              # spreads
    python3 perfbench/compare.py parent.jsonl change.jsonl # verdicts

A result set is the JSON lines ``run.py --record FILE`` (or
``collect.py``) appends, one per untraced run.  For every workload x
end-to-end metric of ``BENCHMARK.json`` it prints medians and quartiles;
with two sets also the share of same-seed pairs the change wins and a
verdict:

* improved   the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  inter-quartile distance;
* regressed  the change's median is worse than the parent's by more than
  the metric's bound;
* unresolved the parent's own spread is wider than the bound and not every
  change run beats every parent run;
* no worse   otherwise.

Every ratio is printed with its base (the parent median).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from bstats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def load_set(path: Path) -> dict:
    """{(workload, metric): {seed: value}} of the untraced runs, plus the
    failed runs as (workload, seed) pairs under key ``None``."""
    values: dict = defaultdict(dict)
    broken = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        result = rec["result"]
        if not result["correct"] or result["failed"]:
            broken.append((rec["workload"], rec["seed"]))
        for name, m in result["metrics"].items():
            values[(rec["workload"], name)][rec["seed"]] = m["value"]
    values[None] = broken
    return values


def verdict(base: list[float], change: list[float], pairs: list[tuple],
            better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, pair win share, worse-by share of the parent median)."""
    q1, med_b, q3 = quartiles(base)
    _, med_c, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_c - med_b) / med_b
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    share = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if share >= 0.9 and abs(med_c - med_b) > (q3 - q1) and worse_by < 0:
        return "improved", share, worse_by
    if (q3 - q1) / med_b > bound and not all_better:
        return "unresolved", share, worse_by
    if worse_by > bound:
        return "regressed", share, worse_by
    return "no worse", share, worse_by


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    base = load_set(args.parent)
    change = load_set(args.change) if args.change else None
    status = 0
    for label, data in (("parent", base), ("change", change)):
        if data is not None and data[None]:
            print(f"{label}: runs with failed operations: {data[None]}")
            status = 1
    for wl in [w["name"] for w in bench["workloads"]]:
        print(f"\n{wl}")
        for m in metrics:
            key = (wl, m["name"])
            b = base.get(key, {})
            if not b:
                continue
            q1, med, q3 = quartiles(list(b.values()))
            line = (f"  {m['name']:<18} {m['unit']:<5} parent n={len(b):<3} "
                    f"median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                    f"spread {spread(list(b.values())):.3f} "
                    f"(bound {m['bound']})")
            if change is None:
                print(line)
                continue
            c = change.get(key, {})
            if not c:
                print(line + "  change: no runs")
                status = 1
                continue
            cq1, cmed, cq3 = quartiles(list(c.values()))
            pairs = [(b[s], c[s]) for s in sorted(set(b) & set(c))]
            v, share, worse_by = verdict(list(b.values()), list(c.values()),
                                         pairs, m["better"], m["bound"])
            if v == "regressed":
                status = 1
            print(line)
            print(f"  {'':<24} change n={len(c):<3} median {cmed:.6g} "
                  f"[q1 {cq1:.6g}, q3 {cq3:.6g}]  change/parent = "
                  f"{cmed / med:.4f} (base {med:.6g} {m['unit']}), "
                  f"wins {share:.0%} of {len(pairs)} pairs, "
                  f"worse by {worse_by:+.3f}: {v.upper()}")
    return status


if __name__ == "__main__":
    sys.exit(main())
