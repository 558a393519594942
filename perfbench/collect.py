#!/usr/bin/env python3
"""Run the benchmark over several seeds, in one or two checkouts.

    python3 perfbench/collect.py --seeds 1-10 --out results
    python3 perfbench/collect.py --roots ../parent . --seeds 1-10 --out ab

Each checkout's untraced runs go to ``<out>/set<i>.jsonl`` (``set0`` is the
first root), ready for ``compare.py``.  With two roots each seed runs in
both, alternating which goes first.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--roots", type=Path, nargs="+", default=[ROOT])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(args.seeds):
        for wl in [w["name"] for w in bench["workloads"]]:
            order = list(enumerate(args.roots))
            if i % 2:
                order.reverse()
            for k, root in order:
                record = (args.out / f"set{k}.jsonl").resolve()
                cmd = [sys.executable, "perfbench/run.py", "--workload", wl,
                       "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]),
                       "--trace", "0", "--record", str(record)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                      text=True, timeout=600)
                last = proc.stdout.strip().splitlines()[-1:] or ["<none>"]
                print(f"set{k} {wl} seed {seed}: exit {proc.returncode} "
                      f"{last[0][:160]}", flush=True)
                if proc.returncode:
                    sys.stderr.write(proc.stderr[-2000:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
