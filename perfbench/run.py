#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-e2-matrix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Workloads (see ``perfbench/README.md`` for why each exists):

* ``sim-e2-matrix``      the E2 mitigation matrix on the packet engine;
* ``svc-transit-mix``    ``ServiceFacade.check`` at an ISP decision point,
  about 5% owned flows, Zipf popularity over 8x the flow cache;
* ``svc-protected-site`` WSGI middleware in front of one site that keeps
  swapping its blocklist.

All load comes from this one thread; service calls are in-process.  Times
are scaled to a reference machine speed (``calib.py``).  With
``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer ones (and ``perfbench/out/`` gets the full
trace).  Earlier lines are a readable report with sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# ----------------------------------------------------------------- settings
#: matrices a sim run measures at least (p90 of cells needs 4 x 27)
MIN_MATRICES = 4
#: setups per service run (setup_s is their median)
SVC_SETUPS = 9
#: per service workload: warm-up requests, closed-loop job size, the
#: fixed offered rate (about a quarter of capacity) in requests/s
SVC = {
    "svc-transit-mix": {"warmup": 20_000, "job": 100_000, "rate": 50_000.0},
    "svc-protected-site": {"warmup": 4_000, "job": 8_000, "rate": 5_000.0},
}
#: a service run is rounds of: one closed-loop job, WINDOWS latency
#: windows at the fixed rate, one trial of each capacity search; the
#: phases interleave so each samples the whole run
ROUNDS_PER_S = 0.3
WINDOWS = 3
WINDOW_S = 0.5
CAPACITY_TRIALS = 4
CAPACITY_TRIAL_S = 0.2
#: swaps a traced protected-site run times, at least
MIN_SWAPS = 120

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_s": "s",
    "op_p50_us": "us",
    "throughput_per_s": "1/s",
}
#: The tail (p99 of checks, p90 of sim cells) is printed but not part of
#: the result: over three ten-seed sets its spread ran from 0.14 to 0.38,
#: past the largest bound a metric may carry.


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(failed: int, attempted: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def end_to_end(values: dict) -> dict:
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def say(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<30} {value:>14.4f} {unit:<4} {note}")


def write_trace(workload: str, seed: int, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------- sim
def run_sim(args) -> dict:
    import sim_e2
    from bstats import checked_percentile, median
    from calib import MAX_LOST_SHARE, Speed
    from layers import install, per_layer_metrics
    from repro.scenario.build import build
    from tracer import Tracer

    reference = sim_e2.load_reference()
    order = sim_e2.cells()
    rng = random.Random(args.seed)
    speed = Speed(attempts=1) if args.trace else Speed()

    def one_matrix(tracer: Tracer):
        rng.shuffle(order)
        run = sim_e2.run_matrix(list(order), tracer.layer("scenario"), speed)
        bad = sim_e2.failed_cells(run.rows, reference)
        for key, why in sorted(bad.items()):
            print(f"  FAILED cell {key}: {why}", file=sys.stderr)
        return run, len(bad)

    start = time.perf_counter()
    timer = Tracer()
    timer.patch_function(build, "scenario")
    if args.trace:
        untraced, failed = one_matrix(timer)
        timer.unpatch()
        tracer = Tracer()
        install(tracer)
        try:
            traced, failed_traced = one_matrix(tracer)
        finally:
            tracer.unpatch()
        remainder = tracer.check_identity(traced.loop_s)
        metrics = per_layer_metrics(tracer, traced.counts, {
            "trace.overhead_ratio": traced.job_s / untraced.job_s})
        path = write_trace(args.workload, args.seed, {
            "layers": tracer.report(), "wall_s": traced.loop_s,
            "untraced_remainder_s": remainder, "counts": traced.counts,
            "metrics": metrics})
        print(f"sim-e2-matrix traced: {traced.loop_s:.3f}s wall-clock, "
              f"{remainder:.4f}s outside spans (calibration included); "
              f"trace in {path.relative_to(ROOT)}")
        return result(failed + failed_traced, 2 * len(order), metrics)

    runs, failed = [], 0
    while True:
        run, bad = one_matrix(timer)
        runs.append(run)
        failed += bad
        elapsed = time.perf_counter() - start
        if (len(runs) >= MIN_MATRICES
                and elapsed + median([r.loop_s for r in runs]) > args.seconds):
            break
    timer.unpatch()
    cell_s = sorted(s for r in runs for s in r.cell_s)
    values = {
        # a matrix's builds, each cell's taken as its median over the run
        "setup_s": sum(median([r.build_s[cell] for r in runs])
                       for cell in order),
        "peak_rss_mb": peak_rss_mb(),
        "job_s": median([r.job_s for r in runs]),
        "op_p50_us": median(cell_s) * 1e6,
        "throughput_per_s": median([r.counts["link_packets"] / r.job_s
                                    for r in runs]),
    }
    raw_wall = [sum(r.cell_raw_s) for r in runs]
    print(f"sim-e2-matrix: {len(runs)} matrices x {len(order)} cells "
          f"(world seed {sim_e2.WORLD_SEED}, scale {sim_e2.SCALE}); "
          f"times at reference speed")
    say("setup_s (summed builds)", values["setup_s"], "s",
        f"per-cell medians of {len(runs)} matrices")
    say("peak_rss_mb", values["peak_rss_mb"], "MB")
    say("job_s (one matrix)", values["job_s"], "s",
        f"median of {len(runs)}; measured {median(raw_wall):.3f}s")
    say("op_p50_us (one cell)", values["op_p50_us"], "us",
        f"n={len(cell_s)}")
    say("  p90 of cells (not gated)",
        checked_percentile(cell_s, 90.0) * 1e6, "us", f"n={len(cell_s)}")
    say("throughput_per_s (link pkts)", values["throughput_per_s"], "1/s",
        f"{runs[0].counts['link_packets']:.0f} packets per matrix")
    print(f"  {speed.reruns} cells run again: over {MAX_LOST_SHARE:.0%} of "
          f"their wall-clock was off this thread's CPU")
    return result(failed, len(runs) * len(order), end_to_end(values))


# ------------------------------------------------------------------ service
def svc_inputs(workload: str, seed: int):
    import svc

    if workload == "svc-transit-mix":
        return svc.transit_inputs(seed)
    return svc.site_inputs(seed)


def svc_world(workload: str, inputs, count_statuses: bool = False):
    """(step, swap times, statuses) for a fresh world."""
    import svc

    if workload == "svc-transit-mix":
        return svc.transit_world(inputs), [], {}
    world = svc.site_world(inputs, count_statuses=count_statuses)
    return world.step, world.swap_s, world.statuses


def run_svc(args) -> dict:
    import numpy as np

    from bstats import (MIN_BEYOND, checked_percentile, highest_percentile,
                        median, samples_beyond)
    from calib import MAX_LOST_SHARE, Speed
    from openloop import (MIN_TRIAL, Staircase, Stream, closed_loop,
                          meets_limit, open_loop)
    from repro.obs.metrics import scoped

    cfg = SVC[args.workload]
    inputs = svc_inputs(args.workload, args.seed)
    length = len(inputs.requests)
    # the request replay is the benchmark's data, not the service's: keep
    # the garbage collector from walking it on every full collection
    gc.collect()
    gc.freeze()
    speed = Speed(attempts=1) if args.trace else Speed()
    start = time.perf_counter()

    # warm-up requests of every world built, checked like all others
    warm = Counter()

    def build(count_statuses: bool):
        """A fresh world, warmed up: (stream, registry, swaps, statuses)."""
        with scoped() as registry:
            step, swaps, statuses = svc_world(args.workload, inputs,
                                              count_statuses)
            stream = Stream(step, length)
            closed_loop(stream, cfg["warmup"])
        warm.update(attempted=stream.attempted, failed=stream.failed)
        stream.attempted = stream.failed = 0
        return stream, registry, swaps, statuses

    def setup(count_statuses: bool = False):
        """(build time at reference speed, the world built)."""
        world, raw, factor = speed.measure(lambda: build(count_statuses))
        return raw * factor, world

    def job(stream) -> tuple[float, float]:
        """(at reference speed, measured) seconds of one closed-loop job."""
        _, raw, factor = speed.measure(lambda: closed_loop(stream, cfg["job"]))
        return raw * factor, raw

    if args.trace:
        return trace_svc(args, cfg, setup, job, warm)

    # time SVC_SETUPS builds; each world but the last is dropped before the
    # next is built, so the peak resident set is that of one serving world
    setup_times = []
    for k in range(SVC_SETUPS):
        t, (stream, _, swaps, _) = setup()
        setup_times.append(t)
        if k < SVC_SETUPS - 1:
            del stream, swaps
            gc.collect()
    setup_s = median(setup_times)
    rate = cfg["rate"]
    rounds = max(2, round(ROUNDS_PER_S * args.seconds))
    jobs, p50s, p99s, raw = [], [], [], []
    stairs = None

    for _ in range(rounds):
        jobs.append(job(stream))
        if stairs is None:
            # start at 0.7x the closed-loop rate, at reference speed
            stairs = Staircase(0.7 * cfg["job"] / jobs[0][0])
        for _ in range(WINDOWS):
            loop, _, factor = speed.measure(
                lambda: open_loop(stream, int(rate * WINDOW_S), rate))
            lat = np.sort(np.frombuffer(loop.latency_s, dtype=np.float64))
            p50s.append(checked_percentile(lat, 50.0) * factor)
            p99s.append(checked_percentile(lat, 99.0) * factor)
            raw.append(lat)
        for _ in range(CAPACITY_TRIALS):
            # offer the reference rate at the machine's current speed
            loop, _, _ = speed.measure(lambda: open_loop(
                stream, max(MIN_TRIAL, int(stairs.rate * CAPACITY_TRIAL_S)),
                stairs.rate / speed.last))
            stairs.record(meets_limit(loop))
    raw_lat = np.sort(np.concatenate(raw))
    job_s = median([j[0] for j in jobs])
    closed_rate = cfg["job"] / median([j[1] for j in jobs])

    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "job_s": job_s,
        "op_p50_us": median(p50s) * 1e6,
        "throughput_per_s": stairs.estimate(),
    }
    n = len(raw_lat)
    top = highest_percentile(n)
    print(f"{args.workload}: one thread, in-process calls, "
          f"{time.perf_counter() - start:.1f}s; times at reference speed")
    say("setup_s", setup_s, "s", f"median of {SVC_SETUPS} setups")
    say("peak_rss_mb", values["peak_rss_mb"], "MB")
    say("job_s (closed-loop job)", job_s, "s",
        f"median of {rounds} x {cfg['job']} requests; measured "
        f"{closed_rate:.0f}/s")
    say(f"op_p50_us @ {rate:.0f}/s", values["op_p50_us"], "us",
        f"median of {len(p50s)} windows of {int(rate * WINDOW_S)}, "
        f"from due time")
    say(f"  p99 @ {rate:.0f}/s (not gated)", median(p99s) * 1e6, "us",
        f"median of {len(p99s)} window p99s")
    say("  measured p50, all windows", checked_percentile(raw_lat, 50) * 1e6,
        "us", f"n={n}")
    say("  measured p99, all windows", checked_percentile(raw_lat, 99) * 1e6,
        "us", f"n={n}")
    say(f"  measured p{top:g} (>=10 beyond)",
        checked_percentile(raw_lat, top) * 1e6, "us", f"n={n}")
    met = sum(m for _, m in stairs.trials)
    say("throughput_per_s (capacity)", values["throughput_per_s"], "1/s",
        f"p99 <= 1 ms in half the trials; {len(stairs.trials)} trials, "
        f"{met} met")
    ordered = sorted(swaps)
    for pct in (50.0, 90.0):
        if samples_beyond(len(ordered), pct) >= MIN_BEYOND:
            say(f"  swap_policy p{pct:g}, measured",
                checked_percentile(ordered, pct) * 1e6, "us",
                f"n={len(ordered)}")
    print(f"  {speed.reruns} setups/jobs/windows/trials run again: over "
          f"{MAX_LOST_SHARE:.0%} of their wall-clock was off this thread's CPU")
    attempted = warm["attempted"] + stream.attempted
    failed = warm["failed"] + stream.failed
    print(f"  requests: {stream.attempted} measured, {warm['attempted']} "
          f"warming worlds up, {failed} failed")
    return result(failed, attempted, end_to_end(values))


def trace_svc(args, cfg: dict, setup, job, warm: Counter) -> dict:
    """Traced service run: untraced job and open loop (generator lateness,
    swap times), then the same job traced."""
    import numpy as np

    import svc
    from bstats import checked_percentile
    from layers import install, per_layer_metrics, registry_counts
    from openloop import closed_loop, open_loop
    from tracer import Tracer

    _, (stream, registry, swaps, statuses) = setup(count_statuses=True)
    untraced_s, _ = job(stream)
    loop = open_loop(stream, int(cfg["rate"] * 2.0), cfg["rate"])
    late = np.sort(np.frombuffer(loop.late_s, dtype=np.float64))
    if swaps:
        closed_loop(stream, max(0, MIN_SWAPS - len(swaps)) * svc.SWAP_EVERY)
    swap_sorted = sorted(swaps)
    statuses.clear()
    before = registry_counts(registry.snapshot())
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    try:
        traced_s, traced_raw = job(stream)
    finally:
        tracer.unpatch()
    # the job's wall-clock, plus the calibration sample after it, which
    # runs outside every span
    remainder = tracer.check_identity(time.perf_counter() - t0)
    after = registry_counts(registry.snapshot())
    counts = {k: after[k] - before[k] for k in after}
    for status, n in statuses.items():
        counts[f"status_{status[:3]}"] = n
    extra = {
        "loadgen.late_p99_us": checked_percentile(late, 99.0) * 1e6,
        "loadgen.late_max_ms": float(late[-1]) * 1e3,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    if swap_sorted:
        extra["service.facade.swap_p50_us"] = (
            checked_percentile(swap_sorted, 50.0) * 1e6)
        extra["service.facade.swap_p90_us"] = (
            checked_percentile(swap_sorted, 90.0) * 1e6)
    metrics = per_layer_metrics(tracer, counts, extra)
    path = write_trace(args.workload, args.seed, {
        "layers": tracer.report(), "job_wall_s": traced_raw,
        "untraced_remainder_s": remainder, "counts": counts,
        "swaps": len(swap_sorted), "metrics": metrics})
    print(f"{args.workload} traced: {cfg['job']} requests in "
          f"{traced_raw:.3f}s, {remainder:.4f}s outside spans; "
          f"{len(swap_sorted)} swaps timed; trace in "
          f"{path.relative_to(ROOT)}")
    return result(warm["failed"] + stream.failed,
                  warm["attempted"] + stream.attempted, metrics)


RUNNERS = {
    "sim-e2-matrix": run_sim,
    "svc-transit-mix": run_svc,
    "svc-protected-site": run_svc,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, metavar="FILE",
                        help="also append {workload, seed, trace, result} "
                             "as one JSON line to FILE (for compare.py)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        print(f"refusing {repro.__file__}: not the checkout's {src}",
              file=sys.stderr)
        return 2
    out = RUNNERS[args.workload](args)
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": out}) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
