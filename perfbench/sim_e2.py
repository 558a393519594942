"""The E2 mitigation matrix as a benchmark job, with its row oracle.

Every run simulates the same world: E2's cells at world seed
:data:`WORLD_SEED` and scale :data:`SCALE`.  The benchmark seed only sets
the order the 27 cells run in, which the row check makes irrelevant to
the answer; the work per run stays fixed.  Each cell runs in its own
``repro.obs`` registry scope, as a pool worker would, so repeated
matrices in one process do not pile series into one registry.

``python3 perfbench/sim_e2.py --write-reference`` regenerates
``reference/e2.json`` from the program's own E2 table.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "e2.json"
WORLD_SEED = 42
SCALE = 0.5


def cells() -> list[tuple[str, str]]:
    from repro.experiments import e2_mitigation_matrix as e2

    return [(a, m) for a in e2.ATTACKS for m in e2.MITIGATIONS]


def config():
    from repro.experiments.common import ExperimentConfig

    return ExperimentConfig(seed=WORLD_SEED, scale=SCALE)


def row_of(cell, base_pkts: int) -> list:
    """One E2 table row, formatted as ``matrix_table`` formats it."""
    return [cell.attack_kind, cell.mitigation,
            round(cell.attack_pkts / max(1, base_pkts), 3),
            round(cell.legit_goodput, 3), round(cell.collateral, 3),
            cell.identified_true, cell.identified_false, cell.notes]


def shape_errors(rows: dict[tuple[str, str], list]) -> dict[tuple, str]:
    """Cells that break the paper's shape: the TCS stops the reflector
    attack with zero collateral, and ingress filtering stops the spoofed
    direct flood."""
    bad = {}
    tcs = rows.get(("reflector", "tcs"))
    if tcs is not None and (tcs[2] != 0 or tcs[4] != 0):
        bad[("reflector", "tcs")] = "TCS leaves reflector traffic or collateral"
    ingress = rows.get(("direct-spoofed", "ingress"))
    if ingress is not None and ingress[2] != 0:
        bad[("direct-spoofed", "ingress")] = "ingress leaves spoofed traffic"
    return bad


def load_reference() -> dict[tuple[str, str], list]:
    data = json.loads(REFERENCE.read_text())
    if (data["seed"], data["scale"]) != (WORLD_SEED, SCALE):
        raise ValueError(f"{REFERENCE} is for seed {data['seed']} scale "
                         f"{data['scale']}, not {WORLD_SEED}/{SCALE}")
    return {(r[0], r[1]): r for r in data["rows"]}


@dataclass
class MatrixRun:
    #: wall-clock of the whole loop, calibration and re-runs included
    loop_s: float
    #: per cell, build plus run, in wall-clock seconds of its least
    #: disturbed attempt: measured and at reference speed
    cell_raw_s: list[float]
    cell_s: list[float]
    #: per cell: repro.scenario.build wall-clock at reference speed
    build_s: dict[tuple[str, str], float]
    rows: dict[tuple[str, str], list]
    #: program counters summed over the cells' registries
    counts: dict = field(default_factory=dict)

    @property
    def job_s(self) -> float:
        """The matrix's wall-clock time at reference speed."""
        return sum(self.cell_s)


def run_matrix(order: list[tuple[str, str]], build_timer,
               speed) -> MatrixRun:
    """Run the cells in ``order``, each timed by ``speed.measure``.

    ``build_timer`` is a :class:`~tracer.LayerStats` whose ``busy_s``
    grows with each ``repro.scenario.build`` call; ``speed`` a
    :class:`~calib.Speed`.
    """
    from repro.experiments import e2_mitigation_matrix as e2
    from repro.obs.metrics import scoped

    from layers import add_counts, registry_counts

    cfg = config()
    results = {}
    cell_raw, cell_s = [], []
    build_s = {}
    counts: dict = {}
    t0 = time.perf_counter()
    speed.tick()
    for attack, mitigation in order:
        def one_cell():
            build_before = build_timer.busy_s
            with scoped() as registry:
                out = e2.run_cell(attack, mitigation, cfg)
                snapshot = registry.snapshot()
            return out, snapshot, build_timer.busy_s - build_before

        (out, snapshot, build_raw), raw, factor = speed.measure(one_cell)
        results[(attack, mitigation)] = out
        cell_raw.append(raw)
        cell_s.append(raw * factor)
        build_s[(attack, mitigation)] = build_raw * factor
        add_counts(counts, registry_counts(snapshot))
    rows = {key: row_of(cell, results[(key[0], "none")].attack_pkts)
            for key, cell in results.items()}
    return MatrixRun(loop_s=time.perf_counter() - t0, cell_raw_s=cell_raw,
                     cell_s=cell_s, build_s=build_s, rows=rows,
                     counts=counts)


def failed_cells(rows: dict, reference: dict) -> dict[tuple, str]:
    """Cells whose row differs from the reference or breaks the shape."""
    bad = shape_errors(rows)
    for key, want in reference.items():
        if rows.get(key) != want:
            bad.setdefault(key, f"row {rows.get(key)} != reference {want}")
    return bad


def write_reference() -> None:
    from repro.experiments import e2_mitigation_matrix as e2

    table = e2.matrix_table(config())
    rows = {(r[0], r[1]): r for r in table.rows}
    bad = shape_errors(rows)
    if bad:
        raise SystemExit(f"E2 breaks the paper shape: {bad}")
    REFERENCE.parent.mkdir(exist_ok=True)
    rows_text = ",\n  ".join(json.dumps(r) for r in table.rows)
    REFERENCE.write_text(
        f'{{"seed": {WORLD_SEED}, "scale": {SCALE},\n'
        f' "columns": {json.dumps(table.columns)},\n'
        f' "rows": [\n  {rows_text}\n ]}}\n')
    print(f"wrote {REFERENCE} ({len(table.rows)} rows)")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit("usage: python3 perfbench/sim_e2.py --write-reference")
    write_reference()
