"""Golden digests: every experiment table must come out byte-identical.

``tests/golden/experiments.json`` holds a sha256 of every table of every
experiment at seed 42, scale 0.2 (the session run the shape tests share),
plus each table's rendered rows so a mismatch can print the table diff.
Wall-clock columns vary run to run; they are masked by name, and the
masks are listed in the file.

Regenerate only when outputs are meant to move, and say why in
CHANGES.md::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py --update-golden
"""

import difflib
import fnmatch
import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "experiments.json"

#: wall-clock columns, by table id (the title up to its colon)
WALL_CLOCK_MASKS = {
    "E6c": ["*_us", "*_ms", "speedup_x"],
    "E6d": ["*_us", "*_ms", "speedup_x"],
    "E6e": ["*_us", "*_ms", "speedup_x"],
    "E6f": ["*_us", "*_ms", "speedup_x"],
    "E13b": ["mean_per_packet_us", "slowdown_x"],
}


def table_id(table):
    return table.title.split(":", 1)[0]


def _cell(value):
    """Canonical cell text, independent of numpy's scalar repr."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return repr(value)


def table_lines(table, masks):
    """The table as text lines, masked columns shown as ``*``."""
    masked = [any(fnmatch.fnmatchcase(col, pattern) for pattern in masks)
              for col in table.columns]
    lines = [table.title, " | ".join(table.columns)]
    for row in table.rows:
        lines.append(" | ".join("*" if hide else _cell(value)
                                for hide, value in zip(masked, row)))
    lines.extend(f"note: {note}" for note in table.notes)
    return lines


def record(tables_by_exp, cfg):
    """The golden document for one run."""
    tables = {}
    for exp_id in sorted(tables_by_exp):
        for table in tables_by_exp[exp_id]:
            tid = table_id(table)
            assert tid not in tables, f"duplicate table id {tid}"
            lines = table_lines(table, WALL_CLOCK_MASKS.get(tid, ()))
            tables[tid] = {
                "sha256": hashlib.sha256(
                    "\n".join(lines).encode()).hexdigest(),
                "lines": lines,
            }
    return {"config": {"seed": cfg.seed, "scale": cfg.scale},
            "masked_columns": WALL_CLOCK_MASKS,
            "tables": tables}


def test_tables_match_golden(experiment_tables, experiment_config, request):
    current = record(experiment_tables, experiment_config)
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True)
                          + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    assert golden["config"] == current["config"]
    assert golden["masked_columns"] == current["masked_columns"]
    problems = []
    for tid in sorted(set(golden["tables"]) | set(current["tables"])):
        old = golden["tables"].get(tid)
        new = current["tables"].get(tid)
        if old is None or new is None:
            problems.append(f"table {tid}: "
                            + ("new" if old is None else "missing"))
        elif old["sha256"] != new["sha256"]:
            problems.append("\n".join(difflib.unified_diff(
                old["lines"], new["lines"], f"golden {tid}",
                f"current {tid}", lineterm="")))
    assert not problems, "\n\n".join(problems)


def test_every_mask_hides_a_column(experiment_tables):
    """A renamed timing column must not silently fall out of the mask."""
    columns = {table_id(t): list(t.columns)
               for tables in experiment_tables.values() for t in tables}
    for tid, patterns in WALL_CLOCK_MASKS.items():
        hidden = [c for c in columns[tid]
                  if any(fnmatch.fnmatchcase(c, p) for p in patterns)]
        assert hidden, f"{tid}: masks {patterns} hide no column"
