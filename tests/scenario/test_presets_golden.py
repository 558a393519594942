"""Golden digests: every scenario preset must answer the same MetricSet.

``tests/golden/presets.json`` holds, for each entry of
:data:`repro.scenario.presets.PRESETS`, the ``MetricSet.signature()`` of
its packet-engine run plus the rendered metric values, so a mismatch can
print which values moved.

Regenerate only when outputs are meant to move, and say why in
CHANGES.md::

    PYTHONPATH=src python -m pytest tests/scenario/test_presets_golden.py --update-golden
"""

import difflib
import json
from pathlib import Path

from repro.scenario import run_scenario
from repro.scenario.presets import PRESETS

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "presets.json"
ENGINE = "packet"


def metric_lines(name, metrics):
    """The MetricSet as ``field: value`` lines, headed by the preset."""
    return [f"preset {name}"] + [f"{key}: {value!r}" for key, value
                                 in sorted(metrics.to_dict().items())]


def record():
    """The golden document for one run of every preset."""
    presets = {}
    for name, spec in PRESETS.items():
        metrics = run_scenario(spec, engine=ENGINE)
        presets[name] = {"signature": metrics.signature(),
                         "lines": metric_lines(name, metrics)}
    return {"engine": ENGINE, "presets": presets}


def test_presets_match_golden(request):
    current = record()
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True)
                          + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    assert golden["engine"] == current["engine"]
    problems = []
    for name in sorted(set(golden["presets"]) | set(current["presets"])):
        old = golden["presets"].get(name)
        new = current["presets"].get(name)
        if old is None or new is None:
            problems.append(f"preset {name}: "
                            + ("new" if old is None else "missing"))
        elif old["signature"] != new["signature"]:
            problems.append("\n".join(difflib.unified_diff(
                old["lines"], new["lines"], f"golden {name}",
                f"current {name}", lineterm="")))
    assert not problems, "\n\n".join(problems)
