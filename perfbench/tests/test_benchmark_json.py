import json
from pathlib import Path

import layers
from run import END_TO_END
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
