"""Golden digest of seeded RF-tuner cells.

The digest below was produced by the recursive (node-by-node) CART
builder the level-wise builder replaced.  Reproducing it shows the
replacement changed no tuner outcome: every cell's chosen configuration
and final runtime must match to the last bit.
"""

import hashlib
import json

from repro.gpu.landscape import LANDSCAPE_CACHE_ENV
from repro.serve import tune
from repro.store import STORE_ENV

GOLDEN_SHA256 = (
    "06f9c2e2c8733359883b9beb56bc079567aacd6574b63c718f9e3cd375f0e357"
)


def test_seeded_rf_cells_match_golden_digest(monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    rows = []
    for size in (25, 50, 100, 200, 400):
        for experiment in (0, 1):
            answer = tune(
                "harris", "titan_v", "random_forest", size,
                root_seed=20220530, experiment=experiment,
            )
            rows.append([size, experiment, int(answer.best_flat),
                         float(answer.final_runtime_ms)])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == GOLDEN_SHA256, rows
