"""The golden smoke study: its configuration, digest, and pinned value.

``GOLDEN_SHA256`` was produced when the study pipeline still had two
ways to measure (live simulation or landscape-table lookups) and two
ways to run a cell (one task at a time or grouped replications), by the
live, per-task path.  Every surviving path must reproduce it to the
last bit.  Only result identity is hashed — never the per-cell metrics,
whose timing sums are wall-clock measurements.
"""

import hashlib
import json

from repro.experiments import ExperimentDesign, StudyConfig

GOLDEN_SHA256 = (
    "2a75d0f42fd5c91cb1b2c3dee02577ed1bdbaa0a6cfd65b77dab5141c655ea5c"
)

ALL_PAPER_ALGORITHMS = (
    "random_search",
    "random_forest",
    "genetic_algorithm",
    "bo_gp",
    "bo_tpe",
)


def golden_config(**kwargs) -> StudyConfig:
    """Five paper tuners on add/titan_v at 512², S = 25 (E = 4) and
    S = 50 (E = 2)."""
    defaults = dict(
        design=ExperimentDesign(
            sample_sizes=(25, 50), experiments_at_largest=2
        ),
        algorithms=ALL_PAPER_ALGORITHMS,
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


def study_digest(study) -> str:
    """sha256 over every cell's identity payload plus the optima."""
    cells = [
        [
            f"{r.algorithm}/{r.kernel}/{r.arch}/{r.sample_size}/"
            f"{r.experiment}",
            float(r.final_runtime_ms).hex(),
            int(r.best_flat),
            float(r.observed_best_ms).hex(),
            int(r.samples_used),
            [float(c).hex() for c in r.convergence],
        ]
        for r in study.results
    ]
    optima = sorted(
        [kernel, arch, float(ms).hex()]
        for (kernel, arch), ms in study.optima.items()
    )
    blob = json.dumps({"cells": cells, "optima": optima}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
