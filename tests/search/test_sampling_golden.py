"""Golden digests of seeded cells of every tuner that samples the space.

The digests below were produced by the per-dimension Parzen estimators
and the per-configuration ``SearchSpace.sample`` loop that the
column-wise estimator and the chunked index sampler replaced.
Reproducing them shows the replacement changed no tuner outcome: every
cell's chosen configuration and final runtime, and every BOHB proposal,
must match to the last bit.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.fidelity import make_fidelity_measure
from repro.gpu import TITAN_V
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV
from repro.parallel import RngFactory
from repro.search import BohbTuner, MultiFidelityObjective
from repro.searchspace import paper_search_space
from repro.serve import tune
from repro.store import STORE_ENV

#: ``tuner -> (sample sizes, sha256 of the cells' rows)``.  BO-GP stops
#: at S = 200: its S = 400 cells spend ~20 s each in the GP and draw from
#: the space exactly as the smaller ones do.
GOLDEN_CELLS = {
    "random_search": (
        (25, 50, 100, 200, 400),
        "e25aa09f40156dd8040aacb39abd1e466d79b926fb994566d7205c14586f6b94",
    ),
    "genetic_algorithm": (
        (25, 50, 100, 200, 400),
        "0e400442ca05156b6a3dbad03735e986eff5a522b5e648cfef406b7ca3d2cdd0",
    ),
    "bo_tpe": (
        (25, 50, 100, 200, 400),
        "dbe562035f53065fe8011bf459d3bd5333d0b80a68c4da9537a392ac7f5117f5",
    ),
    "bo_gp": (
        (25, 50, 100, 200),
        "3b443ec332332fadec48bec3406428f73453ac3b4e5a16ba20292b592c17174f",
    ),
}

BOHB_RUN_SHA256 = (
    "47593c66093b91429733851596c43d28c0069f03aedf5714632f07faf047b6a8"
)
BOHB_PROPOSALS_SHA256 = (
    "e6d26ad46c36e160a34ff3fc5f0a7c72b63838b5f807e0bc2f47694eb9a53ca0"
)


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("tuner", sorted(GOLDEN_CELLS))
def test_seeded_cells_match_golden_digest(tuner, monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    sizes, golden = GOLDEN_CELLS[tuner]
    rows = []
    for size in sizes:
        for experiment in (0, 1):
            answer = tune(
                "harris", "titan_v", tuner, size,
                root_seed=20220530, experiment=experiment,
            )
            rows.append([tuner, size, experiment, int(answer.best_flat),
                         float(answer.final_runtime_ms)])
    assert _digest(rows) == golden, rows


def _mf_objective(budget_units: float) -> MultiFidelityObjective:
    measure = make_fidelity_measure(
        "add", TITAN_V, full_x=2048, full_y=2048,
        rng_factory=RngFactory(7),
    )
    return MultiFidelityObjective(
        space=paper_search_space(), measure=measure,
        budget_units=budget_units,
    )


def test_seeded_bohb_run_matches_golden_digest():
    objective = _mf_objective(40.0)
    BohbTuner(s_max=2, min_points=4).tune_mf(
        objective, np.random.default_rng(3)
    )
    space = objective.space
    rows = [
        [space.config_to_flat(cfg), fidelity, runtime]
        for cfg, fidelity, runtime in zip(
            objective.configs, objective.fidelities, objective.runtimes
        )
    ]
    assert _digest(rows) == BOHB_RUN_SHA256, rows


def test_seeded_bohb_proposals_match_golden_digest():
    objective = _mf_objective(100.0)
    rng = np.random.default_rng(5)
    for cfg in objective.space.sample(rng, 30, feasible_only=True):
        objective.evaluate(cfg, fidelity=1.0)
    tuner = BohbTuner(min_points=4)
    assert tuner._model_observations(objective) is not None
    proposals = tuner._propose(12, objective, rng)
    rows = [objective.space.config_to_flat(cfg) for cfg in proposals]
    rows.append(int(rng.integers(2**62)))  # generator state afterwards
    assert _digest(rows) == BOHB_PROPOSALS_SHA256, rows
