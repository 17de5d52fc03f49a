"""A seeded smoke study reproduces its golden digest.

See :mod:`tests.experiments.golden_study` for where the digest came
from.  The run uses neither a landscape cache directory nor a result
store, so it exercises the default measurement and dispatch path.
"""

import pytest

from repro.experiments import run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo
from repro.store import STORE_ENV

from .golden_study import GOLDEN_SHA256, golden_config, study_digest


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    monkeypatch.delenv(STORE_ENV, raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def test_smoke_study_matches_golden_digest():
    study = run_study(golden_config(), compute_optima=True)
    assert len(study.results) == 5 * (4 + 2)
    assert not study.failed_cells
    assert study_digest(study) == GOLDEN_SHA256
