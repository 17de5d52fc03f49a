"""Where landscape tables live must never change a study.

Every measurement is a landscape-table lookup; ``landscape_cache`` only
chooses whether the tables persist in a directory (memory-mapped, shared
by worker processes and later studies) or stay in memory.  These tests
pin the directory-backed study to the golden digest the live simulator
produced (:mod:`tests.experiments.golden_study`; the in-memory run is
``test_study_golden``), and check that checkpoints, resume, the
environment override and warm-cache reuse agree across both homes.

Wall-clock timing sums in ``ExperimentResult.metrics``
(``evaluate_seconds_sum`` & co.) are the one legitimately nondeterministic
payload in a checkpoint line, so ``time.perf_counter`` is pinned to a
constant for the byte-level comparison; the study runs serial
(``workers=1``) so the pin applies to every cell.
"""

import time

import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo

from .golden_study import GOLDEN_SHA256, golden_config, study_digest


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def smoke_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
        algorithms=("random_search", "genetic_algorithm", "bo_gp"),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


class TestStudyParity:
    def test_results_and_optima_identical(self, tmp_path):
        cache = tmp_path / "cache"
        backed = run_study(golden_config(), landscape_cache=cache)
        assert backed.metadata["landscape_cache"] == str(cache)
        assert len(list(cache.glob("*.json"))) == 1
        assert study_digest(backed) == GOLDEN_SHA256

    def test_checkpoints_byte_identical_including_resume(
        self, tmp_path, monkeypatch
    ):
        # Pin the only nondeterministic checkpoint payload (timing sums).
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = smoke_config()

        memory_ckpt = tmp_path / "memory.jsonl"
        in_memory = run_study(config, checkpoint=memory_ckpt)
        assert in_memory.metadata["landscape_cache"] is None
        clear_optimum_cache()

        backed_ckpt = tmp_path / "backed.jsonl"
        run_study(
            config,
            checkpoint=backed_ckpt,
            landscape_cache=tmp_path / "cache",
        )
        assert memory_ckpt.read_bytes() == backed_ckpt.read_bytes()

        # Resuming an in-memory study's checkpoint with a cache directory
        # completes it to the same bytes: drop the trailing lines and
        # rerun.
        clear_optimum_cache()
        lines = memory_ckpt.read_bytes().splitlines(keepends=True)
        assert len(lines) > 4
        resumed_ckpt = tmp_path / "resumed.jsonl"
        # Header + plan line + first two completed cells.
        resumed_ckpt.write_bytes(b"".join(lines[:4]))
        resumed = run_study(
            config,
            checkpoint=resumed_ckpt,
            landscape_cache=tmp_path / "cache",
        )
        assert resumed.metadata["resumed_from_checkpoint"] == 2
        assert resumed.results == in_memory.results
        # Same set of result lines, modulo completion order (the resumed
        # file appends the remaining cells after the kept prefix).
        assert sorted(resumed_ckpt.read_bytes().splitlines()) == sorted(
            memory_ckpt.read_bytes().splitlines()
        )

    def test_env_var_enables_tables(self, tmp_path, monkeypatch):
        config = smoke_config(algorithms=("genetic_algorithm",))
        in_memory = run_study(config)
        clear_optimum_cache()
        monkeypatch.setenv(LANDSCAPE_CACHE_ENV, str(tmp_path / "envcache"))
        backed = run_study(config)
        assert backed.metadata["landscape_cache"] == str(
            tmp_path / "envcache"
        )
        assert (tmp_path / "envcache").exists()
        assert in_memory.results == backed.results

    def test_warm_cache_reused_across_studies(self, tmp_path):
        config = smoke_config(algorithms=("genetic_algorithm",))
        cache = tmp_path / "cache"
        first = run_study(config, landscape_cache=cache)
        sidecars = sorted(p.name for p in cache.glob("*.json"))
        assert len(sidecars) == 1
        clear_optimum_cache()
        clear_landscape_memo()
        second = run_study(config, landscape_cache=cache)
        assert first.results == second.results
        assert first.optima == second.optima
        assert sorted(p.name for p in cache.glob("*.json")) == sidecars
