"""Grouped (batched) dispatch reproduces the per-task cell, bit for bit.

Every study cell runs through the batched engine
(:func:`~repro.experiments.runner.run_experiment_batch` via
``ParallelMap.run_grouped``).  It may share setup and vectorize across a
replication group, but every replication keeps its own cell-key-derived
RNG streams — so results, checkpoints, and traces must be *identical* to
what :func:`~repro.experiments.runner.run_experiment` (``tune()``'s entry
point and the per-task retry fallback) produces one task at a time, and
to the golden digest the per-task path pinned
(:mod:`tests.experiments.golden_study`).

Wall-clock timing sums in ``ExperimentResult.metrics`` are the one
legitimately nondeterministic checkpoint payload, so ``time.perf_counter``
is pinned for the byte-level comparisons (serial runs, so the pin covers
every cell).
"""

import json
import time

import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.experiments.results import StudyResults
from repro.experiments.runner import (
    FAIL_CELLS_ENV,
    batch_group_key,
    run_experiment,
    run_experiment_batch,
)
from repro.experiments.study import (
    _collect_datasets,
    _compute_optima,
    _load_landscapes,
    build_tasks,
)
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo
from repro.parallel import TaskFailure

from .golden_study import (
    ALL_PAPER_ALGORITHMS,
    GOLDEN_SHA256,
    golden_config,
    study_digest,
)


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    monkeypatch.delenv(FAIL_CELLS_ENV, raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def smoke_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=3),
        algorithms=ALL_PAPER_ALGORITHMS,
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


def study_tasks(config, cache=None, **task_kwargs):
    """The study's task list and optima, built as ``run_study`` does."""
    cache_dir = str(cache) if cache is not None else None
    tables = _load_landscapes(config, cache_dir)
    tasks = build_tasks(
        config,
        _collect_datasets(config, tables),
        landscape_cache=cache_dir,
        **task_kwargs,
    )
    return tasks, _compute_optima(config, tables)


def per_task_study(config, cache=None):
    """The study's cells run one at a time through ``run_experiment``."""
    tasks, optima = study_tasks(config, cache)
    return StudyResults(
        results=[run_experiment(task) for task in tasks], optima=optima
    )


class TestStudyParity:
    def test_all_paper_tuners_identical_with_tables(self, tmp_path):
        # Tables persisted in a cache directory, one task at a time.
        per_task = per_task_study(golden_config(), tmp_path / "cache")
        assert study_digest(per_task) == GOLDEN_SHA256

    def test_identical_without_tables(self):
        # No cache directory: tables in memory, one task at a time.
        assert study_digest(per_task_study(golden_config())) == GOLDEN_SHA256

    def test_workers_do_not_change_results(self, tmp_path):
        parallel = run_study(
            golden_config(workers=2), landscape_cache=tmp_path / "cache"
        )
        assert study_digest(parallel) == GOLDEN_SHA256

    def test_checkpoints_byte_identical_including_mid_group_resume(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = smoke_config()
        cache = tmp_path / "cache"

        batch_ckpt = tmp_path / "batched.jsonl"
        full = run_study(config, checkpoint=batch_ckpt, landscape_cache=cache)

        # Cell metrics survive the batched path byte-for-byte too.
        for line in batch_ckpt.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "result":
                assert "metrics" in record["data"]

        # Resume mid-group: truncate inside the first replication group
        # (3 RS experiments form one batch) and finish the group — same
        # results, same set of checkpoint lines.
        clear_optimum_cache()
        lines = batch_ckpt.read_bytes().splitlines(keepends=True)
        assert len(lines) > 2
        resumed_ckpt = tmp_path / "resumed.jsonl"
        # Header + plan line + first completed cell.
        resumed_ckpt.write_bytes(b"".join(lines[:3]))
        resumed = run_study(
            config, checkpoint=resumed_ckpt, landscape_cache=cache
        )
        assert resumed.metadata["resumed_from_checkpoint"] == 1
        assert resumed.results == full.results
        assert sorted(resumed_ckpt.read_bytes().splitlines()) == sorted(
            batch_ckpt.read_bytes().splitlines()
        )

    def test_traces_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = smoke_config(
            algorithms=("random_search", "random_forest", "genetic_algorithm")
        )
        cache = tmp_path / "cache"

        def trace_events(trace_dir):
            # The "t" wall-clock field is the only nondeterministic part
            # of a trace event (perf_counter is pinned, so spans carry
            # duration_s == 0.0); strip it and compare everything else.
            events = []
            for path in sorted(trace_dir.glob("trace-*.jsonl")):
                for line in path.read_text().splitlines():
                    doc = json.loads(line)
                    doc.pop("t", None)
                    events.append(doc)
            return events

        seq_dir = tmp_path / "seq-traces"
        tasks, _ = study_tasks(config, cache, trace_dir=str(seq_dir))
        for task in tasks:
            run_experiment(task)
        batch_dir = tmp_path / "batch-traces"
        batched = run_study(
            config,
            compute_optima=False,
            landscape_cache=cache,
            trace_dir=batch_dir,
        )
        assert batched.metadata["trace_dir"] == str(batch_dir)
        seq_events = trace_events(seq_dir)
        assert seq_events  # the cells actually traced something
        assert seq_events == trace_events(batch_dir)


class TestFailuresUnderBatchedDispatch:
    def test_injected_failure_attributed_siblings_survive(
        self, tmp_path, monkeypatch
    ):
        config = smoke_config(algorithms=("random_search",))
        cache = tmp_path / "cache"
        bad_cell = "random_search/add/titan_v/25/1"
        monkeypatch.setenv(FAIL_CELLS_ENV, bad_cell)
        results = run_study(
            config,
            compute_optima=False,
            failure_policy="collect",
            landscape_cache=cache,
        )
        failed = results.failed_cells
        assert [f["cell_key"] for f in failed] == [bad_cell]
        assert failed[0]["error_type"] == "InjectedFailure"
        # The two sibling replications of the same batch completed, and
        # their payloads match an unpoisoned run exactly.
        assert len(results.results) == 2
        clear_optimum_cache()
        monkeypatch.delenv(FAIL_CELLS_ENV)
        clean = run_study(
            config, compute_optima=False, landscape_cache=cache
        )
        by_exp = {r.experiment: r for r in clean.results}
        for r in results.results:
            assert r == by_exp[r.experiment]

    def test_injected_failure_fallback_path(self, tmp_path, monkeypatch):
        # RF groups take the shared-context fallback (live reserve > 0):
        # the failure must still land on exactly the injected cell.
        config = smoke_config(algorithms=("random_forest",))
        bad_cell = "random_forest/add/titan_v/25/0"
        monkeypatch.setenv(FAIL_CELLS_ENV, bad_cell)
        results = run_study(
            config,
            compute_optima=False,
            failure_policy="collect",
            landscape_cache=tmp_path / "cache",
        )
        assert [f["cell_key"] for f in results.failed_cells] == [bad_cell]
        assert {r.experiment for r in results.results} == {1, 2}

    def test_fail_fast_names_injected_cell(self, tmp_path, monkeypatch):
        from repro.parallel import TaskError

        config = smoke_config(algorithms=("random_search",))
        bad_cell = "random_search/add/titan_v/25/0"
        monkeypatch.setenv(FAIL_CELLS_ENV, bad_cell)
        with pytest.raises(TaskError) as err:
            run_study(
                config,
                compute_optima=False,
                landscape_cache=tmp_path / "cache",
            )
        assert err.value.task.cell_key == bad_cell


class TestRunExperimentBatch:
    def _tasks(self, config, tmp_path):
        return study_tasks(config, tmp_path / "cache")[0]

    def test_matches_run_experiment_per_task(self, tmp_path, monkeypatch):
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = smoke_config()
        tasks = self._tasks(config, tmp_path)
        batched = run_experiment_batch(tasks)
        assert len(batched) == len(tasks)
        for task, item in zip(tasks, batched):
            assert not isinstance(item, TaskFailure)
            assert item == run_experiment(task)
            assert item.metrics == run_experiment(task).metrics

    def test_mixed_groups_handled(self, tmp_path):
        # run_experiment_batch splits mixed input by group key itself.
        config = smoke_config(
            algorithms=("random_search", "genetic_algorithm")
        )
        tasks = self._tasks(config, tmp_path)
        keys = {batch_group_key(t) for t in tasks}
        assert len(keys) == 2
        shuffled = tasks[::-1]
        batched = run_experiment_batch(shuffled)
        for task, item in zip(shuffled, batched):
            assert item == run_experiment(task)

    def test_bad_dataset_payload_fails_only_that_task(self, tmp_path):
        config = smoke_config(algorithms=("random_search",))
        tasks = self._tasks(config, tmp_path)
        from dataclasses import replace

        broken = replace(
            tasks[1],
            dataset_flats=tasks[1].dataset_flats[:-3],
            dataset_runtimes=tasks[1].dataset_runtimes[:-3],
        )
        batch = [tasks[0], broken, tasks[2]]
        items = run_experiment_batch(batch)
        assert items[0] == run_experiment(tasks[0])
        assert isinstance(items[1], TaskFailure)
        assert "dataset slice" in str(items[1].error)
        assert items[2] == run_experiment(tasks[2])

    def test_empty_batch(self):
        assert run_experiment_batch([]) == []
