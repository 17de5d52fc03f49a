"""The three benchmark workloads.

Each drives the program only through its public entry points —
``run_study``, ``tune``, ``ResultStore`` and ``load_or_compute_landscape``
(``run_experiment`` runs beneath the first two) — and passes
``run_study`` no argument the ROADMAP plans to delete.  Entry points are
looked up on their modules at call time, so the wrappers that
:mod:`tracing` installs see every call.

Work size derives from ``--seconds`` through a fixed budget per unit of
work, never from the clock, so two commits benchmarked with the same
settings do identical work.  Each budget is the unit's time on a 2-core
x86-64 host plus a share for the run's set-up and checks.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro.experiments as experiments
import repro.serve as serve
from repro.experiments import ExperimentDesign, StudyConfig
from repro.gpu.arch import PAPER_ARCHITECTURES
from repro.kernels import PAPER_KERNEL_NAMES
from repro.search import PAPER_ALGORITHM_NAMES
from repro.store import ResultStore

from checks import (
    Cell,
    answers_consistent,
    cell_of,
    cells_complete,
    digest,
    reruns_match,
)
from stats import HostSpeed, Meter, median

SIZES = (25, 50, 100, 200, 400)
ALL_PAIRS = tuple((k, a) for k in PAPER_KERNEL_NAMES for a in PAPER_ARCHITECTURES)


@dataclass
class Context:
    """What a workload run needs from the harness."""

    seed: int
    #: Warm landscape cache directory (filled by the set-up phase).
    cache: str
    #: Scratch directory for stores and checkpoints, removed afterwards.
    scratch: Path
    #: Probed between measured units, never inside one.
    host: HostSpeed = field(default_factory=HostSpeed)
    _dirs: int = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """What one measured phase did and produced."""

    attempted: int = 0
    failed: int = 0
    #: Finished cells ``(key, final_runtime_ms, best_flat)`` for checks.
    cells: List[Cell] = field(default_factory=list)
    #: Cell keys the phase planned to finish.
    planned: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    cells_per_s: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: Per-request latencies in ms, split by whether the store answered.
    warm_ms: List[float] = field(default_factory=list)
    cold_ms: List[float] = field(default_factory=list)
    #: ``(checkpoint file, store directory)`` pairs the phase wrote.
    artifacts: List[Tuple[Optional[Path], Optional[Path]]] = field(
        default_factory=list
    )
    #: Cells to re-run as ``(tuner, kernel, arch, S, experiment, root_seed)``.
    rerun: List[tuple] = field(default_factory=list)
    #: Free-form lines printed with the result.
    notes: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return digest(self.cells)


def rerun_cells(ctx: Context, picks: Sequence[tuple]) -> List[Cell]:
    """Recompute cells one at a time in this process.

    ``tune`` with no store builds the cell's ``ExperimentTask`` and calls
    ``run_experiment`` inline.  Its dataset for a dataset-driven tuner
    has ``S * (experiment + 1)`` rows, so only a study's last replication
    at each size shares its dataset with the study; picks are drawn
    from those.
    """
    out = []
    for tuner, kernel, arch, size, exp, root_seed in picks:
        answer = serve.tune(
            kernel, arch, tuner, size,
            landscape_cache=ctx.cache, root_seed=root_seed, experiment=exp,
        )
        out.append((
            f"{tuner}/{kernel}/{arch}/{size}/{exp}",
            float(answer.final_runtime_ms),
            int(answer.best_flat),
        ))
    return out


def _study_cells(results, outcome: Outcome) -> List[Cell]:
    """A study's finished cells; its attempts and failures are counted."""
    outcome.failed += len(results.metadata["failed_cells"])
    outcome.attempted += int(results.metadata["total_experiments"])
    return [cell_of(r) for r in results.results]


def _planned(config: StudyConfig) -> List[str]:
    return [
        f"{alg}/{k}/{a}/{s}/{e}"
        for alg in config.algorithms
        for k in config.kernels
        for a in config.archs
        for s in config.design.sample_sizes
        for e in range(config.design.experiments_for(s))
    ]


def _last_replications(config: StudyConfig, rng: random.Random, n: int):
    """``n`` seed-chosen cells among each size's last replication."""
    pool = [
        (alg, k, a, s, config.design.experiments_for(s) - 1, config.root_seed)
        for alg in config.algorithms
        for k in config.kernels
        for a in config.archs
        for s in config.design.sample_sizes
    ]
    return rng.sample(pool, min(n, len(pool)))


class SurrogateDesign:
    """5 paper tuners on harris/titan_v at the paper's S-proportional
    replication counts: E = 16/8/4/2/1 at S = 25..400 is 1/50 of one
    (kernel, arch) slice of the paper's design, 155 cells.

    The whole slice takes about 40 s, and a run of ``slice_s`` seconds or
    more measures all of it, one ``run_study`` per S.  A shorter run
    scales each E(S) by ``--seconds / slice_s`` (at least one replication,
    so a 20 s run measures E' = 8/4/2/1/1) and projects the slice from
    the measured strata: its wall and CPU are
    ``sum over S of E(S) / E'(S) * t(S)``.  Its few heavily weighted
    cells make the projection vary from seed to seed, so the run length in
    BENCHMARK.json measures the whole slice.
    """

    name = "surrogate-design"
    pairs = (("harris", "titan_v"),)
    setup_repeats = 3
    #: E(S) of the slice (``ExperimentDesign(experiments_at_largest=1)``).
    schedule = ExperimentDesign(experiments_at_largest=1).schedule
    #: Seconds budgeted for the whole slice (~40 s).
    slice_s = 40.0

    def size(self, seconds: int, trace: bool) -> Dict[int, int]:
        """E'(S): the replications measured at each S."""
        scale = 0.0 if trace else min(1.0, seconds / self.slice_s)
        return {s: max(1, round(e * scale)) for s, e in self.schedule.items()}

    def warm_up(self, ctx: Context) -> None:
        # Fills the per-process optimum and feasibility memos a long
        # study amortises; a run at S = 25 would otherwise pay them.
        experiments.run_study(
            self._config(ctx, 25, 1, ("random_search",)),
            landscape_cache=ctx.cache, result_store=False,
        )

    def _config(self, ctx, size, replications, algorithms=PAPER_ALGORITHM_NAMES):
        return StudyConfig(
            design=ExperimentDesign(
                sample_sizes=(size,), experiments_at_largest=replications
            ),
            algorithms=algorithms,
            kernels=("harris",),
            archs=("titan_v",),
            root_seed=ctx.seed,
            workers=1,
        )

    def run(self, ctx: Context, measured: Dict[int, int], in_process: bool) -> Outcome:
        out = Outcome()
        wall = cpu = 0.0
        rng = random.Random(ctx.seed)
        for size in SIZES:
            config = self._config(ctx, size, measured[size])
            with Meter() as meter:
                results = experiments.run_study(
                    config,
                    landscape_cache=ctx.cache,
                    result_store=False,
                    failure_policy="collect",
                )
            out.cells += _study_cells(results, out)
            out.planned += _planned(config)
            if size <= 100:
                out.rerun += _last_replications(config, rng, 1)
            weight = self.schedule[size] / measured[size]
            wall += weight * meter.usage.wall_s
            cpu += weight * meter.usage.cpu_s
            out.wall_s += meter.usage.wall_s
            ctx.host.sample()
        # Two re-runs at seed-chosen sizes up to 100 keep the check
        # under a few seconds; larger cells cost up to 4 s each.
        out.rerun = rng.sample(out.rerun, 2)
        slice_cells = len(PAPER_ALGORITHM_NAMES) * sum(self.schedule.values())
        out.cells_per_s = slice_cells / wall
        out.cpu_s = cpu
        out.notes.append(
            f"projection (ungated): full paper design ~ {cpu * 450 / 3600:.2f} "
            f"CPU-hours = cpu_s x 450 (x50 replications, x9 kernel/arch "
            f"pairs, assuming harris/titan_v is representative)"
        )
        return out


class RsGaGrid:
    """RS + GA on all 3 kernels x 3 GPUs at the paper's S schedule with
    E(400) = 4 (E = 64/32/16/8/4, 2232 cells), through the process
    executor with one worker per core, a checkpoint file and a cold
    result store.  Cells take a few ms, so the cost is per-cell set-up,
    device lookups, dispatch and the parent's checkpoint/store writes.
    """

    name = "rs-ga-grid"
    pairs = ALL_PAIRS
    setup_repeats = 1
    experiments_at_largest = 4
    #: Seconds budgeted per study (~8 s) with its share of the 9-table
    #: set-up (~13 s); a 40 s run measures two studies.
    study_s = 20.0

    def size(self, seconds: int, trace: bool) -> int:
        return 1 if trace else max(1, round(seconds / self.study_s))

    def _config(self, ctx: Context, workers: int) -> StudyConfig:
        return StudyConfig(
            design=ExperimentDesign(
                experiments_at_largest=self.experiments_at_largest
            ),
            algorithms=("random_search", "genetic_algorithm"),
            root_seed=ctx.seed,
            workers=workers,
        )

    def warm_up(self, ctx: Context) -> None:
        config = StudyConfig(
            design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=1),
            algorithms=("random_search", "genetic_algorithm"),
            root_seed=ctx.seed,
            workers=1,
        )
        experiments.run_study(config, landscape_cache=ctx.cache, result_store=False)

    def run(self, ctx: Context, studies: int, in_process: bool) -> Outcome:
        out = Outcome()
        workers = 1 if in_process else len(os.sched_getaffinity(0))
        config = self._config(ctx, workers)
        rates, cpus, runs = [], [], []
        for _ in range(studies):
            work = ctx.fresh_dir("study")
            checkpoint, store = work / "checkpoint.jsonl", work / "store"
            with Meter() as meter:
                results = experiments.run_study(
                    config,
                    landscape_cache=ctx.cache,
                    checkpoint=str(checkpoint),
                    result_store=str(store),
                    failure_policy="collect",
                    executor=None if in_process else "process",
                )
            runs.append(_study_cells(results, out))
            out.artifacts.append((checkpoint, store))
            rates.append(len(results.results) / meter.usage.wall_s)
            cpus.append(meter.usage.cpu_s)
            out.wall_s += meter.usage.wall_s
            ctx.host.sample()
        digests = sorted({digest(cells) for cells in runs})
        if len(digests) != 1:
            out.problems.append(f"repeated studies disagree: {digests}")
        # Repeated studies redo the same cells; check the first one's.
        out.cells = runs[0]
        out.planned = _planned(config)
        out.cells_per_s = median(rates)
        out.cpu_s = median(cpus)
        out.rerun = _last_replications(config, random.Random(ctx.seed), 4)
        return out


class TuneRequests:
    """A closed loop of one client issuing seeded ``tune()`` requests over
    9 (kernel, arch) pairs x 5 tuners x budget {25, 50, 100} x experiment
    0-3, against a cold store.

    The stream comes in blocks of 30: one new request for each of the 15
    (tuner, budget) classes and 15 repeats of earlier requests, in
    seed-shuffled order.  A class's new requests walk a seed-shuffled
    order of the 9 (kernel, arch) pairs while the experiment index
    rotates from a seed-chosen start, so nine blocks visit every pair
    once per class and the experiments evenly.  Every block holds the
    same mix of tuners and budgets and the stream the same mix of
    kernels, GPUs and experiments, so the cold work, which those
    decide, barely depends on the seed.
    """

    name = "tune-requests"
    pairs = ALL_PAIRS
    setup_repeats = 1
    budgets = (25, 50, 100)
    experiments = 4
    #: Seconds budgeted per block (~3.5 s) with its share of the 9-table
    #: set-up (~13 s); a 40 s run measures eight blocks.
    block_s = 5.0

    def size(self, seconds: int, trace: bool) -> int:
        blocks = max(1, round(seconds / self.block_s))
        return max(1, blocks // 2) if trace else blocks

    def warm_up(self, ctx: Context) -> None:
        store = ctx.fresh_dir("warmup-store")
        for kernel, arch in self.pairs:
            serve.tune(kernel, arch, "random_search", 25,
                       store=str(store), landscape_cache=ctx.cache)

    @classmethod
    def stream(cls, seed: int, blocks: int) -> List[tuple]:
        """``(kernel, arch, tuner, budget, experiment)`` requests."""
        rng = random.Random(seed)
        classes = [(t, b) for t in PAPER_ALGORITHM_NAMES for b in cls.budgets]
        # Block b draws pair order[b % 9] at experiment (start + b) % 4:
        # distinct cells for lcm(9, 4) = 36 blocks.
        limit = len(ALL_PAIRS) * cls.experiments
        if blocks > limit:
            raise ValueError(f"at most {limit} blocks, got {blocks}")
        draws = {}
        for c in classes:
            order = rng.sample(ALL_PAIRS, len(ALL_PAIRS))
            start = rng.randrange(cls.experiments)
            draws[c] = [
                order[b % len(order)] + ((start + b) % cls.experiments,)
                for b in range(blocks)
            ]
        out: List[tuple] = []
        for block in range(blocks):
            fresh = [
                (k, a, t, b, e)
                for (t, b) in classes
                for (k, a, e) in [draws[(t, b)][block]]
            ]
            rng.shuffle(fresh)
            slots = [True] * len(fresh) + [False] * len(fresh)
            rng.shuffle(slots)
            if not out and not slots[0]:
                slots[slots.index(True)] = False
                slots[0] = True
            for is_new in slots:
                out.append(fresh.pop() if is_new else rng.choice(out))
        return out

    def run(self, ctx: Context, blocks: int, in_process: bool) -> Outcome:
        out = Outcome()
        store = ResultStore(ctx.fresh_dir("store"))
        answers = []
        stream = self.stream(ctx.seed, blocks)
        per_block = len(stream) // blocks
        block_walls, block_cpus = [], []
        for block in range(blocks):
            with Meter() as meter:
                for request in stream[block * per_block:(block + 1) * per_block]:
                    kernel, arch, tuner, budget, exp = request
                    out.attempted += 1
                    start = time.perf_counter()
                    try:
                        answer = serve.tune(
                            kernel, arch, tuner, budget, store=store,
                            landscape_cache=ctx.cache, experiment=exp,
                        )
                    except Exception as exc:  # a failed request is counted, not fatal
                        out.failed += 1
                        out.problems.append(f"request {request} raised {exc!r}")
                        answer = None
                    end = time.perf_counter()
                    if answer is not None:
                        (out.warm_ms if answer.cached else out.cold_ms).append(
                            (end - start) * 1000.0
                        )
                        answers.append((request, answer))
            block_walls.append(meter.usage.wall_s)
            block_cpus.append(meter.usage.cpu_s)
            ctx.host.sample()
        out.artifacts.append((None, store.root))
        out.wall_s = sum(block_walls)
        # Every block carries the same tuners and budgets, so the median
        # block's rate leaves out a block the host slowed down.
        out.cells_per_s = per_block / median(block_walls)
        out.cpu_s = sum(block_cpus)
        out.problems += answers_consistent([
            (req, a.cached, (a.best_flat, a.final_runtime_ms.hex(),
                             a.observed_best_ms.hex(), a.samples_used,
                             a.fingerprint))
            for req, a in answers
        ])
        key = "{2}/{0}/{1}/{3}/{4}".format
        out.planned = sorted({key(*request) for request in stream})
        out.cells = [
            (key(*req), float(a.final_runtime_ms), int(a.best_flat))
            for req, a in answers
            if not a.cached
        ]
        return out


WORKLOADS: Dict[str, object] = {
    w.name: w for w in (SurrogateDesign(), RsGaGrid(), TuneRequests())
}


def check(ctx: Context, outcome: Outcome) -> List[str]:
    """Every correctness check of one measured phase."""
    problems = list(outcome.problems)
    problems += cells_complete(outcome.cells, outcome.planned)
    if outcome.rerun:
        problems += reruns_match(outcome.cells, rerun_cells(ctx, outcome.rerun))
    return problems
