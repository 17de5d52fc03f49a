"""Full-study orchestration: the paper's entire cross-product.

The paper's study is 5 algorithms x 3 benchmarks x 3 architectures x
5 sample sizes x (800..50) experiments — about 3 million kernel samples
(Section VII, footnote 1).  :func:`run_study` reproduces that pipeline at
any scale:

1. build (or load) the landscape table of each (kernel, architecture)
   — every later measurement is a lookup in it,
2. collect the pre-measured dataset for each landscape — the non-SMBO
   sample source (Section VI-B),
3. compute each landscape's true optimum by exhaustive scan of its
   table (the denominator of "percentage of optimum"),
4. run every (algorithm, kernel, arch, S) replication group through
   one loop — checkpoint replay, result-store lookup, grouped dispatch,
   persist — with per-experiment reproducible RNG streams: one round to
   the budget for the fixed design, or adaptive rounds that stop each
   group at its CI target,
5. gather everything into a :class:`~repro.experiments.results.StudyResults`.

``StudyConfig`` defaults to the paper's exact design; tests and benches
shrink it via ``experiments_at_largest``, ``sample_sizes`` and the kernel/
architecture lists.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..gpu.arch import PAPER_ARCHITECTURES, get_architecture
from ..gpu.device import SimulatedDevice
from ..gpu.landscape import (
    LandscapeTable,
    default_cache_dir,
    landscape_fingerprint,
    load_or_compute_landscape,
)
from ..gpu.noise import DEFAULT_NOISE, NoiseModel
from ..gpu.workload import WorkloadProfile
from ..kernels import PAPER_KERNEL_NAMES, get_kernel
from ..obs import NULL_TRACER, MetricsRegistry, global_registry, tracer_for_dir
from ..obs.profile import PhaseProfiler
from ..obs.spans import SpanContext, SpanScope, child_span
from ..parallel import (
    EXECUTOR_NAMES,
    ParallelMap,
    RngFactory,
    TaskOutcome,
    make_executor,
)
from ..search import PAPER_ALGORITHM_NAMES, make_tuner
from ..search.base import DatasetTuner
from ..stats.bootstrap import bootstrap_halfwidth
from ..store import (
    ResultStore,
    cell_identity,
    default_store_dir,
    fingerprint_of,
)
from .checkpoint import StudyCheckpoint
from .dataset import PrecollectedDataset, collect_dataset
from .design import AdaptiveConfig, ExperimentDesign
from .optimum import find_true_optimum
from .results import StudyResults
from .runner import (
    ExperimentTask,
    batch_group_key,
    run_experiment,
    run_experiment_batch,
)
from .telemetry import StudyTelemetry

__all__ = [
    "StudyConfig",
    "run_study",
    "paper_study_config",
    "collect_landscape_dataset",
]


@dataclass(frozen=True)
class StudyConfig:
    """Scale and composition of a study run."""

    design: ExperimentDesign = field(default_factory=ExperimentDesign)
    algorithms: Tuple[str, ...] = PAPER_ALGORITHM_NAMES
    kernels: Tuple[str, ...] = PAPER_KERNEL_NAMES
    archs: Tuple[str, ...] = tuple(PAPER_ARCHITECTURES)
    image_x: int = 8192
    image_y: int = 8192
    root_seed: int = 20220530  # the paper's publication era
    final_repeats: int = 10
    noise: NoiseModel = DEFAULT_NOISE
    #: Worker processes (None = all cores, 1 = serial).
    workers: Optional[int] = 1
    #: Per-algorithm constructor overrides, e.g.
    #: ``{"bo_gp": (("init_fraction", 0.2),)}`` for ablations.
    tuner_overrides: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()

    def overrides_for(self, algorithm: str) -> tuple:
        for name, kwargs in self.tuner_overrides:
            if name == algorithm:
                return kwargs
        return ()

    def validate(self) -> None:
        if not self.algorithms:
            raise ValueError("study needs at least one algorithm")
        if not self.kernels:
            raise ValueError("study needs at least one kernel")
        if not self.archs:
            raise ValueError("study needs at least one architecture")
        for arch in self.archs:
            get_architecture(arch)  # raises on unknown names
        for alg in self.algorithms:
            make_tuner(alg, **dict(self.overrides_for(alg)))


def paper_study_config(workers: Optional[int] = None) -> StudyConfig:
    """The paper's full-scale design (~3M samples — hours of compute)."""
    return StudyConfig(workers=workers)


def _dataset_tuners(config: StudyConfig) -> Dict[str, bool]:
    """Which of the study's tuners read a pre-collected dataset, by
    algorithm name — each tuner is constructed once, here."""
    return {
        alg: isinstance(
            make_tuner(alg, **dict(config.overrides_for(alg))), DatasetTuner
        )
        for alg in config.algorithms
    }


class _CellFingerprints:
    """Memoized per-cell result-store fingerprints for one study config.

    The landscape fingerprint (one kernel/space construction per
    (kernel, arch) pair) dominates the cost of a cell identity, so it is
    computed once and shared across every cell on that landscape —
    fingerprinting a whole study is then microseconds per cell.
    """

    def __init__(
        self, config: StudyConfig, needs_data: Dict[str, bool]
    ) -> None:
        self._config = config
        self._landscape_fps: Dict[Tuple[str, str], str] = {}
        self._needs_data = needs_data

    def _landscape_fp(self, kname: str, aname: str) -> str:
        key = (kname, aname)
        fp = self._landscape_fps.get(key)
        if fp is None:
            kernel = get_kernel(
                kname, self._config.image_x, self._config.image_y
            )
            fp = landscape_fingerprint(
                kernel.profile(), get_architecture(aname), kernel.space()
            )
            self._landscape_fps[key] = fp
        return fp

    def fingerprint_for(
        self, alg: str, kname: str, aname: str, size: int, exp: int
    ) -> Tuple[str, dict]:
        """``(fingerprint, identity)`` of one study cell."""
        config = self._config
        identity = cell_identity(
            self._landscape_fp(kname, aname),
            algorithm=alg,
            kernel=kname,
            arch=aname,
            sample_size=size,
            experiment=exp,
            root_seed=config.root_seed,
            final_repeats=config.final_repeats,
            noise=config.noise,
            tuner_kwargs=config.overrides_for(alg),
            dataset_rows=(
                config.design.dataset_rows_required
                if self._needs_data[alg]
                else None
            ),
        )
        return fingerprint_of(identity), identity


def _load_landscapes(
    config: StudyConfig, cache_dir: Optional[str]
) -> Dict[Tuple[str, str], LandscapeTable]:
    """One landscape table per (kernel, arch) — the study's single
    full-space simulator pass per landscape, and the source of every
    measurement after it.  With ``cache_dir`` the tables land on disk so
    worker processes memory-map them instead of recomputing; without
    one they are built in memory, memoized per process (forked pool
    workers inherit them)."""
    out: Dict[Tuple[str, str], LandscapeTable] = {}
    for kname in config.kernels:
        kernel = get_kernel(kname, config.image_x, config.image_y)
        profile = kernel.profile()
        space = kernel.space()
        for aname in config.archs:
            out[(kname, aname)] = load_or_compute_landscape(
                profile, get_architecture(aname), space, cache_dir=cache_dir
            )
    return out


def collect_landscape_dataset(
    kname: str,
    aname: str,
    profile: WorkloadProfile,
    table: LandscapeTable,
    noise: NoiseModel,
    root_seed: int,
    rows: int,
    metrics: Optional[MetricsRegistry] = None,
) -> PrecollectedDataset:
    """The pre-measured dataset of one (kernel, arch) landscape.

    The one owner of the dataset RNG streams: row sampling draws from
    ``dataset/{kernel}/{arch}/sample`` and measurement noise from
    ``dataset/{kernel}/{arch}/device`` under ``root_seed``, so a study
    and a :func:`~repro.serve.tune` request with the same seed read the
    same rows.  Table lookups are counted into ``metrics`` when given.
    """
    rngs = RngFactory(root_seed)
    device = SimulatedDevice(
        get_architecture(aname),
        profile,
        noise=noise,
        rng=rngs.stream_for(f"dataset/{kname}/{aname}/device"),
        table=table,
    )
    dataset = collect_dataset(
        device,
        table.space,
        rows,
        rngs.stream_for(f"dataset/{kname}/{aname}/sample"),
    )
    if metrics is not None:
        metrics.counter("landscape_lookups_total").inc(float(device.lookups))
    return dataset


def _collect_datasets(
    config: StudyConfig,
    tables: Dict[Tuple[str, str], LandscapeTable],
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[Tuple[str, str], PrecollectedDataset]:
    """One pre-measured dataset per (kernel, arch), reproducibly seeded.

    Table lookups are counted into ``metrics`` when given."""
    out: Dict[Tuple[str, str], PrecollectedDataset] = {}
    for kname in config.kernels:
        profile = get_kernel(kname, config.image_x, config.image_y).profile()
        for aname in config.archs:
            out[(kname, aname)] = collect_landscape_dataset(
                kname,
                aname,
                profile,
                tables[(kname, aname)],
                config.noise,
                config.root_seed,
                config.design.dataset_rows_required,
                metrics,
            )
    return out


def _compute_optima(
    config: StudyConfig,
    tables: Dict[Tuple[str, str], LandscapeTable],
) -> Dict[Tuple[str, str], float]:
    """True noise-free optimum of every (kernel, arch) landscape."""
    out: Dict[Tuple[str, str], float] = {}
    for kname in config.kernels:
        kernel = get_kernel(kname, config.image_x, config.image_y)
        profile = kernel.profile()
        space = kernel.space()
        for aname in config.archs:
            opt = find_true_optimum(
                profile,
                get_architecture(aname),
                space,
                table=tables[(kname, aname)],
            )
            out[(kname, aname)] = opt.runtime_ms
    return out


def _task_for(
    config: StudyConfig,
    datasets: Dict[Tuple[str, str], PrecollectedDataset],
    alg: str,
    needs_data: bool,
    kname: str,
    aname: str,
    size: int,
    exp: int,
    trace_dir: Optional[str] = None,
    landscape_cache: Optional[str] = None,
    trace_level: str = "events",
    span_parent: Optional[SpanContext] = None,
) -> ExperimentTask:
    """One cell's :class:`ExperimentTask`, dataset slice attached."""
    flats = runtimes = None
    if needs_data:
        sl = datasets[(kname, aname)].slice_for(size, exp)
        flats = tuple(int(f) for f in sl.flats)
        runtimes = tuple(float(r) for r in sl.runtimes_ms)
    return ExperimentTask(
        algorithm=alg,
        kernel=kname,
        arch=aname,
        sample_size=size,
        experiment=exp,
        root_seed=config.root_seed,
        image_x=config.image_x,
        image_y=config.image_y,
        final_repeats=config.final_repeats,
        noise=config.noise,
        dataset_flats=flats,
        dataset_runtimes=runtimes,
        tuner_kwargs=config.overrides_for(alg),
        trace_dir=trace_dir,
        landscape_cache=landscape_cache,
        trace_level=trace_level,
        span_parent=span_parent,
    )


def build_tasks(
    config: StudyConfig,
    datasets: Dict[Tuple[str, str], PrecollectedDataset],
    trace_dir: Optional[str] = None,
    landscape_cache: Optional[str] = None,
    trace_level: str = "events",
    span_parent: Optional[SpanContext] = None,
) -> List[ExperimentTask]:
    """The full task list for one study, in a deterministic order."""
    needs_data = _dataset_tuners(config)
    return [
        _task_for(
            config, datasets, alg, needs_data[alg], kname, aname, size, exp,
            trace_dir=trace_dir,
            landscape_cache=landscape_cache,
            trace_level=trace_level,
            span_parent=span_parent,
        )
        for alg in config.algorithms
        for kname in config.kernels
        for aname in config.archs
        for size in config.design.sample_sizes
        for exp in range(config.design.experiments_for(size))
    ]


@dataclass
class _ReplicationGroup:
    """Mutable state of one replication group in the study loop.

    A group is every replication of one ``(algorithm, kernel, arch,
    sample_size)`` study cell; its key is the cell key without the
    experiment index.
    """

    algorithm: str
    kernel: str
    arch: str
    sample_size: int
    needs_data: bool
    #: Cumulative replication counts at each look (ends at the ceiling);
    #: ``[E(S)]`` for the fixed design.
    schedule: List[int]
    #: The fixed design's replication count (savings baseline).
    budget: int
    dispatched: int = 0
    look: int = 0
    stopped: bool = False
    reason: Optional[str] = None
    halfwidth: Optional[float] = None
    looks: List[dict] = field(default_factory=list)
    #: Replication count from a checkpointed stop decision, replayed
    #: instead of re-derived on resume.
    replay_target: Optional[int] = None

    @property
    def key(self) -> str:
        return (
            f"{self.algorithm}/{self.kernel}/{self.arch}/{self.sample_size}"
        )

    @property
    def ceiling(self) -> int:
        return self.schedule[-1]

    def next_target(self) -> int:
        """Cumulative replication count to grow to this round."""
        if self.replay_target is not None:
            return self.replay_target
        for n in self.schedule:
            if n > self.dispatched:
                return n
        return self.ceiling

    def record(self) -> dict:
        """JSON-serializable stop-decision record (checkpoint/metadata)."""
        return {
            "replications": self.dispatched,
            "budget": self.budget,
            "reason": self.reason,
            "look": self.look,
            "halfwidth": self.halfwidth,
            "looks": [dict(entry) for entry in self.looks],
        }


def _run_groups(
    config: StudyConfig,
    adaptive: Optional[AdaptiveConfig],
    needs_data: Dict[str, bool],
    datasets: Dict[Tuple[str, str], PrecollectedDataset],
    optima: Dict[Tuple[str, str], float],
    pool: ParallelMap,
    ckpt: Optional[StudyCheckpoint],
    telemetry: StudyTelemetry,
    registry: MetricsRegistry,
    fleet: str,
    trace_dir: Optional[str],
    landscape_cache: Optional[str],
    trace_level: str,
    span_parent: Optional[SpanContext],
    store: Optional[ResultStore],
) -> Tuple[List[object], List[dict], Optional[dict], int, int, int]:
    """The replication-group loop every study runs through.

    Each round grows every active group to its next scheduled
    replication count in four stages:

    1. checkpoint replay — cells the checkpoint already holds;
    2. store lookup — cells a previous study materialized, streamed into
       the checkpoint in group order, so a later resume needs neither the
       store nor a re-run;
    3. dispatch — every other cell in one grouped pool call;
    4. persist — failures are recorded, and dispatched cells plus
       checkpoint-resumed cells the store lacks are written back to it.

    The fixed design (``adaptive=None``) schedules every group at
    ``[E(S)]``: one round grows each group to its budget, and no group
    looks or records a stop decision.  Under an
    :class:`~repro.experiments.design.AdaptiveConfig`, each still-active
    group takes a *look* after every round: an anytime-valid bootstrap
    CI on its median percent-of-optimum at the alpha-spending-corrected
    per-look confidence.  Groups stop at the CI target or at their
    ceiling.

    Determinism: each look's bootstrap RNG is a stream derived from the
    (group key, look index) pair — never from execution order, worker
    count, or wall clock — and the percent vector is assembled in
    experiment order.  On resume, checkpointed stop decisions are
    replayed verbatim rather than re-derived.

    Returns ``(results, failed_cells, adaptive_metadata, total_cells,
    resumed_cells, store_hits)``; ``adaptive_metadata`` is ``None`` for
    the fixed design.
    """
    rngs = RngFactory(config.root_seed)
    events_on = trace_dir is not None and trace_level in ("events", "full")
    spans_on = trace_dir is not None and trace_level in ("spans", "full")
    tracer = tracer_for_dir(trace_dir) if events_on else NULL_TRACER

    groups: List[_ReplicationGroup] = []
    for alg in config.algorithms:
        for kname in config.kernels:
            for aname in config.archs:
                for size in config.design.sample_sizes:
                    budget = config.design.experiments_for(size)
                    group = _ReplicationGroup(
                        algorithm=alg,
                        kernel=kname,
                        arch=aname,
                        sample_size=size,
                        needs_data=needs_data[alg],
                        schedule=(
                            [budget]
                            if adaptive is None
                            else adaptive.replication_schedule(
                                config.design, size
                            )
                        ),
                        budget=budget,
                    )
                    rec = (
                        ckpt.stopped.get(group.key)
                        if ckpt is not None and adaptive is not None
                        else None
                    )
                    if rec is not None:
                        group.replay_target = int(rec["replications"])
                        group.reason = rec.get("reason")
                        group.halfwidth = rec.get("halfwidth")
                        group.look = int(rec.get("look", 0))
                        group.looks = [
                            dict(entry) for entry in rec.get("looks", [])
                        ]
                    groups.append(group)
    replayed = sum(1 for g in groups if g.replay_target is not None)
    budget_total = sum(g.budget for g in groups)
    if ckpt is not None:
        # The planned shape, for read-only watchers; written once per
        # checkpoint file (no-op on resume).  Adaptive totals are only
        # known as stopping decisions land, so an adaptive plan records
        # the fixed-design budget instead of an exact cell count.
        plan_key = "total_cells" if adaptive is None else "budget_cells"
        ckpt.record_plan({plan_key: budget_total})

    done = dict(ckpt.completed) if ckpt is not None else {}
    results_by_key: Dict[str, object] = {}
    failed_by_key: Dict[str, dict] = {}
    fingerprints = (
        _CellFingerprints(config, needs_data) if store is not None else None
    )
    #: cell_key -> (fingerprint, identity) for store write-back.
    cell_ids: Dict[str, Tuple[str, dict]] = {}
    resumed = 0
    store_hits = 0

    if adaptive is not None:
        telemetry.line(
            f"adaptive replication: {len(groups)} groups, "
            + adaptive.describe()
            + (
                f", {replayed} stop decisions replayed from checkpoint"
                if replayed
                else ""
            )
        )

    def on_outcome(outcome: TaskOutcome) -> None:
        telemetry.task_finished(outcome.ok)
        if ckpt is not None:
            if outcome.ok:
                ckpt.record_result(outcome.task.cell_key, outcome.result)
            else:
                ckpt.record_failure(
                    outcome.task.cell_key,
                    error=repr(outcome.error),
                    error_type=outcome.error_type,
                    traceback=outcome.traceback,
                )

    def count_stop(group: _ReplicationGroup) -> None:
        telemetry.group_stopped(group.budget - group.dispatched)
        registry.counter(
            "adaptive_groups_stopped_total",
            "Adaptive replication groups stopped, by stop reason.",
            reason=str(group.reason),
        ).inc()

    def stop(group: _ReplicationGroup, reason: str, halfwidth: float) -> None:
        group.stopped = True
        group.reason = reason
        group.halfwidth = (
            float(halfwidth) if math.isfinite(halfwidth) else None
        )
        count_stop(group)
        if ckpt is not None:
            ckpt.record_stop(group.key, group.record())
        if tracer.enabled:
            fields = dict(
                cell=group.key,
                reason=reason,
                replications=group.dispatched,
                budget=group.budget,
                look=group.look,
            )
            if group.halfwidth is not None:
                fields["halfwidth"] = group.halfwidth
            tracer.event("adaptive_stop", **fields)

    first_round = True
    while True:
        active = [g for g in groups if not g.stopped]
        if not active:
            break
        cells: List[Tuple[_ReplicationGroup, int, str]] = []
        for group in active:
            target = group.next_target()
            cells.extend(
                (group, exp, f"{group.key}/{exp}")
                for exp in range(group.dispatched, target)
            )
            group.dispatched = target

        # 1. Checkpoint replay.
        for _group, _exp, key in cells:
            if key in done:
                results_by_key[key] = done[key]
                resumed += 1

        # 2. Store lookup.  Resumed cells are looked up too, so the ones
        # the store lacks can migrate into it in stage 4.
        hits: Dict[str, object] = {}
        to_store: List[str] = []
        warm = 0
        if store is not None:
            for group, exp, key in cells:
                fp, identity = cell_ids[key] = fingerprints.fingerprint_for(
                    group.algorithm, group.kernel, group.arch,
                    group.sample_size, exp,
                )
                cached = store.get_result(fp)
                if cached is None:
                    if key in done:
                        to_store.append(key)
                    continue
                warm += 1
                if key not in done:
                    hits[key] = results_by_key[key] = cached
                    if ckpt is not None:
                        ckpt.record_result(key, cached)
        store_hits += len(hits)

        # 3. Dispatch.
        pending = [
            _task_for(
                config, datasets, group.algorithm, group.needs_data,
                group.kernel, group.arch, group.sample_size, exp,
                trace_dir=trace_dir, landscape_cache=landscape_cache,
                trace_level=trace_level, span_parent=span_parent,
            )
            for group, exp, key in cells
            if key not in done and key not in hits
        ]
        skipped = len(cells) - len(pending)
        if first_round:
            first_round = False
            if store is not None:
                telemetry.line(
                    f"result store {store.root}: "
                    f"{warm}/{len(cells)} cells warm"
                )
            telemetry.start_tasks(len(pending), skipped=skipped)
            telemetry.line(
                f"running {len(pending)} experiments on {fleet}"
                + (
                    f" ({len(hits)} answered by the result store)"
                    if hits
                    else ""
                )
            )
        else:
            telemetry.add_tasks(len(pending))
            telemetry.add_skipped(skipped)
        outcomes = pool.run_grouped(
            run_experiment,
            run_experiment_batch,
            pending,
            group_key=batch_group_key,
            on_outcome=on_outcome,
        )

        # 4. Persist.
        for outcome in outcomes:
            key = outcome.task.cell_key
            if outcome.ok:
                results_by_key[key] = outcome.result
                to_store.append(key)
            else:
                failed_by_key[key] = {
                    "cell_key": key,
                    "error": repr(outcome.error),
                    "error_type": outcome.error_type,
                    "traceback": outcome.traceback,
                    "attempts": outcome.attempts,
                    # Which machine produced the final failed attempt
                    # (socket executor only) — metadata, never
                    # checkpoint bytes.
                    "node": outcome.node,
                }
        if store is not None:
            for key in to_store:
                fp, identity = cell_ids[key]
                store.put_result(fp, results_by_key[key], identity)

        for group in active:
            if adaptive is None:
                # The fixed design: one round, no look.
                group.stopped = True
                continue
            if group.replay_target is not None:
                # Stop decision made (and checkpointed) by the interrupted
                # run; replay it rather than re-deriving.
                group.stopped = True
                count_stop(group)
                continue
            group.look += 1
            with ExitStack() as look_stack:
                if spans_on:
                    look_stack.enter_context(
                        SpanScope(
                            trace_dir,
                            "adaptive-look",
                            subject=f"{group.key}/look/{group.look}",
                            parent=span_parent,
                            fields={"replications": group.dispatched},
                        )
                    )
                confidence = adaptive.confidence_at_look(group.look)
                optimum = optima[(group.kernel, group.arch)]
                percents = [
                    100.0 * optimum / result.final_runtime_ms
                    for result in (
                        results_by_key.get(f"{group.key}/{exp}")
                        for exp in range(group.dispatched)
                    )
                    if result is not None
                ]
                halfwidth = (
                    bootstrap_halfwidth(
                        percents,
                        statistic=np.median,
                        confidence=confidence,
                        n_resamples=adaptive.n_resamples,
                        rng=rngs.stream_for(
                            f"adaptive/{group.key}/look/{group.look}"
                        ),
                    )
                    if len(percents) >= 2
                    else math.inf
                )
                group.looks.append(
                    {
                        "look": group.look,
                        "replications": group.dispatched,
                        "confidence": confidence,
                        "halfwidth": (
                            float(halfwidth)
                            if math.isfinite(halfwidth)
                            else None
                        ),
                    }
                )
                if halfwidth <= adaptive.ci_target:
                    stop(group, "ci_target", halfwidth)
                elif group.dispatched >= group.ceiling:
                    stop(group, "ceiling", halfwidth)

    results: List[object] = []
    failed_cells: List[dict] = []
    for group in groups:
        for exp in range(group.dispatched):
            cell_key = f"{group.key}/{exp}"
            if cell_key in results_by_key:
                results.append(results_by_key[cell_key])
            elif cell_key in failed_by_key:
                failed_cells.append(failed_by_key[cell_key])

    executed = sum(g.dispatched for g in groups)
    if adaptive is None:
        return results, failed_cells, None, executed, resumed, store_hits

    saved = budget_total - executed
    registry.counter(
        "adaptive_replications_executed_total",
        "Replications actually run (or resumed) under adaptive stopping.",
    ).inc(float(executed))
    registry.counter(
        "adaptive_replications_saved_total",
        "Replications the fixed design would have run but adaptive "
        "stopping skipped.",
    ).inc(float(saved))
    telemetry.line(
        f"adaptive replication: {executed}/{budget_total} replications "
        f"({saved} saved)"
    )
    meta = {
        "config": {
            "ci_target": adaptive.ci_target,
            "confidence": adaptive.confidence,
            "batch_size": adaptive.batch_size,
            "min_replications": adaptive.min_replications,
            "max_replications": adaptive.max_replications,
            "n_resamples": adaptive.n_resamples,
        },
        "groups": {g.key: g.record() for g in groups},
        "replications_executed": executed,
        "replications_saved": saved,
        "replications_budget": budget_total,
        "groups_replayed": replayed,
        "store_hits": store_hits,
    }
    return results, failed_cells, meta, executed, resumed, store_hits


def run_study(
    config: StudyConfig,
    compute_optima: bool = True,
    progress: Union[bool, Callable[[str], None]] = False,
    checkpoint: Optional[object] = None,
    failure_policy: str = "fail_fast",
    retries: int = 0,
    trace_dir: Optional[object] = None,
    metrics: Optional[MetricsRegistry] = None,
    landscape_cache: Optional[object] = None,
    adaptive: Optional[AdaptiveConfig] = None,
    trace_level: str = "events",
    profile: bool = False,
    run_ledger: Optional[object] = None,
    run_argv: Optional[List[str]] = None,
    executor: Optional[str] = None,
    executor_bind: Optional[str] = None,
    min_workers: int = 0,
    chunk_size: Optional[int] = None,
    result_store: Optional[object] = None,
) -> StudyResults:
    """Run the full study described by ``config``.

    Parameters
    ----------
    compute_optima:
        Scan each landscape for its true optimum (needed for the Fig. 2/3
        percentage-of-optimum metrics; skippable when only speedup/CLES
        figures are wanted).
    progress:
        ``True`` prints progress lines (phase completions, throughput,
        ETA); a callable receives the same lines instead of stdout.
    checkpoint:
        Path to a JSONL checkpoint file (see
        :class:`~repro.experiments.checkpoint.StudyCheckpoint`).
        Completed cells stream to it as they finish; on restart with the
        same path, those cells are skipped and the merged results are
        bit-identical to an uninterrupted run (per-cell RNG is derived
        from the cell key, never from execution order).
    failure_policy:
        ``"fail_fast"`` (default) re-raises the first cell failure as
        :class:`~repro.parallel.TaskError` naming the exact cell.
        ``"collect"`` runs every cell, records failures in
        ``StudyResults.metadata["failed_cells"]``, and returns the
        surviving results.
    retries:
        Per-cell retry attempts (with capped exponential backoff) for
        transient errors — see :data:`repro.parallel.DEFAULT_RETRYABLE`.
    trace_dir:
        Directory for search-trajectory traces.  Each worker process
        appends structured JSONL events (``tuner_start``, ``evaluate``,
        ``incumbent_update``, ``model_fit``, ...) to its own
        ``trace-<pid>.jsonl`` inside it.  ``None`` (default) disables
        tracing with negligible overhead and bit-identical results.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to aggregate study-wide
        counters into (``evaluations_total``, ``launch_failures_total``,
        timing histogram sums, pool ``task_retries_total``, simulator
        counters).  A private registry is used when ``None``; either way
        the aggregate lands in ``StudyResults.metadata["metrics"]``.
    landscape_cache:
        Where landscape tables persist.  Each (kernel, arch) landscape's
        full noise-free runtime vector is computed once up front, and
        every dataset row, optimum scan, and tuner measurement is a
        lookup in it.  With a directory (or ``REPRO_LANDSCAPE_CACHE`` in
        the environment) the tables are saved there — or loaded from a
        previous run — and worker processes memory-map the same files,
        sharing read-only pages.  ``None`` with no environment override
        keeps the tables in memory, once per process.  Results are
        bit-identical either way.
    adaptive:
        An :class:`~repro.experiments.design.AdaptiveConfig` switches
        replication from the fixed design to sequential stopping: each
        ``(algorithm, kernel, arch, sample_size)`` group grows in
        batches and stops as soon as an anytime-valid
        (alpha-spending-corrected) bootstrap CI on its median
        percent-of-optimum reaches the configured halfwidth target — or
        at its replication ceiling.  Requires ``compute_optima=True``.
        Stop decisions are written to the checkpoint (``"stopped"``
        lines) and replayed verbatim on resume, so a resumed adaptive
        study is bit-identical to an uninterrupted one.  ``None``
        (default) runs the fixed design: the same replication-group loop
        with a single round that grows every group to its budget, no
        looks and no stop decisions.
    trace_level:
        What lands in ``trace_dir``: ``"events"`` (default) — trajectory
        events, exactly the v1 behavior; ``"spans"`` — hierarchical
        spans only (study → phase → worker-chunk → replication-group →
        cell → adaptive-look; cheap enough that the vectorized batch
        paths stay enabled); ``"full"`` — both.  Ignored without a
        ``trace_dir``.  Never affects results.
    profile:
        Attach a :class:`~repro.obs.profile.PhaseProfiler`: every phase
        is sampled for wall/CPU seconds and peak RSS, and the snapshot
        lands in ``StudyResults.metadata["profile"]`` (workers are
        profiled through their span events when ``trace_level`` enables
        spans).  Never affects results.
    run_ledger:
        Directory of the content-addressed run ledger.  When set, the
        finished study writes a provenance manifest (config,
        fingerprints, git rev, environment, telemetry, metrics,
        headline numbers) into it — see :mod:`repro.obs.runs` and the
        ``repro-runs`` CLI.  The manifest's ``run_id`` is recorded in
        ``StudyResults.metadata["run_id"]``.  Never affects results.
    run_argv:
        The CLI argv to record in the run manifest (``None`` for
        programmatic invocations).
    executor:
        Transport backend for the experiments phase: ``"serial"``,
        ``"process"``, ``"thread"``, or ``"socket"`` (see
        :mod:`repro.parallel.executors`).  ``None`` (default) keeps the
        historical auto-selection (inline for one worker, else a
        process pool).  ``"socket"`` starts a TCP coordinator and
        shards work across however many ``repro-worker connect``
        processes attach — on this machine or others.  Checkpoint
        files are byte-identical across every backend and worker
        count.
    executor_bind:
        ``HOST:PORT`` for the socket coordinator (default
        ``127.0.0.1:0``, an ephemeral loopback port; the resolved
        address is announced via progress/telemetry).  Ignored by
        other backends.
    min_workers:
        With the socket executor, block until this many workers have
        connected before dispatching (default 0: start immediately and
        let workers join elastically).
    chunk_size:
        Tasks per worker message (``None`` = balanced automatic
        chunking; grouped dispatch never splits a replication group's
        batch regardless).
    result_store:
        A :class:`~repro.store.ResultStore`, a store directory path,
        ``None`` (use ``$REPRO_RESULT_STORE``; unset disables the
        store), or ``False`` (disabled even when the environment names
        a store).  When attached, every cell is looked up by its content
        fingerprint before dispatch — warm cells short-circuit the
        pool entirely (and stream into the checkpoint, so later resumes
        need neither store nor re-run), and completed cells are written
        back.  Datasets are still collected for every landscape a
        dataset tuner uses (table lookups only, ~15 ms per landscape at
        20,000 rows).  A cold (or absent) store changes nothing: results
        and checkpoint bytes are identical with the store on or off.
        Hits/misses/writes are counted in the study metrics registry,
        and the hit count lands in ``StudyResults.metadata["store_hits"]``.
    """
    config.validate()
    if trace_level not in ("events", "spans", "full"):
        raise ValueError(
            f"trace_level must be 'events', 'spans' or 'full', "
            f"got {trace_level!r}"
        )
    if adaptive is not None and not compute_optima:
        raise ValueError(
            "adaptive replication requires compute_optima=True — the "
            "stopping rule is a CI on percent-of-optimum, which needs "
            "each landscape's true optimum"
        )
    if executor is not None and executor not in EXECUTOR_NAMES:
        raise ValueError(
            f"executor must be one of {EXECUTOR_NAMES}, got {executor!r}"
        )
    emit = print if progress is True else (progress or None)
    profiler = PhaseProfiler() if profile else None
    telemetry = StudyTelemetry(
        emit=emit if callable(emit) else None, profiler=profiler
    )
    registry = metrics if metrics is not None else MetricsRegistry()
    # Landscape-table builds run in *this* process and hit the
    # process-global simulator counters; snapshot them so the delta can
    # be folded into the study registry at the end.
    _global_before = global_registry().flat_counters()

    if landscape_cache is None:
        landscape_cache = default_cache_dir()
    cache_dir = str(landscape_cache) if landscape_cache is not None else None
    trace_dir_str = str(trace_dir) if trace_dir is not None else None
    spans_on = trace_dir_str is not None and trace_level in (
        "spans", "full",
    )

    with ExitStack() as span_stack:
        # The study root span brackets the whole pipeline; its context
        # exists before any phase so children parent on it.
        study_ctx: Optional[SpanContext] = None
        if spans_on:
            study_ctx = span_stack.enter_context(
                SpanScope(
                    trace_dir_str,
                    "study",
                    subject=f"seed={config.root_seed}",
                )
            )

        @contextmanager
        def study_phase(name: str, span: Optional[SpanScope] = None):
            """Telemetry phase + (optional) phase span, as one block."""
            with telemetry.phase(name):
                if span is not None:
                    with span:
                        yield
                elif study_ctx is not None:
                    with child_span(study_ctx, "phase", subject=name):
                        yield
                else:
                    yield

        with study_phase("landscapes"):
            tables = _load_landscapes(config, cache_dir)
        telemetry.line(
            f"prepared {len(tables)} landscape tables "
            f"in {cache_dir if cache_dir is not None else 'memory'} "
            f"in {telemetry.phase_seconds['landscapes']:.1f}s"
        )

        store: Optional[ResultStore] = None
        if result_store is None:
            result_store = default_store_dir()
        if result_store is False:
            result_store = None
        if result_store is not None:
            store = (
                result_store
                if isinstance(result_store, ResultStore)
                else ResultStore(result_store, metrics=registry)
            )
        store_dir = str(store.root) if store is not None else None

        ckpt: Optional[StudyCheckpoint] = None
        if checkpoint is not None:
            ckpt = (
                checkpoint
                if isinstance(checkpoint, StudyCheckpoint)
                else StudyCheckpoint(checkpoint, root_seed=config.root_seed)
            )

        needs_data = _dataset_tuners(config)
        datasets: Dict[Tuple[str, str], PrecollectedDataset] = {}
        if any(needs_data.values()):
            with study_phase("dataset"):
                datasets = _collect_datasets(config, tables, registry)
            telemetry.line(
                f"collected {len(datasets)} datasets "
                f"({config.design.dataset_rows_required} rows each) "
                f"in {telemetry.phase_seconds['dataset']:.1f}s"
            )

        optima: Dict[Tuple[str, str], float] = {}
        if compute_optima:
            with study_phase("optima"):
                optima = _compute_optima(config, tables)
            telemetry.line(
                f"scanned {len(optima)} landscapes for true optima "
                f"in {telemetry.phase_seconds['optima']:.1f}s"
            )

        # The experiments-phase span is constructed (not yet entered)
        # here so its context can ride inside every task across the
        # process-pool boundary.
        exp_span: Optional[SpanScope] = None
        exp_ctx: Optional[SpanContext] = None
        if spans_on:
            exp_span = SpanScope(
                trace_dir_str, "phase", subject="experiments",
                parent=study_ctx,
            )
            exp_ctx = exp_span.ctx
        executor_obj = None
        if executor is not None:
            executor_obj = make_executor(
                executor,
                workers=config.workers,
                bind=executor_bind,
                on_event=telemetry.line,
            )
            # The executor outlives every dispatch in the study (the
            # socket coordinator keeps its workers across phases) and
            # is torn down with the span stack.
            span_stack.callback(executor_obj.close)
            if executor == "socket":
                telemetry.line(
                    f"socket coordinator listening on "
                    f"{executor_obj.address} — attach workers with: "
                    f"repro-worker connect {executor_obj.address}"
                )
                if min_workers > 0:
                    telemetry.line(
                        f"waiting for {min_workers} worker(s)…"
                    )
                    executor_obj.wait_for_workers(min_workers)
        telemetry.executor = executor
        pool = ParallelMap(
            workers=config.workers,
            chunk_size=chunk_size,
            failure_policy=failure_policy,
            retries=retries,
            metrics=registry,
            span_context=exp_ctx,
            executor=executor_obj,
        )
        if executor == "socket":
            fleet = f"{executor_obj.worker_count()} socket worker(s)"
        elif executor is not None:
            fleet = f"the {executor} executor"
        else:
            fleet = f"{config.workers or 'all'} workers"

        try:
            with study_phase("experiments", span=exp_span):
                (
                    results,
                    failed_cells,
                    adaptive_meta,
                    total_cells,
                    resumed,
                    store_hit_count,
                ) = _run_groups(
                    config, adaptive, needs_data, datasets, optima, pool,
                    ckpt, telemetry, registry, fleet,
                    trace_dir=trace_dir_str,
                    landscape_cache=cache_dir,
                    trace_level=trace_level,
                    span_parent=exp_ctx,
                    store=store,
                )
        finally:
            if ckpt is not None:
                ckpt.close()
    if failed_cells:
        telemetry.line(
            f"{len(failed_cells)} cells failed: "
            + ", ".join(f["cell_key"] for f in failed_cells[:10])
            + ("…" if len(failed_cells) > 10 else "")
        )

    # Fold every cell's counter deltas into the study registry (results
    # carry them across the pool boundary — and across checkpoint resume,
    # where the worker process that produced them is long gone), plus the
    # parent-process simulator work (dataset collection, optimum scans).
    for result in results:
        registry.merge_flat(getattr(result, "metrics", {}) or {})
    _global_after = global_registry().flat_counters()
    parent_delta = {
        name: _global_after[name] - _global_before.get(name, 0.0)
        for name in _global_after
        if _global_after[name] != _global_before.get(name, 0.0)
    }
    registry.merge_flat(parent_delta)

    metadata = {
        "design": config.design.schedule,
        "algorithms": list(config.algorithms),
        "kernels": list(config.kernels),
        "archs": list(config.archs),
        "image": [config.image_x, config.image_y],
        "root_seed": config.root_seed,
        "final_repeats": config.final_repeats,
        "total_experiments": total_cells,
        "failed_cells": failed_cells,
        "resumed_from_checkpoint": resumed,
        "failure_policy": failure_policy,
        "executor": executor,
        "adaptive": adaptive_meta,
        "telemetry": telemetry.snapshot(),
        "metrics": registry.to_json(),
        "trace_dir": str(trace_dir) if trace_dir is not None else None,
        "trace_level": trace_level if trace_dir is not None else None,
        "landscape_cache": cache_dir,
        "result_store": store_dir,
        "store_hits": store_hit_count,
    }
    if profiler is not None:
        metadata["profile"] = profiler.snapshot()
    study_results = StudyResults(
        results=results, optima=optima, metadata=metadata
    )
    if run_ledger is not None:
        from ..obs.runs import build_manifest, record_run

        # The single true wall-clock boundary: the ledger records when
        # the run really happened; everything downstream of this value
        # is deterministic in it.
        created = time.time()  # repro: noqa[REP002] run provenance needs real wall-clock time; build_manifest is deterministic in the threaded value
        manifest = build_manifest(
            config,
            study_results,
            argv=run_argv,
            adaptive=adaptive,
            created=created,
        )
        manifest_path = record_run(run_ledger, manifest)
        # StudyResults copies the metadata dict, so annotate its copy.
        study_results.metadata["run_id"] = manifest["run_id"]
        study_results.metadata["run_manifest"] = str(manifest_path)
        telemetry.line(
            f"run {manifest['run_id']} recorded in {run_ledger}"
        )
    return study_results
