"""The one-call tuning facade: ``tune(kernel, arch, tuner, budget)``.

Modeled on Kernel Tuner's ``tune_kernel`` entry point: one call takes a
kernel name, an architecture, a search technique and a measurement
budget, and returns the chosen configuration plus its measured runtime.
Warm requests — any (kernel, arch, tuner, budget, seed-policy) tuple the
result store has already materialized — are answered in O(lookup) from
:class:`~repro.store.ResultStore`, never touching the pool/executor
layer or the simulator.  Cold requests run one experiment inline through
the exact study measurement pipeline (same RNG stream derivation, same
final re-evaluation), then populate the store so every later caller —
this process, another process, another machine sharing the store
directory — hits cache.

Because the identity schema is shared with ``run_study``'s per-cell
fingerprints, a ``tune()`` request whose budget matches a study cell's
dataset-row count is answered from that study's entries and vice versa:
studies warm the request cache and requests warm studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..gpu.arch import get_architecture
from ..gpu.landscape import (
    default_cache_dir,
    landscape_fingerprint,
    load_or_compute_landscape,
)
from ..gpu.noise import DEFAULT_NOISE, NoiseModel
from ..kernels import get_kernel
from ..obs.metrics import MetricsRegistry, global_registry
from ..search import DatasetTuner, make_tuner
from ..store import ResultStore, cell_identity, default_store_dir, fingerprint_of

__all__ = ["tune", "TuneResult"]


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`tune` request."""

    kernel: str
    arch: str
    tuner: str
    budget: int
    #: The chosen configuration as a parameter dict.
    best_config: dict
    #: Flat index of the chosen configuration.
    best_flat: int
    #: Mean runtime of the final re-evaluation, ms (the reported number).
    final_runtime_ms: float
    #: Best single-run runtime observed during the search, ms.
    observed_best_ms: float
    #: Measurements the search consumed.
    samples_used: int
    #: True when the store answered without running a search.
    cached: bool
    #: Content fingerprint the result is stored under.
    fingerprint: str


def _resolve_store(
    store, metrics: Optional[MetricsRegistry]
) -> Optional[ResultStore]:
    if isinstance(store, ResultStore):
        return store
    root = store if store is not None else default_store_dir()
    if root is None:
        return None
    return ResultStore(root, metrics=metrics)


def tune(
    kernel: str,
    arch: str,
    tuner: str = "random_search",
    budget: int = 200,
    *,
    store=None,
    landscape_cache=None,
    root_seed: int = 20220530,
    experiment: int = 0,
    final_repeats: int = 10,
    noise: NoiseModel = DEFAULT_NOISE,
    tuner_kwargs: tuple = (),
    image_x: int = 8192,
    image_y: int = 8192,
    metrics: Optional[MetricsRegistry] = None,
) -> TuneResult:
    """Tune one kernel on one architecture with one technique and budget.

    Parameters mirror a single study cell: ``budget`` is the cell's
    sample size, ``experiment`` its replication index (distinct indices
    draw independent RNG streams, so ``experiment=1`` is a fresh
    replicate), and ``root_seed``/``final_repeats``/``noise`` the seed
    policy.  ``store`` is a :class:`~repro.store.ResultStore`, a
    directory path, or ``None`` (use ``$REPRO_RESULT_STORE``; when that
    is unset too, every request runs cold).  ``landscape_cache`` is
    where the landscape table persists; it defaults to
    ``$REPRO_LANDSCAPE_CACHE``, and with neither the table is built in
    memory, once per process.

    The result is deterministic in its identity fields — a warm answer
    is bit-identical to the cold run it replaces.
    """
    registry = global_registry() if metrics is None else metrics
    registry.counter(
        "tune_requests_total", "tune() facade requests served."
    ).inc()

    kernel_obj = get_kernel(kernel, image_x, image_y)
    profile = kernel_obj.profile()
    space = kernel_obj.space()
    arch_obj = get_architecture(arch)
    tuner_obj = make_tuner(tuner, **dict(tuner_kwargs))
    needs_data = isinstance(tuner_obj, DatasetTuner)
    # Dataset tuners consume disjoint per-experiment slices, so the
    # collected dataset must cover every replication up to this index.
    dataset_rows = budget * (experiment + 1) if needs_data else None

    identity = cell_identity(
        landscape_fingerprint(profile, arch_obj, space),
        algorithm=tuner,
        kernel=kernel,
        arch=arch,
        sample_size=budget,
        experiment=experiment,
        root_seed=root_seed,
        final_repeats=final_repeats,
        noise=noise,
        tuner_kwargs=tuner_kwargs,
        dataset_rows=dataset_rows,
    )
    fingerprint = fingerprint_of(identity)

    result_store = _resolve_store(store, metrics)
    if result_store is not None:
        cached = result_store.get_result(fingerprint)
        if cached is not None:
            registry.counter(
                "tune_cache_hits_total",
                "tune() requests answered from the result store.",
            ).inc()
            return TuneResult(
                kernel=kernel,
                arch=arch,
                tuner=tuner,
                budget=budget,
                best_config=space.flat_to_config(int(cached.best_flat)),
                best_flat=int(cached.best_flat),
                final_runtime_ms=float(cached.final_runtime_ms),
                observed_best_ms=float(cached.observed_best_ms),
                samples_used=int(cached.samples_used),
                cached=True,
                fingerprint=fingerprint,
            )

    # Cold path: one experiment, inline, through the study pipeline.
    # Deferred import: repro.experiments.__init__ imports study, which
    # imports repro.store — importing it at module scope would make the
    # package import order matter.
    from ..experiments.runner import ExperimentTask, run_experiment
    from ..experiments.study import collect_landscape_dataset

    if landscape_cache is None:
        landscape_cache = default_cache_dir()
    cache_dir = str(landscape_cache) if landscape_cache is not None else None

    flats = runtimes = None
    if needs_data:
        table = load_or_compute_landscape(
            profile, arch_obj, space, cache_dir=cache_dir
        )
        dataset = collect_landscape_dataset(
            kernel, arch, profile, table, noise, root_seed, dataset_rows
        )
        sl = dataset.slice_for(budget, experiment)
        flats = tuple(int(f) for f in sl.flats)
        runtimes = tuple(float(r) for r in sl.runtimes_ms)

    task = ExperimentTask(
        algorithm=tuner,
        kernel=kernel,
        arch=arch,
        sample_size=budget,
        experiment=experiment,
        root_seed=root_seed,
        image_x=image_x,
        image_y=image_y,
        final_repeats=final_repeats,
        noise=noise,
        dataset_flats=flats,
        dataset_runtimes=runtimes,
        tuner_kwargs=tuple(tuner_kwargs),
        landscape_cache=cache_dir,
    )
    result = run_experiment(task)
    if result_store is not None:
        result_store.put_result(fingerprint, result, identity)
    return TuneResult(
        kernel=kernel,
        arch=arch,
        tuner=tuner,
        budget=budget,
        best_config=space.flat_to_config(int(result.best_flat)),
        best_flat=int(result.best_flat),
        final_runtime_ms=float(result.final_runtime_ms),
        observed_best_ms=float(result.observed_best_ms),
        samples_used=int(result.samples_used),
        cached=False,
        fingerprint=fingerprint,
    )
