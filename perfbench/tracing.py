"""In-memory spans recorded around calls into the program's layers.

The benchmark traces the program from the outside: :func:`traced` swaps
the import binding each call site uses (a module attribute or a class
attribute) for a wrapper that records one span per call, and restores
every binding on exit.  Nothing under ``src/`` knows it is traced.

A span is ``(name, start, end, parent)``; the parent is the span open
on the same thread when the call began.  A layer's self time is its
span duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: Small per-call facts (rows fitted, tuner and sample size of a cell).
    attrs: Optional[dict] = None
    #: Call arguments/return value kept for sizes computed after timing.
    payload: Optional[tuple] = None


class SpanRecorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._clock = clock

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), parent=parent, attrs=attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self._clock()
        # Pop through the index: a span left open by an exception that
        # escaped a child wrapper cannot corrupt later parents.
        while self._stack and self._stack.pop() != index:
            pass

    def self_times(self) -> List[float]:
        """Self time of every span, in recording order."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        return [
            self_time(span.start, span.end, children.get(i, ()))
            for i, span in enumerate(self.spans)
        ]

    def dump(self) -> List[list]:
        """Compact rows ``[name, start, end, parent]`` for writing out."""
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


def self_time(
    start: float, end: float, children: Sequence[Tuple[float, float]]
) -> float:
    """``end - start`` minus the union of the child intervals clipped to
    ``[start, end]`` — overlapping children are counted once."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


# -- wrappers ------------------------------------------------------------------


def _wrap(
    recorder: SpanRecorder,
    fn: Callable,
    name: Callable[..., str],
    attrs: Optional[Callable[..., dict]] = None,
    keep_payload: bool = False,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(
            name(*args, **kwargs),
            attrs(*args, **kwargs) if attrs is not None else None,
        )
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if keep_payload:
            recorder.spans[index].payload = (args, result)
        return result

    return wrapper


def _fixed(label: str) -> Callable[..., str]:
    return lambda *a, **k: label


def _gp_fit_name(self, X, y, optimize=True) -> str:
    return "gp.fit_refit" if optimize else "gp.fit_update"


def _cell_attrs(task) -> dict:
    return {"tuner": task.algorithm, "size": task.sample_size}


def _rows_attrs(device, space, n_samples, rng) -> dict:
    return {"rows": n_samples}


_ATTRS = {"run_experiment": _cell_attrs, "collect_dataset": _rows_attrs}


#: Methods wrapped on the class itself — every call site shares the
#: class attribute.  ``(module, class, methods, span-name prefix)``.
_METHODS = (
    ("repro.gpu.device", "SimulatedDevice",
     ("measure", "measure_flat", "measure_flats_each", "measure_repeated",
      "measure_flat_repeated"), "device."),
    ("repro.searchspace.space", "SearchSpace",
     ("to_features", "sample", "sample_feature_matrix", "flat_to_config",
      "config_to_flat", "config_to_indices", "indices_to_config"), "space."),
    ("repro.ml.forest", "RandomForestRegressor", ("predict",), "forest."),
    ("repro.ml.gp", "GaussianProcessRegressor", ("predict",), "gp."),
    ("repro.ml.kde", "AdaptiveParzenEstimator1D",
     ("fit", "sample", "log_prob"), "kde."),
    ("repro.parallel.pool", "ParallelMap", ("run",), "dispatch."),
    ("repro.experiments.checkpoint", "StudyCheckpoint",
     ("record_plan", "record_result", "record_failure"), "checkpoint."),
    ("repro.store.store", "ResultStore", ("get_result", "put_result"),
     "store."),
)

#: Functions wrapped at each module that imported them by name.
#: ``(function, span name, modules holding a binding)``.
_FUNCTIONS = (
    ("load_or_compute_landscape", "landscape.load",
     ("repro.experiments.study", "repro.experiments.runner",
      "repro.serve.facade")),
    ("collect_dataset", "dataset.collect",
     ("repro.experiments.study", "repro.experiments.dataset")),
    ("find_true_optimum", "optimum.scan", ("repro.experiments.study",)),
    ("cell_identity", "store.keys",
     ("repro.experiments.study", "repro.serve.facade")),
    ("fingerprint_of", "store.keys",
     ("repro.experiments.study", "repro.serve.facade")),
    ("landscape_fingerprint", "serve.fingerprint", ("repro.serve.facade",)),
    ("run_experiment", "runner.cell",
     ("repro.experiments.study", "repro.experiments.runner")),
    ("run_study", "study", ("repro.experiments",)),
    ("tune", "serve.tune", ("repro.serve",)),
)

#: Tuner entry points: ``Tuner.run`` serves the live tuners, the
#: dataset tuners enter through ``tune_from_dataset``.
_TUNERS = (
    ("repro.search.base", "Tuner", "run"),
    ("repro.search.random_search", "RandomSearchTuner", "tune_from_dataset"),
    ("repro.search.random_forest", "RandomForestTuner", "tune_from_dataset"),
)


def _special(recorder: SpanRecorder) -> List[Tuple[object, str, Callable]]:
    """Wrappers whose span name or attributes depend on the call."""
    forest = importlib.import_module("repro.ml.forest").RandomForestRegressor
    gp = importlib.import_module("repro.ml.gp").GaussianProcessRegressor
    out = [
        (forest, "fit", _wrap(
            recorder, forest.fit, _fixed("forest.fit"),
            attrs=lambda self, X, y: {"rows": len(X)},
        )),
        (gp, "fit", _wrap(recorder, gp.fit, _gp_fit_name)),
    ]
    for module, cls_name, method in _TUNERS:
        cls = getattr(importlib.import_module(module), cls_name)
        fn = cls.__dict__[method]
        out.append((cls, method, _wrap(
            recorder, fn, lambda self, *a, **k: f"search.{self.name}",
        )))
    return out


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper for the duration of the block."""
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module, cls_name, methods, prefix in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                patch(cls, method, _wrap(
                    recorder, cls.__dict__[method], _fixed(prefix + method),
                    # Dispatched tasks are pickled for their sizes, and
                    # store reads tell hits from misses, after timing.
                    keep_payload=cls_name in ("ParallelMap", "ResultStore"),
                ))
        for fn_name, span_name, modules in _FUNCTIONS:
            wrappers: Dict[int, Callable] = {}
            for module in modules:
                mod = importlib.import_module(module)
                fn = getattr(mod, fn_name)
                # One wrapper per original, so a module that re-exports
                # the function gets the same wrapper as the one defining it.
                wrapper = wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = wrappers[id(fn)] = _wrap(
                        recorder, fn, _fixed(span_name),
                        attrs=_ATTRS.get(fn_name),
                    )
                patch(mod, fn_name, wrapper)
        for owner, attr, wrapper in _special(recorder):
            patch(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- aggregation ---------------------------------------------------------------


@dataclass
class LayerTotals:
    """Per-span-name call counts, inclusive and self seconds."""

    calls: Dict[str, int] = field(default_factory=dict)
    total_s: Dict[str, float] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, recorder: SpanRecorder) -> "LayerTotals":
        out = cls()
        for span, own in zip(recorder.spans, recorder.self_times()):
            out.calls[span.name] = out.calls.get(span.name, 0) + 1
            out.total_s[span.name] = (
                out.total_s.get(span.name, 0.0) + span.end - span.start
            )
            out.self_s[span.name] = out.self_s.get(span.name, 0.0) + own
        return out

    def sum(self, table: Dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))
