"""Per-layer metrics of a traced run, named after the ``src/repro`` modules."""

from __future__ import annotations

import math
import pickle
from pathlib import Path
from typing import Dict, List, Tuple

from repro.search import PAPER_ALGORITHM_NAMES as TUNERS

from stats import median, percentile, tail
from tracing import LayerTotals, SpanRecorder
from workloads import SIZES

DEVICE_METHODS = (
    "measure", "measure_flat", "measure_flats_each", "measure_repeated",
    "measure_flat_repeated",
)

#: ``(name, unit)`` of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = [
    ("trace.overhead_frac", "frac"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("study.self_s", "s"),
    ("landscape.build_s", "s"),
    ("landscape.tables", "count"),
    ("landscape.bytes", "B"),
    ("device.calls", "count"),
    ("device.self_s", "s"),
    *[(f"device.{m}.{k}", u) for m in DEVICE_METHODS
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("space.decode_calls", "count"),
    ("space.decode_s", "s"),
    ("forest.fit_calls", "count"),
    ("forest.fit_rows", "count"),
    ("forest.fit_s", "s"),
    ("forest.predict_calls", "count"),
    ("forest.predict_s", "s"),
    ("gp.fit_refit_calls", "count"),
    ("gp.fit_refit_s", "s"),
    ("gp.fit_update_calls", "count"),
    ("gp.fit_update_s", "s"),
    ("gp.predict_calls", "count"),
    ("gp.predict_s", "s"),
    ("gp.refit_ratio", "frac"),
    ("kde.fit_calls", "count"),
    ("kde.fit_s", "s"),
    ("kde.sample_calls", "count"),
    ("kde.sample_s", "s"),
    ("kde.log_prob_calls", "count"),
    ("kde.log_prob_s", "s"),
    ("ml.self_s", "s"),
    ("ml.self_frac", "frac"),
    *[(f"search.{t}.self_s", "s") for t in TUNERS],
    ("runner.cells", "count"),
    *[(f"runner.cell_s.{t}.{s}.{k}", u) for t in TUNERS for s in SIZES
      for k, u in (("median", "s"), ("count", "count"))],
    ("dataset.collect_calls", "count"),
    ("dataset.collect_s", "s"),
    ("dataset.rows", "count"),
    ("optimum.scan_calls", "count"),
    ("optimum.scan_s", "s"),
    ("dispatch.self_s", "s"),
    ("dispatch.tasks", "count"),
    ("dispatch.task_bytes", "B"),
    ("dispatch.result_bytes", "B"),
    ("checkpoint.lines", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.write_s", "s"),
    ("store.get_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "frac"),
    ("store.put_s", "s"),
    ("store.puts", "count"),
    ("store.bytes", "B"),
    ("store.keys_s", "s"),
    ("serve.requests", "count"),
    ("serve.self_s", "s"),
    ("serve.fingerprint_s", "s"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_tail_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_tail_ms", "ms"),
]


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def latencies(warm_ms: List[float], cold_ms: List[float]) -> Dict[str, tuple]:
    """``name -> (value, percentile, samples, beyond)`` of request latency."""
    out = {}
    for label, values in (("warm", warm_ms), ("cold", cold_ms)):
        if not values:
            continue
        out[f"{label}_p50_ms"] = (percentile(values, 50), 50.0, len(values), None)
        value, p, beyond = tail(values)
        out[f"{label}_tail_ms"] = (value, p, len(values), beyond)
    return out


def per_layer(
    recorder: SpanRecorder,
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    build_s: float,
    tables: list,
    artifacts: list,
    warm_ms: List[float],
    cold_ms: List[float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans of one traced pass."""
    t = LayerTotals.of(recorder)
    calls, total, own = t.calls, t.total_s, t.self_s
    m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    m["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    m["trace.wall_s"] = traced_wall_s
    m["trace.spans"] = len(recorder.spans)
    m["study.self_s"] = own.get("study", 0.0)
    m["landscape.build_s"] = build_s
    m["landscape.tables"] = len(tables)
    m["landscape.bytes"] = sum(8 * n + math.ceil(n / 8) for n in tables)

    for method in DEVICE_METHODS:
        m[f"device.{method}.calls"] = calls.get(f"device.{method}", 0)
        m[f"device.{method}.self_s"] = own.get(f"device.{method}", 0.0)
    m["device.calls"] = t.sum(calls, "device.")
    m["device.self_s"] = t.sum(own, "device.")
    m["space.decode_calls"] = t.sum(calls, "space.")
    m["space.decode_s"] = t.sum(own, "space.")

    rows = sum(s.attrs["rows"] for s in recorder.spans if s.name == "forest.fit")
    m["forest.fit_rows"] = rows
    for name in ("forest.fit", "forest.predict", "gp.fit_refit", "gp.fit_update",
                 "gp.predict", "kde.fit", "kde.sample", "kde.log_prob"):
        m[f"{name}_calls"] = calls.get(name, 0)
        m[f"{name}_s"] = total.get(name, 0.0)
    fits = m["gp.fit_refit_calls"] + m["gp.fit_update_calls"]
    m["gp.refit_ratio"] = m["gp.fit_refit_calls"] / fits if fits else 0.0
    m["ml.self_s"] = sum(t.sum(own, p) for p in ("forest.", "gp.", "kde."))
    m["ml.self_frac"] = m["ml.self_s"] / traced_wall_s

    for tuner in TUNERS:
        m[f"search.{tuner}.self_s"] = own.get(f"search.{tuner}", 0.0)

    cell_s: Dict[Tuple[str, int], List[float]] = {}
    for span in recorder.spans:
        if span.name == "runner.cell":
            key = (span.attrs["tuner"], span.attrs["size"])
            cell_s.setdefault(key, []).append(span.end - span.start)
    m["runner.cells"] = calls.get("runner.cell", 0)
    for (tuner, size), values in cell_s.items():
        if tuner in TUNERS and size in SIZES:
            m[f"runner.cell_s.{tuner}.{size}.median"] = median(values)
            m[f"runner.cell_s.{tuner}.{size}.count"] = len(values)

    m["dataset.collect_calls"] = calls.get("dataset.collect", 0)
    m["dataset.collect_s"] = total.get("dataset.collect", 0.0)
    m["dataset.rows"] = sum(
        s.attrs["rows"] for s in recorder.spans if s.name == "dataset.collect"
    )
    m["optimum.scan_calls"] = calls.get("optimum.scan", 0)
    m["optimum.scan_s"] = total.get("optimum.scan", 0.0)

    m["dispatch.self_s"] = own.get("dispatch.run", 0.0)
    for span in recorder.spans:
        if span.name == "dispatch.run" and span.payload is not None:
            (_, _, tasks, *_), outcomes = span.payload
            m["dispatch.tasks"] += len(tasks)
            m["dispatch.task_bytes"] += sum(len(pickle.dumps(x)) for x in tasks)
            m["dispatch.result_bytes"] += sum(
                len(pickle.dumps(o.result)) for o in outcomes if o.ok
            )

    m["checkpoint.write_s"] = t.sum(total, "checkpoint.")
    m["store.get_s"] = total.get("store.get_result", 0.0)
    m["store.puts"] = calls.get("store.put_result", 0)
    m["store.put_s"] = total.get("store.put_result", 0.0)
    m["store.keys_s"] = total.get("store.keys", 0.0)
    for span in recorder.spans:
        if span.name == "store.get_result":
            hit = span.payload is not None and span.payload[1] is not None
            m["store.hits" if hit else "store.misses"] += 1
    gets = m["store.hits"] + m["store.misses"]
    m["store.hit_ratio"] = m["store.hits"] / gets if gets else 0.0
    for checkpoint, store in artifacts:
        if checkpoint is not None and checkpoint.exists():
            data = checkpoint.read_bytes()
            m["checkpoint.lines"] += data.count(b"\n")
            m["checkpoint.bytes"] += len(data)
        if store is not None and store.exists():
            m["store.bytes"] += _tree_bytes(store)

    m["serve.requests"] = calls.get("serve.tune", 0)
    m["serve.self_s"] = own.get("serve.tune", 0.0)
    m["serve.fingerprint_s"] = total.get("serve.fingerprint", 0.0)
    for name, (value, *_rest) in latencies(warm_ms, cold_ms).items():
        m[f"serve.{name}"] = value
    return m
