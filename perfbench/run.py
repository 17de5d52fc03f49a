"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload surrogate-design --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes the traced run instead: the workload's trace unit
runs once untraced and once with every layer wrapped, both in-process,
and the per-layer metrics come from the traced pass's spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, digest, notes) and, for traced runs, the spans are written
under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: Environment that would change what the program does under the
#: benchmark (a shared store or cache, fault injection, worker count).
PROGRAM_ENV = (
    "REPRO_RESULT_STORE", "REPRO_LANDSCAPE_CACHE", "REPRO_FAIL_CELLS",
    "REPRO_WORKERS",
)

#: ``(name, unit)`` of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("completed_frac", "frac"),
)


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_rev() -> str | None:
    """HEAD read from ``.git`` when the checkout is a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "machine": platform.machine(),
        },
    }


def _setup(workload, ctx_dir: Path, repeats: int, host):
    """Cold ``load_or_compute_landscape`` of every table the workload
    uses, into a fresh cache directory, ``repeats`` times, with the host
    probed around each.

    Returns the seconds of each set-up, the last cache directory (warm
    for the measured phase) and each table's configuration count.
    """
    from repro.gpu.arch import get_architecture
    from repro.gpu.landscape import load_or_compute_landscape
    from repro.kernels import get_kernel

    seconds, sizes, cache = [], [], None
    host.sample()
    for r in range(repeats):
        cache = ctx_dir / f"landscapes-{r}"
        cache.mkdir(parents=True)
        start = time.perf_counter()
        tables = []
        for kernel_name, arch in workload.pairs:
            kernel = get_kernel(kernel_name, 8192, 8192)
            tables.append(load_or_compute_landscape(
                kernel.profile(), get_architecture(arch), kernel.space(),
                cache_dir=str(cache),
            ))
        seconds.append(time.perf_counter() - start)
        host.sample()
        sizes = [t.size for t in tables]
    return seconds, str(cache), sizes


def _timed_run(workload, ctx, size, setup_s, setup_host):
    """The end-to-end metrics of one untraced measured phase.

    Each phase's timings are scaled to the reference host's speed by
    that phase's median probe; the unscaled ones are printed beside them.
    """
    import stats
    import workloads

    outcome = workload.run(ctx, size, in_process=False)
    own_mb, child_mb = stats.peak_rss_mb()
    if child_mb:
        outcome.notes.append(
            f"peak RSS of the largest reaped child process (ungated) = "
            f"{child_mb:.1f} MiB"
        )
    raw_setup_s = stats.median(setup_s)
    for phase, host in (("set-up", setup_host), ("measured", ctx.host)):
        outcome.notes.append(
            f"host slowdown over the {phase} phase = {host.slowdown:.4f} "
            f"(median of {len(host.samples)} probes over "
            f"{stats.REFERENCE_PROBE_S} s)"
        )
    outcome.notes.append(
        f"unscaled (ungated): setup_s = {raw_setup_s:.6g} s, cells_per_s = "
        f"{outcome.cells_per_s:.6g} 1/s, cpu_s = {outcome.cpu_s:.6g} s"
    )
    metrics = {
        "setup_s": raw_setup_s / setup_host.slowdown,
        "cells_per_s": outcome.cells_per_s * ctx.host.slowdown,
        "cpu_s": outcome.cpu_s / ctx.host.slowdown,
        "peak_rss_mb": own_mb,
        "completed_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    return outcome, outcome, metrics, workloads.check(ctx, outcome)


def _traced_run(workload, ctx, size, setup_s, tables, spans_path: Path):
    """The per-layer metrics: the trace unit untraced, then traced."""
    import layers
    import workloads
    from tracing import SpanRecorder, traced

    baseline = workload.run(ctx, size, in_process=True)
    recorder = SpanRecorder()
    with traced(recorder):
        outcome = workload.run(ctx, size, in_process=True)
    metrics = layers.per_layer(
        recorder,
        traced_wall_s=outcome.wall_s,
        untraced_wall_s=baseline.wall_s,
        build_s=setup_s[0],
        tables=tables,
        artifacts=outcome.artifacts,
        warm_ms=baseline.warm_ms,
        cold_ms=baseline.cold_ms,
    )
    spans_path.write_text(json.dumps(recorder.dump()))
    problems = workloads.check(ctx, baseline) + outcome.problems
    if baseline.digest != outcome.digest:
        problems.append("traced pass disagrees with untraced pass")
    outcome.attempted += baseline.attempted
    outcome.failed += baseline.failed
    return baseline, outcome, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run it "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still unwinds: pools shut down, scratch is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in PROGRAM_ENV:
        os.environ.pop(var, None)

    import layers
    import stats
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = {"provenance": provenance(args)}
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    name = f"{args.workload}-seed{args.seed}"
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        repeats = 1 if args.trace else workload.setup_repeats
        setup_host = stats.HostSpeed()
        setup_s, cache, tables = _setup(workload, scratch, repeats, setup_host)
        stats.release_freed_memory()
        ctx = workloads.Context(seed=args.seed, cache=cache, scratch=scratch)
        workload.warm_up(ctx)
        ctx.host.sample()
        size = workload.size(args.seconds, bool(args.trace))
        if args.trace:
            record["spans"] = f"{OUT.name}/{name}-spans.json"
            units = dict(layers.PER_LAYER)
            timed, outcome, metrics, problems = _traced_run(
                workload, ctx, size, setup_s, tables, ROOT / record["spans"]
            )
        else:
            units = dict(END_TO_END)
            timed, outcome, metrics, problems = _timed_run(
                workload, ctx, size, setup_s, setup_host
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for label, (value, p, n, beyond) in layers.latencies(
        timed.warm_ms, timed.cold_ms
    ).items():
        where = f"p{p:g}" if p is not None else "max"
        extra = f", {beyond} beyond" if beyond is not None else ""
        outcome.notes.append(
            f"tune_{label} (ungated) = {value:.3f} ms ({where}, n={n}{extra})"
        )
    outcome.notes.append(f"results digest {args.workload} seed {args.seed}: "
                         f"{outcome.digest}")
    outcome.notes += [f"CHECK FAILED: {problem}" for problem in problems]
    for note in outcome.notes:
        print(note)
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {units[metric]}")

    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m: {"value": v, "unit": units[m]} for m, v in metrics.items()
        },
    }
    record.update(result=result, notes=outcome.notes, digest=outcome.digest)
    (OUT / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
