"""Golden checkpoint files of the seeded smoke study.

Each digest pins a whole checkpoint file — line kinds, line order, the
plan line, adaptive stop records and every result field — for one run
of the golden study (:mod:`tests.experiments.golden_study`) with a
result store attached:

* ``FIXED_COLD``: the fixed design on a cold store;
* ``FIXED_RESUMED``: the same study resumed from its checkpoint cut
  mid-run (a torn last line included) after half the store entries
  were evicted, so the resume mixes checkpoint replay, store hits and
  dispatched cells;
* ``ADAPTIVE_COLD`` / ``ADAPTIVE_RESUMED``: the same pair with adaptive
  replication that stops some groups early.

The digests were produced while the fixed design and adaptive
replication still ran through two separate study pipelines.  Result
lines lose their ``metrics`` before hashing: those are counters, not
results, and are guarded by the metrics tests.
"""

import hashlib
import json
import shutil

import pytest

from repro.experiments import AdaptiveConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo
from repro.store import STORE_ENV, ResultStore

from .golden_study import GOLDEN_SHA256, golden_config, study_digest

FIXED_COLD = (
    "dfbd19654edf9cff795dc3316adb19e00d53eb73d7e979649d2dd86c1f511fc2"
)
FIXED_RESUMED = (
    "ebad9b56b42c693218426ba264a37af65dc60bcebbdc737259c461f0075037b2"
)
ADAPTIVE_COLD = (
    "fe171e5289535f09c88abfaa009fbbb30cbe57b4e9fe6b4c7b1ef4e5759dc1c6"
)
ADAPTIVE_RESUMED = (
    "891efa0e8708a1e28e6473e1a1b4052bf5848bbb2258b1e6d87258cdcf435c5b"
)

#: Stops three S = 25 groups after two replications and grows the other
#: two to their ceiling of four, so the study runs two rounds.
ADAPTIVE = AdaptiveConfig(
    ci_target=5.0, batch_size=2, min_replications=2, n_resamples=100
)


def checkpoint_digest(path) -> str:
    """sha256 of a checkpoint file with each result's metrics dropped."""
    lines = []
    for text in path.read_text().splitlines():
        doc = json.loads(text)
        if doc.get("kind") == "result":
            doc["data"].pop("metrics", None)
        lines.append(json.dumps(doc, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cut_mid_run(path, fraction: float) -> None:
    """Keep that fraction of the lines plus a torn piece of the next."""
    lines = path.read_bytes().splitlines(keepends=True)
    keep = int(len(lines) * fraction)
    path.write_bytes(b"".join(lines[:keep]) + lines[keep][:30])


def evict_half(store_dir) -> None:
    """Delete every other store entry, in path order."""
    paths = [p for p, _doc, r in ResultStore(store_dir).entries() if r == "ok"]
    for path in paths[::2]:
        path.unlink()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The four golden runs, shared by every test of this module."""
    root = tmp_path_factory.mktemp("golden-ckpt")
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(LANDSCAPE_CACHE_ENV, raising=False)
        mp.delenv(STORE_ENV, raising=False)
        clear_landscape_memo()
        clear_optimum_cache()
        # The adaptive cut falls after the first stop records, so the
        # resume replays some stop decisions and re-derives the rest.
        for name, adaptive, cut in (
            ("fixed", None, 0.5), ("adaptive", ADAPTIVE, 0.75),
        ):
            store = root / f"{name}-store"
            cold_ckpt = root / f"{name}-cold.jsonl"
            cold = run_study(
                golden_config(), checkpoint=str(cold_ckpt),
                result_store=str(store), adaptive=adaptive,
            )
            resumed_ckpt = root / f"{name}-resumed.jsonl"
            shutil.copy(cold_ckpt, resumed_ckpt)
            cut_mid_run(resumed_ckpt, cut)
            evict_half(store)
            resumed = run_study(
                golden_config(), checkpoint=str(resumed_ckpt),
                result_store=str(store), adaptive=adaptive,
            )
            out[name] = (cold, cold_ckpt, resumed, resumed_ckpt)
        clear_landscape_memo()
        clear_optimum_cache()
    return out


def counters(study):
    meta = study.metadata
    return (
        meta["total_experiments"],
        meta["resumed_from_checkpoint"],
        meta["store_hits"],
        len(meta["failed_cells"]),
    )


def test_fixed_cold_checkpoint(runs):
    cold, ckpt, _resumed, _ = runs["fixed"]
    assert study_digest(cold) == GOLDEN_SHA256
    assert counters(cold) == (30, 0, 0, 0)
    assert cold.metadata["adaptive"] is None
    assert checkpoint_digest(ckpt) == FIXED_COLD


def test_fixed_resumed_checkpoint(runs):
    cold, _, resumed, ckpt = runs["fixed"]
    assert study_digest(resumed) == study_digest(cold)
    assert counters(resumed) == (30, 14, 8, 0)
    assert resumed.metadata["adaptive"] is None
    assert checkpoint_digest(ckpt) == FIXED_RESUMED


def test_adaptive_cold_checkpoint(runs):
    cold, ckpt, _resumed, _ = runs["adaptive"]
    assert counters(cold) == (24, 0, 0, 0)
    assert cold.metadata["adaptive"]["replications_saved"] == 6
    assert checkpoint_digest(ckpt) == ADAPTIVE_COLD


def test_adaptive_resumed_checkpoint(runs):
    cold, _, resumed, ckpt = runs["adaptive"]
    assert study_digest(resumed) == study_digest(cold)
    assert counters(resumed) == (24, 20, 1, 0)
    assert resumed.metadata["adaptive"]["groups_replayed"] == 5
    assert resumed.metadata["adaptive"]["groups"] == (
        cold.metadata["adaptive"]["groups"]
    )
    assert checkpoint_digest(ckpt) == ADAPTIVE_RESUMED
