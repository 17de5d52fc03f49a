"""Correctness checks run on every benchmark run, and the results digest.

Each check returns a list of problems; an empty list means it passed.
The checks see plain records, so a tampered record fails them the same
way a wrong program output would.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Sequence, Tuple

#: ``(cell key, final_runtime_ms, best_flat)`` of one finished cell.
Cell = Tuple[str, float, int]


def cell_of(result) -> Cell:
    """The :data:`Cell` of an ``ExperimentResult``, keyed as the study keys it."""
    key = (
        f"{result.algorithm}/{result.kernel}/{result.arch}/"
        f"{result.sample_size}/{result.experiment}"
    )
    return (key, float(result.final_runtime_ms), int(result.best_flat))


def cells_complete(cells: Sequence[Cell], planned: Iterable[str]) -> List[str]:
    """Every planned cell finished, once, with a finite final runtime."""
    problems = []
    seen: Dict[str, int] = {}
    for key, final_ms, _ in cells:
        seen[key] = seen.get(key, 0) + 1
        if not math.isfinite(final_ms):
            problems.append(f"{key}: non-finite final_runtime_ms {final_ms!r}")
    planned = list(planned)
    missing = [k for k in planned if k not in seen]
    if missing:
        problems.append(f"{len(missing)} planned cells missing, e.g. {missing[0]}")
    extra = sorted(set(seen) - set(planned))
    if extra:
        problems.append(f"{len(extra)} unplanned cells, e.g. {extra[0]}")
    doubled = sorted(k for k, n in seen.items() if n > 1)
    if doubled:
        problems.append(f"{len(doubled)} cells reported twice, e.g. {doubled[0]}")
    return problems


def _same(a: Cell, b: Cell) -> bool:
    # float.hex compares bits: it tells 0.0 from -0.0 and matches NaN.
    return a[1].hex() == b[1].hex() and a[2] == b[2]


def reruns_match(study: Sequence[Cell], reruns: Sequence[Cell]) -> List[str]:
    """Each re-run cell reproduces the study's ``(final_runtime_ms,
    best_flat)`` bit for bit."""
    by_key = {c[0]: c for c in study}
    problems = []
    for rerun in reruns:
        original = by_key.get(rerun[0])
        if original is None:
            problems.append(f"{rerun[0]}: re-run cell not in the study")
        elif not _same(original, rerun):
            problems.append(
                f"{rerun[0]}: study gave {original[1:]}, re-run gave {rerun[1:]}"
            )
    return problems


def answers_consistent(stream: Sequence[Tuple[tuple, bool, tuple]]) -> List[str]:
    """``(request, cached, answer)`` in stream order: the first answer to a
    request is computed (cold), and every later one is a store hit equal
    to that first answer."""
    first: Dict[tuple, tuple] = {}
    problems = []
    for i, (request, cached, answer) in enumerate(stream):
        if request not in first:
            first[request] = answer
            if cached:
                problems.append(f"request {i} {request}: first answer was cached")
            continue
        if not cached:
            problems.append(f"request {i} {request}: repeat was recomputed")
        if answer != first[request]:
            problems.append(
                f"request {i} {request}: warm answer {answer} != cold {first[request]}"
            )
    return problems


def digest(cells: Iterable[Cell]) -> str:
    """sha256 over the sorted cells, bit-exact in the runtimes."""
    h = hashlib.sha256()
    for key, final_ms, flat in sorted(cells):
        h.update(f"{key} {float(final_ms).hex()} {flat}\n".encode())
    return h.hexdigest()
