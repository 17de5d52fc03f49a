import math

from checks import answers_consistent, cells_complete, digest, reruns_match

CELLS = [
    ("random_search/add/titan_v/25/0", 1.25, 17),
    ("bo_gp/add/titan_v/25/0", 1.5, 4242),
]
PLANNED = [key for key, _, _ in CELLS]


def test_complete_cells_pass():
    assert cells_complete(CELLS, PLANNED) == []


def test_non_finite_cell_fails():
    tampered = [CELLS[0], (CELLS[1][0], math.inf, CELLS[1][2])]
    assert cells_complete(tampered, PLANNED)
    tampered = [CELLS[0], (CELLS[1][0], math.nan, CELLS[1][2])]
    assert cells_complete(tampered, PLANNED)


def test_missing_extra_or_doubled_cell_fails():
    assert cells_complete(CELLS[:1], PLANNED)
    assert cells_complete(CELLS + [("ga/x/y/25/0", 1.0, 1)], PLANNED)
    assert cells_complete(CELLS + CELLS[:1], PLANNED)


def test_matching_rerun_passes():
    assert reruns_match(CELLS, [CELLS[1]]) == []


def test_rerun_differing_in_the_last_bit_fails():
    key, final_ms, flat = CELLS[1]
    nudged = math.nextafter(final_ms, math.inf)
    assert reruns_match(CELLS, [(key, nudged, flat)])
    assert reruns_match(CELLS, [(key, final_ms, flat + 1)])
    assert reruns_match(CELLS, [("bo_tpe/add/titan_v/25/0", final_ms, flat)])


def test_consistent_stream_passes():
    stream = [("a", False, (1, "0x1p+0")), ("b", False, (2, "0x1p+1")),
              ("a", True, (1, "0x1p+0"))]
    assert answers_consistent(stream) == []


def test_warm_answer_differing_from_cold_fails():
    stream = [("a", False, (1, "0x1p+0")), ("a", True, (1, "0x1.0000000000001p+0"))]
    assert answers_consistent(stream)


def test_recomputed_repeat_or_cached_first_answer_fails():
    assert answers_consistent([("a", False, (1,)), ("a", False, (1,))])
    assert answers_consistent([("a", True, (1,))])


def test_digest_is_order_free_and_bit_exact():
    assert digest(CELLS) == digest(list(reversed(CELLS)))
    key, final_ms, flat = CELLS[0]
    tampered = [(key, math.nextafter(final_ms, 0.0), flat), CELLS[1]]
    assert digest(tampered) != digest(CELLS)
