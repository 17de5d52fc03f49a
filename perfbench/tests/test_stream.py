from collections import Counter

from repro.search import PAPER_ALGORITHM_NAMES

from workloads import ALL_PAIRS, TuneRequests

CLASSES = sorted((t, b) for t in PAPER_ALGORITHM_NAMES for b in TuneRequests.budgets)


def test_stream_is_deterministic_per_seed():
    assert TuneRequests.stream(7, 4) == TuneRequests.stream(7, 4)
    assert TuneRequests.stream(7, 4) != TuneRequests.stream(8, 4)


def test_each_block_is_one_new_request_per_class_and_as_many_repeats():
    stream = TuneRequests.stream(3, 5)
    assert len(stream) == 5 * 2 * len(CLASSES)
    seen = set()
    for block in range(5):
        new = []
        for request in stream[block * 30:(block + 1) * 30]:
            if request not in seen:
                new.append(request)
                seen.add(request)
        assert sorted((r[2], r[3]) for r in new) == CLASSES


def test_a_one_block_stream_starts_with_a_new_request():
    # A repeat in the first slot would have nothing earlier to repeat.
    for seed in range(50):
        assert len(set(TuneRequests.stream(seed, 1))) == len(CLASSES)


def test_nine_blocks_visit_every_pair_once_per_class():
    # The cold work of a stream then depends on the seed only through
    # which cells are drawn together.
    new = {}
    for kernel, arch, tuner, budget, exp in TuneRequests.stream(4, 9):
        new.setdefault((tuner, budget), set()).add((kernel, arch, exp))
    for drawn in new.values():
        assert sorted((k, a) for k, a, _ in drawn) == sorted(ALL_PAIRS)
        counts = Counter(e for _, _, e in drawn)
        assert sorted(counts) == list(range(TuneRequests.experiments))
        assert max(counts.values()) - min(counts.values()) <= 1
