import pytest

from tracing import LayerTotals, SpanRecorder, self_time, traced


def test_self_time_without_children_is_duration():
    assert self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # [1, 4] and [3, 6] overlap on [3, 4]: the union covers 5 seconds.
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == pytest.approx(5.0)


def test_self_time_child_inside_another_child():
    assert self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_recorder_nests_and_attributes_self_time():
    # outer [0, 10] holds a [1, 7] which holds b [2, 5].
    rec = SpanRecorder(clock=_Clock([0.0, 1.0, 2.0, 5.0, 7.0, 10.0]))
    outer = rec.open("outer")
    a = rec.open("a")
    b = rec.open("b")
    rec.close(b)
    rec.close(a)
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [-1, outer, a]
    assert rec.self_times() == pytest.approx([4.0, 3.0, 3.0])
    totals = LayerTotals.of(rec)
    assert totals.total_s == pytest.approx({"outer": 10.0, "a": 6.0, "b": 3.0})


def test_closing_a_parent_pops_children_left_open():
    rec = SpanRecorder(clock=_Clock([0.0, 1.0, 2.0, 3.0]))
    outer = rec.open("outer")
    rec.open("leaked")
    rec.close(outer)
    after = rec.open("after")
    assert rec.spans[after].parent == -1


def test_traced_records_calls_and_restores_bindings():
    import repro.experiments.study as study
    from repro.searchspace.space import SearchSpace
    from repro.kernels import get_kernel

    original_run_experiment = study.run_experiment
    original_flat_to_config = SearchSpace.flat_to_config
    space = get_kernel("add", 256, 256).space()
    rec = SpanRecorder()
    with traced(rec):
        assert study.run_experiment is not original_run_experiment
        space.flat_to_config(3)
    assert study.run_experiment is original_run_experiment
    assert SearchSpace.flat_to_config is original_flat_to_config
    # flat_to_config decodes through indices_to_config: a nested span.
    assert rec.spans[0].name == "space.flat_to_config"
    assert all(s.parent == 0 for s in rec.spans[1:])
