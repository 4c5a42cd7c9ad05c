import os

import pytest

from perfbench import layers
from perfbench.run import refused_env
from perfbench.tracing import Span, Tracer, covered, outermost, self_times


def span(id, name, start, end, parent=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, run_id=1, tid=0)


def test_covered_counts_overlaps_once():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered([(0, 10), (2, 3)]) == 10.0
    assert covered([(3, 3), (4, 2)]) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        span(1, "fit", 0.0, 10.0),
        span(2, "eval", 1.0, 4.0, parent=1),
        span(3, "tree", 2.0, 3.5, parent=2),  # a grandchild leaves "fit" alone
        span(4, "eval", 6.0, 7.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 1.5, 3: 1.5, 4: 1.0}
    assert sum(own.values()) == spans[0].duration


def test_self_time_of_overlapping_children_is_never_negative():
    # Children recorded on other threads may overlap each other and
    # run past their parent; each instant of the parent counts once.
    spans = [
        span(1, "handle", 0.0, 4.0),
        span(2, "transform", 1.0, 3.0, parent=1),
        span(3, "transform", 2.0, 6.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == 1.0
    assert own[2] == 2.0 and own[3] == 4.0


def test_outermost_counts_calls_at_the_boundary():
    spans = [
        span(1, "store.get", 0.0, 3.0),
        span(2, "store.get", 0.5, 1.0, parent=1),
        span(3, "submit", 4.0, 6.0),
        span(4, "wait", 4.5, 5.0, parent=3),
        span(5, "wait", 7.0, 8.0),
    ]
    assert [s.id for s in outermost(spans, "store.get")] == [1]
    assert [s.id for s in outermost(spans, "wait", within=("submit",))] == [5]
    assert [s.id for s in outermost(spans, "wait")] == [4, 5]


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    def stream(self, n):
        yield from range(n)


class ToyChild(Toy):
    pass


def test_wrappers_record_parent_and_run_id_and_keep_results():
    tracer = Tracer()
    tracer.install(Toy, "outer", "toy.outer")
    tracer.install(Toy, "inner", "toy.inner", lambda s, a, k, r: s.args.update(result=r))
    tracer.install(Toy, "stream", "toy.stream")
    try:
        tracer.run_id = 7
        assert Toy().outer(3) == 7
        assert list(Toy().stream(2)) == [0, 1]
    finally:
        tracer.remove()
    names = [s.name for s in tracer.spans]
    assert names.count("toy.outer") == 1 and names.count("toy.inner") == 1
    inner = next(s for s in tracer.spans if s.name == "toy.inner")
    outer = next(s for s in tracer.spans if s.name == "toy.outer")
    assert inner.parent == outer.id and inner.args == {"result": 6}
    assert all(s.run_id == 7 for s in tracer.spans)
    assert sum(bool(s.args.get("yielded")) for s in tracer.spans) == 2
    trace = tracer.chrome_trace({"workload": "toy"})
    assert {event["ph"] for event in trace["traceEvents"]} == {"X"}
    assert trace["otherData"] == {"workload": "toy"}


def test_wrappers_pass_straight_through_in_other_processes():
    tracer = Tracer()
    tracer._pid = os.getpid() + 1  # as seen from a forked pool worker
    tracer.install(Toy, "outer", "toy.outer")
    try:
        assert Toy().outer(1) == 3
    finally:
        tracer.remove()
    assert tracer.spans == []


def test_inherited_method_is_removed_not_left_behind():
    before = dict(vars(ToyChild))
    tracer = Tracer()
    tracer.install(ToyChild, "inner", "toy.inner")
    assert "inner" in vars(ToyChild)
    tracer.remove()
    assert dict(vars(ToyChild)) == before
    assert ToyChild.inner is Toy.inner


def test_install_and_remove_leave_every_wrapped_class_identical():
    classes = {cls for cls, _, _, _ in layers.wrap_points()}
    before = {cls: dict(vars(cls)) for cls in classes}
    tracer = Tracer()
    layers.install(tracer)
    try:
        changed = [cls for cls in classes if dict(vars(cls)) != before[cls]]
        assert set(changed) == classes
    finally:
        tracer.remove()
    for cls in classes:
        after = dict(vars(cls))
        assert after.keys() == before[cls].keys(), cls
        for name, value in before[cls].items():
            assert after[name] is value, f"{cls.__name__}.{name}"


def test_static_methods_are_refused():
    class Holder:
        @staticmethod
        def helper():
            return 1

    with pytest.raises(TypeError):
        Tracer().install(Holder, "helper", "x")


def test_refused_environment_overrides():
    environ = {
        "REPRO_EVAL_STORE": "x",
        "REPRO_EVAL_WORKERS": "4",
        "REPRO_FAULTS": "1",
        "REPRO_BENCH_PROFILE": "paper",
        "REPRO_RUN_STORE": "s.db",
        "REPRO_SEARCHER_PLUGINS": "",
        "PATH": "/bin",
    }
    assert refused_env(environ) == [
        "REPRO_BENCH_PROFILE",
        "REPRO_EVAL_STORE",
        "REPRO_EVAL_WORKERS",
        "REPRO_FAULTS",
        "REPRO_RUN_STORE",
    ]
