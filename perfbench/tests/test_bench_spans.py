import threading
import time
import types

import pytest

import spans
from spans import Span, Tracer, self_times, union_length


def _span(i, start, end, parent=None, thread=1):
    return Span(i, f"s{i}", start, end, parent, thread, "run")


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_of_nested_spans():
    spans_ = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 5.0, 6.0, parent=1),
    ]
    selfs = self_times(spans_)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_span_on_another_thread_does_not_reduce_self_time():
    spans_ = [
        _span(1, 0.0, 10.0, thread=1),
        _span(2, 2.0, 8.0, parent=None, thread=2),  # overlaps, other thread
        _span(3, 3.0, 4.0, parent=2, thread=2),
    ]
    selfs = self_times(spans_)
    assert selfs[1] == pytest.approx(10.0)
    assert selfs[2] == pytest.approx(5.0)


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer("t")
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()
        time.sleep(0.01)

    def outer():
        tracer.call("inner", inner, (), {})

    def worker():
        tracer.call("outer", outer, (), {})

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s.span_id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        if s.name == "outer":
            child = next(c for c in inners if c.parent == s.span_id)
            assert selfs[s.span_id] == pytest.approx(s.duration - child.duration)


def test_install_wraps_and_restores_functions_and_classmethods():
    class Thing:
        @classmethod
        def make(cls, x):
            return cls, x

        def method(self, y):
            return y + 1

    module = types.ModuleType("m")
    module.func = lambda a: a * 2
    originals = (module.func, Thing.__dict__["make"], Thing.__dict__["method"])
    tracer = Tracer("t")
    restore = spans.install(tracer, [
        (module, "func", "m.func", None),
        (Thing, "make", "m.make", lambda result, args, kwargs: {"x": result[1]}),
        (Thing, "method", "m.method", None),
    ])
    try:
        assert module.func(3) == 6
        assert Thing.make(4) == (Thing, 4)
        assert Thing().method(1) == 2
    finally:
        restore()
    assert [s.name for s in tracer.spans] == ["m.func", "m.make", "m.method"]
    assert tracer.spans[1].attrs == {"x": 4}
    assert (module.func, Thing.__dict__["make"], Thing.__dict__["method"]) == originals


def test_failed_call_is_recorded_and_reraised():
    tracer = Tracer("t")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("boom", boom, (), {})
    assert tracer.spans[0].attrs == {"error": "KeyError"}
