"""Self-time arithmetic and wrapper installation of the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Span, Tracer, covered, layer_metrics, self_times  # noqa: E402

MAIN, POOL = 1, 2


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert covered(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(1.5)


def test_self_time_on_a_two_thread_span_tree():
    # cli.main [0, 10] on the main thread; its pool runs children on two
    # threads: [1, 5] on the main thread and [3, 8] on the pool thread, so
    # they overlap on [3, 5] and together cover [1, 8].  The pool thread's
    # span has a child [4, 6]; the main thread's child has one at [2, 3].
    spans = [
        Span(1, "cli.main", 0.0, 10.0, None, MAIN, False),
        Span(2, "theory.family_spectrum", 1.0, 5.0, 1, MAIN, False),
        Span(3, "theory._raw_family", 2.0, 3.0, 2, MAIN, False),
        Span(4, "oracle.spectrum_bruteforce", 3.0, 8.0, 1, POOL, False),
        Span(5, "oracle.j_characteristics", 4.0, 6.0, 4, POOL, True),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0)
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(5.0 - 2.0)
    assert own[5] == pytest.approx(2.0)

    metrics = layer_metrics(spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.main.total_s"] == pytest.approx(10.0)
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["oracle.j_characteristics.errors"] == 1
    assert metrics["search.optimize.calls"] == 0
    # Two threads: self times add up to more than the root's duration.
    assert sum(own.values()) == pytest.approx(12.0)


def test_single_thread_self_times_add_up_to_the_roots():
    spans = [
        Span(1, "cli.main", 0.0, 4.0, None, MAIN, False),
        Span(2, "search.optimize", 0.5, 3.5, 1, MAIN, False),
        Span(3, "theory._raw_family", 1.0, 2.0, 2, MAIN, False),
        Span(4, "cli.main", 5.0, 6.0, None, MAIN, False),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(5.0)


def _fake_layer(value):
    return value


def test_pool_thread_spans_take_the_origin_span_as_parent(monkeypatch):
    import types

    module = types.ModuleType("qcdesign.fake")
    module.outer = lambda: worker_result(module)
    module.inner = _fake_layer
    monkeypatch.setitem(sys.modules, "qcdesign.fake", module)

    def worker_result(mod):
        box = []
        thread = threading.Thread(target=lambda: box.append(mod.inner(7)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        return box[0]

    tracer = Tracer()
    targets = (("fake", "outer", None), ("fake", "inner", None))
    with tracer.installed(targets):
        assert module.outer() == 7
    assert module.inner is _fake_layer  # restored
    by_name = {s.name: s for s in tracer.spans}
    outer, inner = by_name["fake.outer"], by_name["fake.inner"]
    assert inner.parent == outer.id
    assert inner.thread != outer.thread
