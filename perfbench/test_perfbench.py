"""Self-tests of the benchmark's helpers: ``python3 -m pytest perfbench``."""

import importlib
import sys

import pytest

import checks
import stats
from tracer import Span, Tracer, aggregate, patch_package, self_times, unpatch


def test_self_time_of_nested_spans():
    spans = [
        Span("outer", 0.0, 10.0, None, "p"),
        Span("middle", 1.0, 6.0, 0, "p"),
        Span("inner", 2.0, 4.0, 1, "p"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 2.0])


def test_self_time_with_several_children():
    spans = [
        Span("parent", 0.0, 10.0, None, "p"),
        Span("first", 1.0, 3.0, 0, "p"),
        Span("second", 4.0, 8.0, 0, "p"),
        Span("lone", 20.0, 21.0, None, "p"),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0, 1.0])
    # children that overlap are counted once
    overlapping = [Span("parent", 0.0, 10.0, None, "p"),
                   Span("a", 1.0, 5.0, 0, "p"), Span("b", 3.0, 7.0, 0, "p")]
    assert self_times(overlapping)[0] == pytest.approx(4.0)


def test_tracer_records_parents_and_aggregates_per_pass():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.pass_id = "serial"
    leaf = tr.wrap("leaf", lambda: None, "layer")
    root = tr.wrap("root", lambda: (leaf(), leaf()), "layer")
    root()
    assert [(s.name, s.parent) for s in tr.spans] == [("root", None), ("leaf", 0), ("leaf", 0)]
    rows = aggregate(tr.spans, "serial")
    assert rows["leaf"]["calls"] == 2
    assert rows["root"]["self_s"] == pytest.approx(5.0 - 2.0)
    assert aggregate(tr.spans, "pooled") == {}


def test_median_and_percentiles():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.tail_percentile(values) == (90.0, 90.0)
    assert stats.tail_percentile(list(range(19))) is None
    assert stats.tail_percentile(list(range(20)))[0] == 50.0
    assert stats.tail_percentile(list(range(1000)))[0] == 99.0


@pytest.fixture
def fixture_package(tmp_path, monkeypatch):
    pkg = tmp_path / "perfbench_fixture_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "def f():\n    return 1\n\n"
        "class K:\n"
        "    def __init__(self):\n        self.v = f()\n"
        "    def m(self):\n        return self.v\n"
    )
    (pkg / "b.py").write_text("from .a import f\n\ndef g():\n    return f() + 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("perfbench_fixture_pkg.a"), importlib.import_module(
        "perfbench_fixture_pkg.b")
    for name in [n for n in sys.modules if n.startswith("perfbench_fixture_pkg")]:
        del sys.modules[name]


def test_patcher_traces_calls_through_from_import_bindings(fixture_package):
    a, b = fixture_package
    original_f = a.f
    tr = Tracer()
    restore = patch_package(tr, "perfbench_fixture_pkg")
    try:
        assert b.g() == 2
        assert a.K().m() == 1
    finally:
        unpatch(restore)
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("g", None), ("f", 0), ("K", None), ("f", 2), ("K.m", None)]
    assert tr.layer_of["g"] == "b" and tr.layer_of["K.m"] == "a"
    assert b.f is original_f and a.f is original_f
    assert b.g() == 2 and len(tr.spans) == 5


def test_digest_comparison_tolerance(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# seed = 1\nname,value\nup,0.5\ndown,1.5\n")
    ref = checks.digest(str(path))
    assert ref["columns"]["value"]["mean"] == 1.0
    assert checks.compare(ref, ref) == []
    path.write_text("# seed = 1\nname,value\nup,0.5\ndown,1.5000000001\n")
    assert checks.compare(checks.digest(str(path)), ref) == []
    path.write_text("# seed = 1\nname,value\nup,0.5\ndown,1.6\n")
    assert checks.compare(checks.digest(str(path)), ref)
