"""Tests of the benchmark's tracer, operation loop and speed reference.

    python3 -m pytest perfbench/test_tracer.py
"""

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import EntryPoint, Tracer, TracerError, installed  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.begin("root")
    a = tracer.begin("a")
    tracer.end(tracer.begin("b"))
    tracer.end(a)
    tracer.end(tracer.begin("c"))
    tracer.end(root)
    assert [s[0] for s in tracer.spans] == ["root", "a", "b", "c"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracer.self_times() == [3, 2, 1, 4]
    assert sum(tracer.self_times()) == 10  # self times partition the root span
    assert tracer.self_totals(first=1) == {"a": 2, "b": 1, "c": 4}


def test_self_totals_sum_over_repeated_names():
    tracer = Tracer(clock=ScriptedClock([0, 1, 3, 4, 7, 10]))
    op = tracer.begin("op")
    tracer.end(tracer.begin("layer"))
    tracer.end(tracer.begin("layer"))
    tracer.end(op)
    assert tracer.self_totals() == {"op": 5, "layer": 5}
    assert tracer.call_counts() == {"op": 1, "layer": 2}


def _owner():
    mod = types.SimpleNamespace()

    def double(x):
        return 2 * x

    mod.double = double
    return mod, double


def test_wrappers_record_spans_and_are_restored():
    mod, original = _owner()
    tracer = Tracer()
    with installed(tracer, [EntryPoint(mod, "double", "double", flops=lambda args, out: out)]):
        assert mod.double is not original
        assert mod.double(3) == 6
    assert mod.double is original
    assert tracer.call_counts() == {"double": 1}
    assert tracer.flops == {"double": 6}


def test_spans_must_close_innermost_first():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(TracerError, match="out of order"):
        tracer.end(outer)


def test_restored_when_the_traced_block_raises():
    mod, original = _owner()
    with pytest.raises(ZeroDivisionError):
        with installed(Tracer(), [EntryPoint(mod, "double", "double")]):
            1 / 0
    assert mod.double is original


def test_missing_entry_point_fails_loudly_and_restores_the_rest():
    mod, original = _owner()
    points = [EntryPoint(mod, "double", "double"), EntryPoint(mod, "gone", "gone")]
    with pytest.raises(TracerError, match="gone no longer exists"):
        with installed(Tracer(), points):
            pass
    assert mod.double is original


def test_uncalled_entry_point_fails_require():
    mod, _ = _owner()
    tracer = Tracer()
    with installed(tracer, [EntryPoint(mod, "double", "double")]):
        mod.double(1)
    tracer.require(["double"])
    with pytest.raises(TracerError, match="never called: triple"):
        tracer.require(["double", "triple"])


def test_counting_entry_point_records_no_span():
    mod, _ = _owner()
    tracer = Tracer()
    with installed(tracer, [EntryPoint(mod, "double", "even", count_if=lambda out: out % 4 == 0)]):
        for x in range(4):
            mod.double(x)
    assert tracer.spans == []
    assert tracer.counts == {"even": 2}


def test_method_wrapper_sees_the_instance():
    class Layer:
        def __call__(self, x):
            return x + 1

    layer = Layer()
    tracer = Tracer()
    names = {id(layer): "layer0"}
    with installed(tracer, [EntryPoint(Layer, "__call__", lambda args: names[id(args[0])])]):
        assert layer(1) == 2
    assert tracer.call_counts() == {"layer0": 1}
    assert "__call__" in vars(Layer) and vars(Layer)["__call__"].__name__ == "__call__"


def test_every_package_entry_point_exists():
    pytest.importorskip("numpy")
    import entry_points

    with installed(Tracer(), entry_points.entry_points({})):
        pass


def test_package_error_counts_as_one_failed_operation():
    pytest.importorskip("numpy")
    import workloads
    from convrnnt.errors import TrainingError

    results = iter([1, TrainingError("non-finite loss"), 3])

    def op():
        value = next(results)
        if isinstance(value, Exception):
            raise value
        return value

    loop = workloads.closed_loop(op, n_ops=3)
    assert (loop.attempted, loop.failed, loop.outputs) == (3, 1, [1, 3])
    assert loop.errors == ["TrainingError: non-finite loss"]
    with pytest.raises(ZeroDivisionError):
        workloads.closed_loop(lambda: 1 / 0, n_ops=1)


def test_speed_factor_scales_to_the_nominal_unit():
    pytest.importorskip("numpy")
    import speed

    ref = speed.SpeedReference("alloc")
    ref.samples = [0.004, 0.001, 0.002]
    assert ref.factor == speed.UNIT_S["alloc"] / 0.002
    ref.after(0.0)
    assert len(ref.samples) == 3 + speed.MIN_SAMPLES
    with pytest.raises(ValueError, match="unknown reference kind"):
        speed.SpeedReference("gpu")
