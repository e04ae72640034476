"""Tests of the benchmark's own code: span arithmetic, the tail rule, the
restoring of wrapped attributes, and metric names."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads
from anisoeit import fem
from anisoeit.geometry import DomainSpec, build_boundary, place_electrodes, triangulate
from anisoeit.tensors import TensorField
from spans import Span, Tracer, self_times, summarize, tail

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children():
    spans = [Span("root", 0.0, 10.0, None),
             Span("a", 1.0, 3.0, 0),
             Span("b", 2.0, 5.0, 0),          # overlaps a: [1, 5] is covered once
             Span("a.child", 1.5, 2.0, 1),   # grandchild: not subtracted from root
             Span("c", 9.0, 12.0, 0)]        # runs past the root: clipped to [9, 10]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == 3.0                       # too few: maximum
    assert tail(list(range(10))) == 9                          # ten samples: still the maximum
    assert tail(list(range(11))) == 0                          # eleven: ten lie beyond the least
    assert tail(list(range(100, 0, -1))) == 90                 # 91..100 lie beyond 90
    s = summarize([float(v) for v in range(1, 101)])
    assert (s["median"], s["tail"], s["n"], s["tail_rule"]) == (50.5, 90.0, 100, "p90")
    assert summarize([1.0, 2.0])["tail_rule"] == "max"


def test_tracer_nests_spans_and_restores_on_error():
    class Module:
        @staticmethod
        def outer(x):
            return Module.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    original_outer, original_inner = Module.outer, Module.inner
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched([(Module, "outer", "outer", None),
                             (Module, "inner", "inner", lambda a, k, r: {"r": r})]):
            assert Module.outer(3) == 7
            raise RuntimeError("boom")
    assert Module.outer is original_outer and Module.inner is original_inner
    assert [(s.name, s.parent, s.attrs) for s in tracer.spans] == [
        ("outer", None, {}), ("inner", 0, {"r": 6})]


def test_wrappers_are_restored_after_traced_run():
    """Untraced timings must run the unwrapped program."""
    originals = [(m, a, getattr(m, a)) for m, a, _, _ in layers.targets()]
    curve = build_boundary(DomainSpec("disk", {}), 256)
    layout = place_electrodes(curve, 8, 0.5)
    mesh = triangulate(curve, layout, 200)
    protocol = fem.adjacent_protocol(8)
    fld = TensorField.isotropic(np.ones(mesh.n_elements))

    tracer = Tracer()
    with tracer.patched(layers.targets()):
        assert all(getattr(m, a) is not f for m, a, f in originals)
        fem.predict(mesh, fld, layout, protocol)
    assert all(getattr(m, a) is f for m, a, f in originals)
    names = [s.name for s in tracer.spans]
    assert names == ["fem.predict", "fem.assemble", "fem.solve", "fem.factor"]
    assert tracer.spans[3].parent == 2 and tracer.spans[3].attrs["nnz"] > 0
    assert tracer.spans[2].attrs["columns"] == 8

    fem.predict(mesh, fld, layout, protocol)
    assert len(tracer.spans) == 4


def test_line_search_trials_skip_stage_start_evaluations():
    names = ["inverse.forward_map", "inverse.forward_map",      # initial + stage 0 start
             "inverse.jacobian", "inverse.step", "inverse.forward_map",
             "inverse.forward_map",                               # stage 1 start
             "inverse.jacobian", "inverse.step", "inverse.forward_map", "inverse.forward_map"]
    spans = [Span("harness.reconstruct", 0.0, 100.0, None)]
    spans += [Span(n, 1.0 + i, 1.5 + i, 0, {"n": 5} if n == "inverse.step" else {})
              for i, n in enumerate(names)]
    history = [{"stage": 0}, {"stage": 1}]
    assert layers.line_search_trials(spans, 0, history) == [5, 9, 10]
    metrics = layers.per_layer(spans, 0, history, 0, 0.0)
    assert metrics["inverse.linesearch.evals"] == 3
    assert metrics["inverse.accept_ratio"] == pytest.approx(2 / 3)
    assert metrics["inverse.self_s"] == pytest.approx(100.0 - 5.0)


def test_metric_names_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    for name in per_layer + end_to_end + [w["name"] for w in SPEC["workloads"]]:
        assert pattern.fullmatch(name), name
    assert per_layer == list(layers.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER_UNITS
    assert list(layers.per_layer([Span("root", 0.0, 1.0, None)], 0, [], 0, 0.0)) == per_layer
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
