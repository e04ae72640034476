"""Which module attributes the traced run wraps, and the per-layer metrics
derived from the spans it records.

Each wrapped attribute is one that callers look up at call time, so the
wrapper sees every call without any change to the program:
`CEMSystem.lu` finds `splu` in the `fem` namespace, `inverse` calls its own
`jacobian`, `forward_map`, `_trust_capped_step` and `gamma_hat` globals, and
`harness` calls the geometry functions it imported by name.
"""

from __future__ import annotations

import statistics

import numpy as np
import scipy.linalg

from anisoeit import fem, geometry, harness, inverse
from spans import Span, self_times


def _lu_fill(args, kwargs, lu):
    return {"nnz": int(lu.L.nnz + lu.U.nnz)}


def _columns(args, kwargs, result):
    patterns = args[1] if len(args) > 1 else kwargs["patterns"]
    return {"columns": len(np.atleast_2d(patterns))}


def _step_size(args, kwargs, result):
    return {"n": int(args[0].shape[0])}


def _elements(args, kwargs, mesh):
    return {"elements": int(mesh.n_elements)}


def targets() -> list[tuple]:
    """(module, attribute, span name, annotate) for every traced call site."""
    geometry_calls = [(m, "build_boundary", "geometry.boundary", None) for m in (harness, geometry)]
    geometry_calls += [(m, "triangulate", "geometry.triangulate", _elements)
                       for m in (harness, geometry)]
    geometry_calls += [(m, "build_pixel_lattice", "geometry.lattice", None)
                       for m in (harness, geometry)]
    return geometry_calls + [
        (fem, "assemble", "fem.assemble", None),
        (fem, "splu", "fem.factor", _lu_fill),
        (fem, "solve_many", "fem.solve", _columns),
        (fem, "predict", "fem.predict", None),
        (inverse, "jacobian", "inverse.jacobian", None),
        (inverse, "jacobian_isotropic", "inverse.jacobian", None),
        (inverse, "forward_map", "inverse.forward_map", None),
        (inverse, "forward_map_isotropic", "inverse.forward_map", None),
        (inverse, "_trust_capped_step", "inverse.step", _step_size),
        # the dense solves inside the step; counted only under inverse.step
        (scipy.linalg, "solve", "inverse.step.dense_solve", None),
        (inverse, "gamma_hat", "tensors.gamma_hat", None),
        (harness, "build_scene", "harness.scene", None),
        (harness, "reconstruct_scene", "harness.reconstruct", None),
        (harness, "_measure_and_export", "harness.export", None),
        (harness, "rasterize", "harness.rasterize", None),
    ]


# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "geometry.boundary_s": "s", "geometry.triangulate_s": "s",
    "geometry.triangulate.calls": "count", "geometry.lattice_s": "s",
    "geometry.elements": "count",
    "tensors.gamma_hat_s": "s", "tensors.gamma_hat.calls": "count",
    "fem.assemble_s": "s", "fem.assemble.calls": "count",
    "fem.factor_s": "s", "fem.factor.calls": "count", "fem.lu_nnz": "count",
    "fem.solve_s": "s", "fem.solve.calls": "count", "fem.solve.columns": "count",
    "inverse.jacobian_s": "s", "inverse.jacobian.calls": "count",
    "inverse.jacobian.self_s": "s",
    "inverse.step_s": "s", "inverse.step.calls": "count",
    "inverse.step.dense_solves": "count", "inverse.step.n": "count",
    "inverse.step.flops": "flop-computed",
    "inverse.linesearch_s": "s", "inverse.linesearch.evals": "count",
    "inverse.accept_ratio": "ratio",
    "inverse.gn_iters": "count", "inverse.self_s": "s",
    "harness.scene_s": "s", "harness.export_s": "s", "harness.rasterize_s": "s",
    "harness.rasterize.calls": "count", "harness.export_bytes": "B",
    "trace.root_s": "s", "trace.overhead_frac": "ratio",
}


def line_search_trials(spans: list[Span], root: int, history: list[dict]) -> list[int]:
    """Forward evaluations under the GN loop that are line-search trials.

    The loop also evaluates the objective once before the first stage and
    once at the start of every barrier stage; those are the forward maps
    before the first Jacobian and the last forward map before the first
    Jacobian of each later stage.
    """
    kids = children(spans, root)
    stage_starts, last_in_segment = set(), {}
    segment = -1  # Jacobians seen so far, minus one
    for i in kids:
        if spans[i].name == "inverse.jacobian":
            segment += 1
        elif spans[i].name == "inverse.forward_map":
            if segment < 0:
                stage_starts.add(i)
            last_in_segment[segment] = i
    for k in range(len(history) - 1):
        if history[k + 1]["stage"] != history[k]["stage"] and k in last_in_segment:
            stage_starts.add(last_in_segment[k])
    return [i for i in kids if spans[i].name == "inverse.forward_map" and i not in stage_starts]


def per_layer(spans: list[Span], root: int, history: list[dict], export_bytes: int,
              overhead_frac: float) -> dict:
    """Every per-layer metric of one traced operation, as name -> value.

    `root` is the span of the operation (reconstruct_scene, or the forward
    loop); times are summed over all spans of the traced run.
    """
    own = self_times(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].duration for i in named(name))

    def attr_values(name, key):
        return [spans[i].attrs[key] for i in named(name)]

    steps = set(named("inverse.step"))
    dense_solves = sum(1 for i in named("inverse.step.dense_solve") if spans[i].parent in steps)
    step_n = max(attr_values("inverse.step", "n"), default=0)
    recon = named("harness.reconstruct")
    trials = line_search_trials(spans, recon[0], history) if recon else []
    gn_iters = len(history)
    return {
        "geometry.boundary_s": total("geometry.boundary"),
        "geometry.triangulate_s": total("geometry.triangulate"),
        "geometry.triangulate.calls": len(named("geometry.triangulate")),
        "geometry.lattice_s": total("geometry.lattice"),
        "geometry.elements": sum(attr_values("geometry.triangulate", "elements")),
        "tensors.gamma_hat_s": total("tensors.gamma_hat"),
        "tensors.gamma_hat.calls": len(named("tensors.gamma_hat")),
        "fem.assemble_s": total("fem.assemble"),
        "fem.assemble.calls": len(named("fem.assemble")),
        "fem.factor_s": total("fem.factor"),
        "fem.factor.calls": len(named("fem.factor")),
        "fem.lu_nnz": statistics.median(attr_values("fem.factor", "nnz") or [0]),
        # the first solve on a system triggers its factorization: exclude it
        "fem.solve_s": sum(own[i] for i in named("fem.solve")),
        "fem.solve.calls": len(named("fem.solve")),
        "fem.solve.columns": sum(attr_values("fem.solve", "columns")),
        "inverse.jacobian_s": total("inverse.jacobian"),
        "inverse.jacobian.calls": len(named("inverse.jacobian")),
        "inverse.jacobian.self_s": sum(own[i] for i in named("inverse.jacobian")),
        "inverse.step_s": total("inverse.step"),
        "inverse.step.calls": len(steps),
        "inverse.step.dense_solves": dense_solves,
        "inverse.step.n": step_n,
        "inverse.step.flops": dense_solves * step_n ** 3 / 3.0,
        "inverse.linesearch_s": sum(spans[i].duration for i in trials),
        "inverse.linesearch.evals": len(trials),
        "inverse.accept_ratio": gn_iters / len(trials) if trials else 0.0,
        "inverse.gn_iters": gn_iters,
        "inverse.self_s": sum(own[i] for i in recon),
        "harness.scene_s": total("harness.scene"),
        "harness.export_s": total("harness.export"),
        "harness.rasterize_s": total("harness.rasterize"),
        "harness.rasterize.calls": len(named("harness.rasterize")),
        "harness.export_bytes": export_bytes,
        "trace.root_s": spans[root].duration,
        "trace.overhead_frac": overhead_frac,
    }


def children(spans: list[Span], root: int) -> list[int]:
    return [i for i, s in enumerate(spans) if s.parent == root]


def shares(spans: list[Span], root: int, groups: dict) -> dict:
    """Share of the root span taken by each group (name -> child span
    indices), plus the root's self time."""
    length = spans[root].duration
    out = {group: sum(spans[i].duration for i in members) / length
           for group, members in groups.items()}
    out["self"] = self_times(spans)[root] / length
    return out


def root_adds_up(spans: list[Span], root: int) -> bool:
    """Children plus self time of the root equal its span (no overlap, no gap)."""
    kids = sum(spans[i].duration for i in children(spans, root))
    return abs(kids + self_times(spans)[root] - spans[root].duration) <= 1e-9 * max(
        1.0, spans[root].duration)
