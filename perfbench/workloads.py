"""The benchmark workloads: seeded inputs, the timed loop, the traced pass and
the correctness checks.

Every workload runs through the public API in one process. The seed is the
only input that varies: it is the noise seed of a reconstruction config, or
the stream of random phantoms of the forward sweep.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np

from anisoeit import fem, geometry, harness, inverse
from anisoeit.tensors import TensorField, scalar_field_from_csv
import layers
from spans import Tracer

SETUP_REPEATS = 5
TRACED_FORWARDS = 30
MISFIT_RTOL = 1e-11   # re-evaluated misfit against the reported one
SYMMETRY_TOL = 1e-10  # electrode matrix asymmetry, relative to its largest entry


@dataclasses.dataclass
class Outcome:
    """What one run measured; `samples` are timings keyed by metric name, in
    that metric's unit."""

    samples: dict = dataclasses.field(default_factory=dict)
    values: dict = dataclasses.field(default_factory=dict)
    checks: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: dict = dataclasses.field(default_factory=dict)
    shares: dict = dataclasses.field(default_factory=dict)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def operation(self, checks: list) -> None:
        """Record one operation and its (name, ok, detail) checks."""
        self.attempted += 1
        self.checks.extend(checks)
        if not all(ok for _, ok, _ in checks):
            self.failed += 1


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _tag(cfg) -> str:
    """The prefix `run_experiment` gives its output files."""
    return f"{cfg.name}-{cfg.mode}"


def _recon_bytes(cfg, out: Path):
    path = out / f"{_tag(cfg)}_recon.csv"
    return path.read_bytes() if path.exists() else None


class Reconstruction:
    """One built-in case through `run_experiment`, reconstructing on the disk."""

    def __init__(self, case: str, isotropic: bool, expected_largest: str):
        self.case, self.isotropic = case, isotropic
        self.expected_largest = expected_largest

    def config(self, seed: int) -> harness.ExperimentConfig:
        cfg = harness.builtin_configs()[self.case]
        if self.isotropic:
            cfg = harness.isotropic_mismodeled_variant(cfg)
        return dataclasses.replace(cfg, seed=seed)

    def run(self, seed: int, seconds: float, out: Path, trace: bool) -> Outcome:
        cfg = self.config(seed)
        return self._traced(cfg, out) if trace else self._timed_loop(cfg, seconds, out)

    def _timed_loop(self, cfg, seconds: float, out: Path) -> Outcome:
        """A full experiment, bare reconstructions of a scene built in set-up
        until `seconds` have passed, and a second full experiment; each
        operation is checked outside its timing."""
        res = Outcome()
        for _ in range(SETUP_REPEATS):
            t, scene = _timed(harness.build_scene, cfg)
            res.add("setup_s", t)
        deadline = time.perf_counter() + seconds
        reference = self._experiment(cfg, out, res, None)
        while True:
            try:
                t, state = _timed(harness.reconstruct_scene, cfg, scene)
            except harness.HarnessError as exc:
                res.operation([("reconstruct_scene", False, str(exc))])
            else:
                res.add("recon_s", t)
                res.add("gn_iter_ms", 1000.0 * t / max(len(state.history), 1))
                res.operation([
                    self._misfit_reproduced(state, scene),
                    ("bare reconstruction csv equals experiment csv",
                     inverse.recon_state_to_csv(state).encode() == reference, ""),
                ])
            if time.perf_counter() >= deadline:
                break
        self._experiment(cfg, out, res, reference)
        return res

    def _experiment(self, cfg, out: Path, res: Outcome, reference):
        """Time and check one `run_experiment`; return its `*_recon.csv` bytes."""
        t, report = _timed(harness.run_experiment, cfg, out)
        res.add("experiment_s", t)
        checks = self._check_report(report, cfg, out)
        written = _recon_bytes(cfg, out) if report.success else None
        if reference is None:
            res.values.update(self._quality(report) if report.success else {})
        else:
            checks.append(("recon csv byte-identical across repeats",
                           written is not None and written == reference, ""))
        res.operation(checks)
        return written

    def _traced(self, cfg, out: Path) -> Outcome:
        """One untraced and one traced experiment; the traced one gives the spans."""
        res = Outcome()
        t_plain, report = _timed(harness.run_experiment, cfg, out)
        res.operation(self._check_report(report, cfg, out))
        reference = _recon_bytes(cfg, out)

        tracer = Tracer()
        with tracer.patched(layers.targets()):
            with tracer.span("bench.experiment") as top:
                report = harness.run_experiment(cfg, out)
        checks = self._check_report(report, cfg, out)
        checks.append(("traced recon csv equals untraced",
                       reference is not None and _recon_bytes(cfg, out) == reference, ""))
        root = next(i for i, s in enumerate(tracer.spans) if s.name == "harness.reconstruct")
        checks.append(("reconstruct span = children + self", layers.root_adds_up(tracer.spans, root), ""))
        res.operation(checks)

        history = json.loads((out / f"{_tag(cfg)}_run_log.json").read_text())["iterations"]
        export_bytes = sum(Path(p).stat().st_size for p in report.manifest)
        res.layers = layers.per_layer(tracer.spans, root, history, export_bytes,
                                      top.duration / t_plain - 1.0)
        kids = layers.children(tracer.spans, root)
        trials = set(layers.line_search_trials(tracer.spans, root, history))
        res.shares = layers.shares(tracer.spans, root, {
            "jacobian": [i for i in kids if tracer.spans[i].name == "inverse.jacobian"],
            "step": [i for i in kids if tracer.spans[i].name == "inverse.step"],
            "linesearch": sorted(trials),
            "stage_start_eval": [i for i in kids if tracer.spans[i].name == "inverse.forward_map"
                                 and i not in trials],
        })
        tracer.write(out / "spans.json")
        return res

    def _check_report(self, report, cfg, out: Path) -> list:
        checks = [("report success", bool(report.success), report.message)]
        if not report.success:
            return checks
        fields = ["gamma"] if self.isotropic else ["eta", "theta"]
        finite = all(np.all(np.isfinite(scalar_field_from_csv(
            (out / f"{_tag(cfg)}_{f}.csv").read_text()))) for f in fields)
        checks.append(("exported fields finite", bool(finite), ",".join(fields)))
        return checks

    def _misfit_reproduced(self, state, scene) -> tuple:
        args = (scene.protocol, scene.mesh_recon, scene.lattice, scene.layout_recon)
        if self.isotropic:
            pred = inverse.forward_map_isotropic(state.gamma, *args)
        else:
            pred = inverse.forward_map(state.params, *args)
        misfit = float(np.sum((scene.data.values - pred) ** 2))
        rel = abs(misfit - state.final_misfit) / state.final_misfit
        return ("forward map reproduces final_misfit", rel <= MISFIT_RTOL, f"rel {rel:.2e}")

    def _quality(self, report) -> dict:
        m = report.metrics
        values = {"misfit_ratio": m["final_misfit"] / m["initial_misfit"],
                  "artifact_energy": m["artifact_energy"],
                  "gn_iterations": m["iterations"], "converged": m["converged"],
                  "blob_count": m["blob_count"]}
        if not self.isotropic:
            values["loc_err_max"] = max(m["centroid_errors"].values())
        return values


class ForwardSweep:
    """Random two-inclusion phantoms simulated on one fixed true-domain mesh."""

    expected_largest = "assemble+factor"
    J = 32
    ELEMENTS = 8500

    def __init__(self):
        self.spec = harness.builtin_configs()["case3_fourier"].true_domain

    def build(self):
        """The set-up: boundary, electrodes and mesh, looked up through
        `geometry` at call time so the traced pass sees them."""
        curve = geometry.build_boundary(self.spec, 2048)
        layout = geometry.place_electrodes(curve, self.J, 0.5)
        return geometry.triangulate(curve, layout, self.ELEMENTS), layout

    @staticmethod
    def phantoms(seed: int):
        """Endless seeded stream of (phantom, noise seed) pairs."""
        rng = np.random.default_rng(seed)
        while True:
            r, phi = 0.5 * np.sqrt(rng.uniform(size=2)), rng.uniform(0, 2 * np.pi, size=2)
            centers = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
            amplitudes = (rng.uniform(0.5, 1.5), -rng.uniform(0.3, 0.6))
            yield harness.Phantom(1.0, tuple(
                harness.Inclusion(tuple(c), float(rng.uniform(0.15, 0.3)), float(a))
                for c, a in zip(centers, amplitudes))), int(rng.integers(2 ** 31))

    def run(self, seed: int, seconds: float, out: Path, trace: bool) -> Outcome:
        res = Outcome()
        for _ in range(1 if trace else SETUP_REPEATS):
            t, (mesh, layout) = _timed(self.build)
            res.add("setup_s", t)
        protocol = fem.adjacent_protocol(self.J)
        centroids = mesh.centroids()
        stream = self.phantoms(seed)

        def forward(item) -> float:
            """Simulate one phantom, check it, and return the simulation time."""
            phantom, noise_seed = item
            fld = TensorField.isotropic(phantom.evaluate(centroids))
            t, data = _timed(fem.simulate_measurements, mesh, fld, layout, protocol, 0.01,
                             noise_seed)
            ok = data.values.shape == (protocol.N,) and bool(np.all(np.isfinite(data.values)))
            res.operation([("forward data finite", ok, "")])
            return t

        first = next(stream)
        system = fem.assemble(mesh, TensorField.isotropic(first[0].evaluate(centroids)), layout)
        G, _ = fem.electrode_matrix(system)
        asym = float(np.abs(G - G.T).max() / np.abs(G).max())
        res.operation([("electrode matrix symmetric", asym < SYMMETRY_TOL, f"{asym:.1e}")])

        if not trace:
            deadline = time.perf_counter() + seconds
            item = first
            while True:
                res.add("fwd_ms", 1000.0 * forward(item))
                if time.perf_counter() >= deadline:
                    return res
                item = next(stream)

        items = [first] + [next(stream) for _ in range(TRACED_FORWARDS - 1)]
        t_plain, _ = _timed(lambda: [forward(item) for item in items])
        tracer = Tracer()
        with tracer.patched(layers.targets()):
            with tracer.span("bench.setup"):
                self.build()
            with tracer.span("bench.forward_loop") as loop:
                for item in items:
                    forward(item)
        root = next(i for i, s in enumerate(tracer.spans) if s is loop)
        res.checks.append(("forward loop span = children + self",
                           layers.root_adds_up(tracer.spans, root), ""))
        res.layers = layers.per_layer(tracer.spans, root, [], 0, loop.duration / t_plain - 1.0)
        fem_s = {name: sum(s.duration for s in tracer.spans if s.name == name)
                 for name in ("fem.assemble", "fem.factor")}
        res.shares = {
            "assemble+factor": (fem_s["fem.assemble"] + fem_s["fem.factor"]) / loop.duration,
            "solve": res.layers["fem.solve_s"] / loop.duration}
        res.shares["other"] = 1.0 - sum(res.shares.values())
        tracer.write(out / "spans.json")
        return res


END_TO_END_UNITS = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}


def end_to_end(res: Outcome, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of BENCHMARK.json: the ones every workload has
    and that stay comparable across seeds. `op_ms` is the median time of one
    unit of work: a GN iteration (gn_iter_ms) on a reconstruction workload,
    a forward simulation (fwd_ms) on the forward sweep."""
    op = res.samples.get("gn_iter_ms") or res.samples["fwd_ms"]
    values = {"setup_s": statistics.median(res.samples["setup_s"]),
              "op_ms": statistics.median(op), "peak_rss_mb": peak_rss_mb}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


# aniso-truncated runs by name only: its time per GN iteration depends on the
# seed (3 to 5.5 dense step solves per iteration), so it is not in BENCHMARK.json
WORKLOADS = {
    "aniso-ellipse": Reconstruction("case1_ellipse", isotropic=False, expected_largest="jacobian"),
    "aniso-truncated": Reconstruction("case2_truncated_ellipse", isotropic=False,
                                      expected_largest="step"),
    "iso-ellipse": Reconstruction("case1_ellipse", isotropic=True, expected_largest="jacobian"),
    "forward-sweep": ForwardSweep(),
}
