import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from anisoeit import cli, harness
from anisoeit.geometry import DomainSpec
from anisoeit.harness import (MODES, ExperimentConfig, Inclusion, Phantom, RunReport,
                              blob_analysis, boundary_artifact_energy, builtin_configs,
                              export_field_image, locality_fraction,
                              normalization_map, rasterize, read_pgm, run_experiment,
                              with_mode, write_pgm)
from anisoeit.tensors import scalar_field_from_csv


@pytest.fixture(scope="module")
def tiny_config():
    """Disk-to-disk configuration small enough for fast end-to-end runs."""
    return ExperimentConfig(
        name="tiny_disk",
        true_domain=DomainSpec("disk", {}),
        model_domain=DomainSpec("disk", {}),
        phantom=Phantom(background=1.0, inclusions=(
            Inclusion(center=(0.4, 0.1), radius=0.3, amplitude=1.0),)),
        sim_elements=700, recon_elements=600, pixels=40,
        boundary_samples=512, max_iterations=25, max_inner=8,
        xi_start=1e-6, xi_end=1e-10, xi_stages=3)


# --- configs -----------------------------------------------------------------

def test_config_roundtrip_and_hash(tiny_config):
    doc = tiny_config.to_dict()
    back = ExperimentConfig.from_dict(doc)
    assert back == tiny_config
    assert back.hash() == tiny_config.hash()
    # hash changes iff a field changes
    for change in (dict(seed=8), dict(noise_fraction=0.02), dict(pixels=41),
                   dict(mode="isotropic-mismodeled")):
        other = dataclasses.replace(tiny_config, **change)
        assert other.hash() != tiny_config.hash()
    same = dataclasses.replace(tiny_config)
    assert same.hash() == tiny_config.hash()


def test_config_json_file_roundtrip(tiny_config, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(tiny_config.to_dict()))
    assert harness.load_config(p) == tiny_config


def test_builtin_configs_reference_values():
    cfgs = builtin_configs()
    assert set(cfgs) == {"case1_ellipse", "case2_truncated_ellipse", "case3_fourier"}
    c1 = cfgs["case1_ellipse"]
    assert c1.true_domain.params == {"a": 1.25, "b": 0.8}
    assert c1.noise_fraction == 0.01
    assert c1.contact_impedance == 1.0
    assert (c1.weights.alpha0, c1.weights.alpha1) == (1e-8, 1e-4)
    assert (c1.weights.beta0, c1.weights.beta1, c1.weights.beta2) == (1e-8, 5e-6, 0.0)
    assert (c1.xi_start, c1.xi_end) == (1e-5, 1e-12)
    assert c1.n_electrodes == 16 and c1.coverage == 0.5
    c2 = cfgs["case2_truncated_ellipse"]
    assert c2.true_domain.params["a"] == 1.1 and c2.true_domain.params["b"] == 0.9


# config hashes at the introduction of the config table; every run id and
# report stamp derives from them
PINNED_HASHES = {
    "case1_ellipse": ("a7848df63d72ce790b1fa1ce9d7dcb57cedb77a4ee583e87e30adce610b222a9",
                      "ce153abc98d2a262ace3bfb1e24d47023d1ead37b4ce3040a384d3efd3ca3d10",
                      "59a114394c7b9fd707f73677b7466f066d4670573e03eaa9484c0c31090a8976"),
    "case2_truncated_ellipse": (
        "f77711b3023d99e0b80c541b99ec666fb694bbdc2c57df4e59963e446b29bc46",
        "b63d9c645acdb085e1d29a8e7f5cb599220e125e9cb21de872e85d23458a4924",
        "b41663f2de3bffaab5dbf94b9b3b81c62a2da7b9b2c6cb95fa37e32bf3ecc29c"),
    "case3_fourier": ("781f9d5256d6943dc8089a9a778a452eb6d873aa9226b35e508eafda654269b2",
                      "e5fc0d7bc9ac20da157755939b1fef75c479274fba2379d5308d821461bc17c1",
                      "4a14c3a8ee31daadb9a95f7ae00cb29dc931b73cce6283ca94ba3623e045aac2"),
}


def test_shipped_configs_are_the_builtins():
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name, cfg in builtin_configs().items():
        path = configs / f"{name}.json"
        assert path.read_text() == json.dumps(cfg.to_dict(), indent=1) + "\n"
        assert harness.load_config(path) == cfg
        hashes = tuple(c.hash() for c in (cfg, harness.isotropic_mismodeled_variant(cfg),
                                          harness.isotropic_correct_variant(cfg)))
        assert hashes == PINNED_HASHES[name]


def test_partial_config_takes_dataclass_defaults(tiny_config):
    doc = tiny_config.to_dict()
    del doc["gn"]["max_inner"], doc["noise"], doc["mode"]
    doc["weights"] = {"alpha1": 3e-4}
    back = ExperimentConfig.from_dict(doc)
    assert back.weights == dataclasses.replace(ExperimentConfig.weights, alpha1=3e-4)
    assert (back.max_inner, back.seed, back.noise_fraction, back.mode) == (
        10, 7, 0.01, "uniformly-anisotropic")
    assert back.max_iterations == tiny_config.max_iterations


def _edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


BAD_CONFIGS = {
    "unknown section": (lambda d: d.update(solver={}), "solver"),
    "unknown key": (lambda d: d["gn"].update(max_iteration=3), "gn.max_iteration"),
    "unknown inclusion key": (lambda d: d["phantom"]["inclusions"][0].update(width=1),
                              "phantom.inclusions.width"),
    "missing name": (lambda d: d.pop("name"), "name"),
    "missing domain kind": (lambda d: d["true_domain"].pop("kind"), "true_domain.kind"),
    "bad domain kind": (lambda d: d["model_domain"].update(kind="square"), "model_domain"),
    "negative weight": (lambda d: d["weights"].update(alpha1=-1.0), "weights"),
    "bad integer": (lambda d: d["mesh"].update(pixels="many"), "mesh.pixels"),
    "bad inclusion radius": (lambda d: d["phantom"]["inclusions"][0].update(radius=0.0),
                             "radius"),
    "not an object": (lambda d: d.update(noise=[0.01]), "noise"),
    "fractional integer": (lambda d: d["mesh"].update(pixels=437.9), "mesh.pixels"),
    "fractional seed": (lambda d: d["noise"].update(seed=7.5), "noise.seed"),
    "boolean integer": (lambda d: d["protocol"].update(n_electrodes=True),
                        "protocol.n_electrodes"),
    "non-finite float": (lambda d: d["protocol"].update(contact_impedance=float("nan")),
                         "protocol.contact_impedance"),
    "boolean weight": (lambda d: d["weights"].update(alpha1=True), "weights"),
    "non-numeric center": (lambda d: d["phantom"]["inclusions"][0].update(
        center=["a", float("nan")]), "phantom.inclusions.center"),
    "infinite center": (lambda d: d["phantom"]["inclusions"][0].update(
        center=[float("inf"), 0]), "phantom.inclusions.center"),
    "one-coordinate center": (lambda d: d["phantom"]["inclusions"][0].update(center=[0.1]),
                              "phantom.inclusions.center"),
    "misspelled domain param": (lambda d: d["true_domain"].update(params={"radus": 2.0}),
                                "true_domain: unknown disk param 'radus'"),
    "negative radius": (lambda d: d["true_domain"].update(params={"radius": -2}),
                        "true_domain: disk radius"),
    "non-finite semi-axis": (lambda d: d["true_domain"].update(
        kind="ellipse", params={"a": float("nan"), "b": 0.8}), "true_domain: ellipse param 'a'"),
    "non-numeric fourier coefficient": (lambda d: d["model_domain"].update(
        kind="fourier", params={"cos": ["0.1"]}), "model_domain: fourier param 'cos'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS) + ["unreadable JSON"])
def test_cli_rejects_bad_config(tiny_config, tmp_path, capsys, case):
    path = tmp_path / "cfg.json"
    if case == "unreadable JSON":
        path.write_text(json.dumps(tiny_config.to_dict())[:-5])
        named = "cfg.json"
    else:
        edit, named = BAD_CONFIGS[case]
        path.write_text(_edited(tiny_config.to_dict(), edit))
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "[stage:config]" in err and named in err


def test_invalid_mode_rejected():
    with pytest.raises(harness.HarnessError):
        ExperimentConfig(name="x", true_domain=DomainSpec("disk", {}),
                         model_domain=DomainSpec("disk", {}),
                         phantom=Phantom(), mode="bogus")


# --- phantom -------------------------------------------------------------------

def test_phantom_bumps_are_compactly_supported():
    ph = Phantom(background=2.0, inclusions=(Inclusion((0.0, 0.0), 0.5, 1.0),))
    pts = np.array([[0.0, 0.0], [0.49, 0.0], [0.51, 0.0], [2.0, 2.0]])
    v = ph.evaluate(pts)
    assert v[0] == pytest.approx(3.0)
    assert v[1] > 2.0
    assert v[2] == 2.0 and v[3] == 2.0


# --- metrics ---------------------------------------------------------------------

def test_locality_fraction_point_mass(small_disk_mesh):
    delta = np.zeros(small_disk_mesh.n_elements)
    delta[10] = 1.0
    frac, peak = locality_fraction(delta, small_disk_mesh, radius=0.3)
    assert frac == 1.0
    assert np.allclose(peak, small_disk_mesh.centroids()[10])


def test_boundary_artifact_energy_ring_vs_center(disk_curve, disk_mesh):
    from anisoeit.geometry import build_pixel_lattice
    lat = build_pixel_lattice(disk_mesh, 200)
    r = np.linalg.norm(lat.centers, axis=1)
    ring = np.where(r > 0.9, 2.0, 1.0)
    center = np.where(r < 0.3, 2.0, 1.0)
    e_ring = boundary_artifact_energy(ring, lat, disk_mesh, disk_curve)
    e_center = boundary_artifact_energy(center, lat, disk_mesh, disk_curve)
    # mean subtraction spreads some energy over the background either way
    assert e_ring > 0.75
    assert e_center < 0.15


def test_blob_analysis_counts_two():
    img = np.full((30, 30), 1.0)
    yy, xx = np.mgrid[0:30, 0:30]
    img[(yy - 8) ** 2 + (xx - 8) ** 2 < 9] = 2.0
    img[(yy - 20) ** 2 + (xx - 20) ** 2 < 9] = 0.5
    img[0, :] = np.nan
    blobs = blob_analysis(img, lambda x, y: (x, y), min_size=2)
    kinds = sorted(k for k, _, _ in blobs)
    assert kinds == ["high", "low"]


def test_normalization_map_ellipse_to_disk():
    from anisoeit.geometry import build_boundary
    ce = build_boundary(DomainSpec("ellipse", {"a": 1.25, "b": 0.8}), 512)
    cd = build_boundary(DomainSpec("disk", {}), 512)
    mapping = normalization_map(ce, cd)
    out = mapping(np.array([[1.25, 0.0], [0.0, -0.8], [0.5, 0.2]]))
    assert np.allclose(out[0], [1.0, 0.0], atol=1e-6)
    assert np.allclose(out[1], [0.0, -1.0], atol=1e-6)
    assert np.allclose(out[2], [0.4, 0.25], atol=1e-6)


# --- field image export -----------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (40, 50))
    img[0, 0] = np.nan
    write_pgm(img, tmp_path / "x.pgm")
    back = read_pgm(tmp_path / "x.pgm")
    assert back.shape == img.shape
    assert back[0, 0] == 0
    inside = ~np.isnan(img)
    assert back[inside].min() >= 1


def test_export_constant_field_midgray(small_disk_mesh, tmp_path):
    vals = np.full(small_disk_mesh.n_elements, 3.7)
    csv_path, pgm_path = export_field_image(vals, small_disk_mesh, tmp_path / "const")
    img = read_pgm(pgm_path)
    inside = img > 0
    assert inside.any()
    assert set(np.unique(img[inside])) == {128}
    back = scalar_field_from_csv(csv_path.read_text())
    assert np.array_equal(back, vals)


def test_export_csv_bitwise_roundtrip(small_disk_mesh, tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.uniform(0.5, 2.0, small_disk_mesh.n_elements)
    csv_path, _ = export_field_image(vals, small_disk_mesh, tmp_path / "f")
    back = scalar_field_from_csv(csv_path.read_text())
    assert np.array_equal(back, vals)


def loop_rasterize(values_per_element, mesh, resolution=256):
    """Reference: a per-triangle loop over the cells of each bounding box,
    overwriting in element order."""
    x0, y0 = mesh.nodes.min(axis=0)
    x1, y1 = mesh.nodes.max(axis=0)
    img = np.full((resolution, resolution), np.nan)
    wx, wy = (x1 - x0) / resolution, (y1 - y0) / resolution
    tri = mesh.nodes[mesh.triangles]
    for e in range(mesh.n_elements):
        a, b, c = tri[e]
        lo = np.floor(([min(a[0], b[0], c[0]), min(a[1], b[1], c[1])] - np.array([x0, y0]))
                      / np.array([wx, wy])).astype(int)
        hi = np.ceil(([max(a[0], b[0], c[0]), max(a[1], b[1], c[1])] - np.array([x0, y0]))
                     / np.array([wx, wy])).astype(int)
        lo = np.clip(lo, 0, resolution - 1)
        hi = np.clip(hi, 0, resolution - 1)
        ix = np.arange(lo[0], hi[0] + 1)
        iy = np.arange(lo[1], hi[1] + 1)
        px = x0 + (ix + 0.5) * wx
        py = y0 + (iy + 0.5) * wy
        X, Y = np.meshgrid(px, py)
        d = (b[1] - c[1]) * (a[0] - c[0]) + (c[0] - b[0]) * (a[1] - c[1])
        l1 = ((b[1] - c[1]) * (X - c[0]) + (c[0] - b[0]) * (Y - c[1])) / d
        l2 = ((c[1] - a[1]) * (X - c[0]) + (a[0] - c[0]) * (Y - c[1])) / d
        l3 = 1.0 - l1 - l2
        covered = (l1 >= -1e-12) & (l2 >= -1e-12) & (l3 >= -1e-12)
        yy, xx = np.where(covered)
        img[iy[yy], ix[xx]] = values_per_element[e]
    return img


@pytest.mark.parametrize("resolution", [37, 256])
def test_rasterize_matches_per_triangle_loop(small_disk_mesh, resolution):
    vals = np.random.default_rng(3).standard_normal(small_disk_mesh.n_elements)
    assert np.array_equal(rasterize(vals, small_disk_mesh, resolution),
                          loop_rasterize(vals, small_disk_mesh, resolution), equal_nan=True)


@pytest.mark.parametrize("resolution", [0, -3, 2.5, True, "64"])
def test_rasterize_rejects_bad_resolution(small_disk_mesh, resolution):
    vals = np.ones(small_disk_mesh.n_elements)
    with pytest.raises(harness.HarnessError,
                       match=rf"\[stage:export\] .*got {re.escape(repr(resolution))}"):
        rasterize(vals, small_disk_mesh, resolution)


def test_rasterize_covers_domain(small_disk_mesh):
    vals = np.linspace(1, 2, small_disk_mesh.n_elements)
    img = rasterize(vals, small_disk_mesh, resolution=128)
    inside = ~np.isnan(img)
    # disk fills ~ pi/4 of its bounding box
    assert abs(inside.mean() - np.pi / 4) < 0.05


# --- experiment driver --------------------------------------------------------------

def test_run_experiment_end_to_end(tiny_config, tmp_path):
    report = run_experiment(tiny_config, tmp_path / "run")
    assert report.success, report.message
    m = report.metrics
    assert m["converged"]
    assert m["final_misfit"] < m["initial_misfit"]
    for p in report.manifest:
        assert Path(p).exists()
    # metric reproducible from exported fields: misfit from data + recon log
    log = json.loads((tmp_path / "run" / f"{tiny_config.name}-{tiny_config.mode}_run_log.json").read_text())
    assert log["final_misfit"] == pytest.approx(m["final_misfit"], rel=1e-12)


def test_determinism_across_runs_and_threads(tiny_config, tmp_path):
    r1 = run_experiment(tiny_config, tmp_path / "a")
    r2 = run_experiment(tiny_config, tmp_path / "b")
    assert r1.success and r2.success
    for name in (f"{tiny_config.name}-{tiny_config.mode}_data.csv",
                 f"{tiny_config.name}-{tiny_config.mode}_recon.csv",
                 f"{tiny_config.name}-{tiny_config.mode}_eta.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_seed_changes_noise_not_clean_data(tiny_config):
    s1 = harness.build_scene(tiny_config)
    s2 = harness.build_scene(dataclasses.replace(tiny_config, seed=tiny_config.seed + 1))
    assert not np.array_equal(s1.data.values, s2.data.values)
    clean1 = harness.build_scene(dataclasses.replace(tiny_config, noise_fraction=0.0))
    clean2 = harness.build_scene(dataclasses.replace(
        tiny_config, noise_fraction=0.0, seed=tiny_config.seed + 1))
    assert np.array_equal(clean1.data.values, clean2.data.values)


def test_failure_report_is_stage_tagged(tiny_config, tmp_path):
    bad = dataclasses.replace(tiny_config, pixels=100_000)
    report = run_experiment(bad, tmp_path / "bad")
    assert not report.success
    assert report.stage == "geometry"
    assert "rank-deficient" in report.message
    path = tmp_path / "bad" / f"report_{report.run_id}.json"
    assert path.exists()


def test_inverse_crime_flag_requires_matching_domains(tmp_path):
    cfg = dataclasses.replace(builtin_configs()["case1_ellipse"], max_iterations=2)
    report = run_experiment(cfg, tmp_path / "ic", inverse_crime=True)
    assert not report.success and report.stage == "geometry"


def test_locality_builds_one_scene_per_phantom(tiny_config, tmp_path, monkeypatch):
    built = []
    build = harness.build_scene
    monkeypatch.setattr(harness, "build_scene", lambda cfg: built.append(cfg) or build(cfg))
    report = harness.verify_locality(tiny_config, Inclusion((-0.3, -0.2), 0.25, 1.0),
                                     tmp_path / "loc")
    assert len(built) == 2
    assert report.stage is None and "anisotropic_fraction" in report.metrics


def test_failing_locality_is_stage_tagged(tiny_config, tmp_path, monkeypatch):
    pert = Inclusion((-0.3, -0.2), 0.25, 1.0)
    report = harness.verify_locality(dataclasses.replace(tiny_config, pixels=100_000), pert,
                                     tmp_path / "geometry")
    assert not report.success and report.stage == "geometry"

    def broken(config, scene):
        raise ValueError("solver exploded")

    monkeypatch.setattr(harness, "reconstruct_scene", broken)
    report = harness.verify_locality(tiny_config, pert, tmp_path / "plain")
    assert not report.success and report.stage == "locality"
    assert report.message == "solver exploded"
    assert (tmp_path / "plain" / f"report_{report.run_id}.json").exists()


def test_aggregate_reports(tiny_config, tmp_path):
    run_experiment(tiny_config, tmp_path / "agg")
    summary = harness.aggregate_reports(tmp_path / "agg")
    assert summary["count"] == 1 and summary["succeeded"] == 1


# --- CLI -----------------------------------------------------------------------------

def test_cli_mesh_and_simulate(tiny_config, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config.to_dict()))
    rc = cli.main(["mesh", "--config", str(cfg_path), "--out", str(tmp_path / "m")])
    assert rc == 0
    assert (tmp_path / "m" / "tiny_disk_mesh_true.json").exists()
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s")])
    assert rc == 0
    assert (tmp_path / "s" / "tiny_disk_data.csv").exists()


def test_cli_mesh_writes_the_reconstruction_mesh(tiny_config, tmp_path):
    cfg = dataclasses.replace(tiny_config, true_domain=DomainSpec("ellipse", {"a": 1.25, "b": 0.8}),
                              max_iterations=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["mesh", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 0
    assert run_experiment(cfg, tmp_path / "r").success
    tag = f"{cfg.name}-{cfg.mode}"
    for mine, theirs in (("true", "sim"), ("model", "recon")):
        assert ((tmp_path / "m" / f"{cfg.name}_mesh_{mine}.json").read_bytes()
                == (tmp_path / "r" / f"{tag}_mesh_{theirs}.json").read_bytes())


@pytest.mark.parametrize("argv", [["mesh", "--seed", "3"],
                                  ["simulate", "--mode", "isotropic-correct"],
                                  ["simulate", "--inverse-crime"],
                                  ["verify", "--suite", "locality", "--mode", "isotropic-correct"],
                                  ["verify", "--suite", "locality", "--inverse-crime"],
                                  ["verify", "--suite", "invariance", "--config", "cfg.json"],
                                  ["verify", "--suite", "invariance", "--case", "case1_ellipse"],
                                  ["verify", "--suite", "invariance", "--seed", "3"],
                                  ["verify", "--suite", "locality", "--c", "0.2"],
                                  ["verify", "--suite", "invariance",
                                   "--perturbation-radius", "0.1"],
                                  ["mesh", "-v"], ["simulate", "--verbose"], ["report", "-v"]])
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys, tmp_path):
    verify_flags = next(flags for name, *_, flags in cli._COMMANDS if name == "verify")
    if argv[0] == "verify" and argv[3] in verify_flags:
        # registered for the other suite, so rejected by the command itself
        # before it writes anything
        assert cli.main(argv + ["--case", "case1_ellipse", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "[stage:config]" in err and argv[3] in err
        assert not any(tmp_path.iterdir())
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--case", "case1_ellipse"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_verbose_logs_each_barrier_stage(tiny_config, tmp_path, capsys):
    """-v adds one stderr line per barrier stage, naming its stop reason, to
    an otherwise identical run; without it stderr stays empty."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config.to_dict()))
    outputs = []
    for flags in ([], ["-v"]):
        out = tmp_path / f"r{len(flags)}"
        assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)] + flags) == 0
        outputs.append(capsys.readouterr())
    plain, verbose = outputs
    assert plain.err == "" and verbose.out == plain.out
    stages = json.loads(next((tmp_path / "r1").rglob("*_run_log.json")).read_text())["stages"]
    lines = verbose.err.splitlines()
    assert len(lines) == len(stages)
    for line, entry in zip(lines, stages):
        assert line.startswith(f"barrier stage {entry['stage']} ")
        assert line.endswith(f"stopped by {entry['stop_reason']}")


def test_cli_reconstruct_and_report(tiny_config, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config.to_dict()))
    rc = cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 0
    rc = cli.main(["report", "--out", str(tmp_path / "r")])
    assert rc == 0


def test_cli_errors_are_stage_tagged(tmp_path, capsys):
    rc = cli.main(["simulate", "--out", str(tmp_path)])
    assert rc != 0
    assert "[stage:config]" in capsys.readouterr().err


# --- modes: the CLI runs what the library runs ----------------------------------------

def _stub(monkeypatch, name: str, success: bool = False) -> list:
    """Replace harness.<name> with a recorder of its arguments that returns
    a report with `success` (failed at stage "stub" otherwise)."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return RunReport(run_id="stub", config_hash="", mode="stub", success=success, metrics={},
                         manifest=[], stage=None if success else "stub",
                         message="" if success else "stub says no")

    monkeypatch.setattr(harness, name, record)
    return calls


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(builtin_configs()))
def test_cli_mode_is_the_library_mode(case, mode, monkeypatch, tmp_path):
    """`--mode` applies the per-case baseline of `with_mode`, and `--seed`
    changes the seed alone; neither needs a run."""
    calls = _stub(monkeypatch, "run_experiment")
    expected = with_mode(builtin_configs()[case], mode)
    for seed in ([], ["--seed", "3"]):
        argv = ["reconstruct", "--case", case, "--mode", mode, "--out", str(tmp_path)] + seed
        assert cli.main(argv) == 2
    (plain, _), (seeded, _) = calls
    assert plain[0].hash() == expected.hash()
    assert seeded[0] == dataclasses.replace(expected, seed=3)


@pytest.mark.parametrize("mode", ["isotropic-mismodeled", "isotropic-correct"])
def test_cli_mode_writes_the_library_run(tiny_config, mode, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config.to_dict()))
    argv = ["reconstruct", "--config", str(cfg_path), "--mode", mode, "--out"]
    assert cli.main(argv + [str(tmp_path / "cli")]) == 0
    report = run_experiment(with_mode(tiny_config, mode), tmp_path / "lib")
    assert capsys.readouterr().out.startswith(f"{report.run_id}: ")
    assert (tmp_path / "cli" / f"report_{report.run_id}.json").exists()
    for name in ("recon.csv", "run_log.json"):
        name = f"{tiny_config.name}-{mode}_{name}"
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


@pytest.mark.parametrize("success", [True, False])
@pytest.mark.parametrize("suite", ["invariance", "locality"])
def test_cli_verify_passes_the_documented_defaults(suite, success, monkeypatch, tmp_path, capsys):
    calls = _stub(monkeypatch, f"verify_{suite}", success)
    argv = ["verify", "--suite", suite, "--out", str(tmp_path)]
    rc = cli.main(argv + ([] if suite == "invariance" else ["--case", "case1_ellipse"]))
    if suite == "invariance":
        assert calls == [((str(tmp_path),), {"c": 0.3})]
    else:
        assert cli.main(argv + ["--case", "case1_ellipse", "--seed", "3"]) == rc
        case1 = builtin_configs()["case1_ellipse"]
        pert = Inclusion(center=(0.5, 0.22), radius=0.25, amplitude=1.0)
        assert calls == [((case1, pert, str(tmp_path)), {}),
                         ((dataclasses.replace(case1, seed=3), pert, str(tmp_path)), {})]
    err = capsys.readouterr().err
    if success:
        assert rc == 0 and err == ""
    else:
        assert rc == 2 and "[stage:stub] stub says no" in err


def test_cli_failed_reconstruct_is_stage_tagged(tiny_config, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.replace(tiny_config, recon_elements=50).to_dict()))
    assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "[stage:geometry] target_elements must be at least 100" in capsys.readouterr().err


def test_with_mode_derives_only_from_the_anisotropic_mode(tiny_config, tmp_path, capsys):
    case1 = builtin_configs()["case1_ellipse"]
    for mode in MODES:
        derived = with_mode(case1, mode)
        assert derived.mode == mode and with_mode(derived, mode) is derived
    correct = harness.isotropic_correct_variant(case1)
    for config, mode in ((case1, "bogus"), (correct, "isotropic-mismodeled"),
                         (correct, "uniformly-anisotropic")):
        with pytest.raises(harness.HarnessError, match=r"\[stage:config\]") as exc:
            with_mode(config, mode)
        assert exc.value.stage == "config"
        assert repr(mode) in str(exc.value) and repr(config.mode) in str(exc.value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(harness.isotropic_correct_variant(tiny_config).to_dict()))
    rc = cli.main(["verify", "--suite", "locality", "--config", str(cfg_path),
                   "--out", str(tmp_path / "loc")])
    assert rc == 2 and "[stage:config]" in capsys.readouterr().err
    assert not (tmp_path / "loc").exists()
