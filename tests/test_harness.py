import dataclasses
import hashlib
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from anisoeit import cli, geometry, harness
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
    "negative seed": (lambda d: d["noise"].update(seed=-3),
                      "noise.seed must be an integer >= 0, got -3"),
    "negative seed without noise": (lambda d: d["noise"].update(seed=-3, fraction=0.0),
                                    "noise.seed must be an integer >= 0, got -3"),
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
    "empty iteration budget": (lambda d: d["gn"].update(max_inner=0),
                               "gn.max_inner must be an integer >= 1, got 0"),
    "no barrier stages": (lambda d: d["schedule"].update(stages=0),
                          "schedule: schedule must be a nonempty 1-d sequence"),
    "negative barrier start": (lambda d: d["schedule"].update(xi_start=-1.0),
                               "schedule: need start > end > 0"),
    "increasing barrier": (lambda d: d["schedule"].update(xi_start=d["schedule"]["xi_end"] / 10),
                           "schedule: need start > end > 0"),
    "negative noise fraction": (lambda d: d["noise"].update(fraction=-0.1),
                                "noise.fraction must lie in [0, 1), got -0.1"),
    "noise fraction above one": (lambda d: d["noise"].update(fraction=1.5),
                                 "noise.fraction must lie in [0, 1), got 1.5"),
    "overflowing noise fraction": (lambda d: d["noise"].update(fraction=1e300),
                                   "noise.fraction must lie in [0, 1), got 1e+300"),
    "vanishing inclusion radius": (lambda d: d["phantom"]["inclusions"][0].update(radius=1e-300),
                                   "phantom.inclusions.radius must lie in"),
    "overflowing amplitude": (lambda d: d["phantom"]["inclusions"][0].update(amplitude=1e300),
                              "phantom.inclusions.amplitude bound the conductivity by 1e+300"),
    "overflowing semi-axis": (lambda d: d["true_domain"].update(
        kind="ellipse", params={"a": 1e300, "b": 0.8}), "true_domain: ellipse param 'a' must lie"),
    "vanishing semi-axis": (lambda d: d["true_domain"].update(
        kind="ellipse", params={"a": 1e-300, "b": 0.8}), "true_domain: ellipse param 'a' must lie"),
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


def test_cli_rejects_negative_seed(tmp_path, capsys):
    """`--seed -1` fails at the config stage, naming the key, before any
    simulation."""
    argv = ["simulate", "--case", "case1_ellipse", "--seed", "-1", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "[stage:config]" in err and "noise.seed" in err
    assert not any(tmp_path.iterdir())


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


def test_phantom_box_test_keeps_every_value():
    """Squaring only the offsets inside each bump's bounding box gives every
    value bitwise as squaring them all does."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, (4000, 2))
    incs = tuple(Inclusion(tuple(rng.uniform(-1, 1, 2)), float(r), float(a))
                 for r, a in zip(rng.uniform(0.05, 0.8, 6), rng.uniform(-0.5, 2.0, 6)))
    expected = np.full(len(pts), 1.5)
    for inc in incs:
        d2 = (pts[:, 0] - inc.center[0]) ** 2 + (pts[:, 1] - inc.center[1]) ** 2
        inside = d2 < inc.radius ** 2
        expected[inside] += inc.amplitude * (1.0 - d2[inside] / inc.radius ** 2) ** 3
    assert np.array_equal(Phantom(1.5, incs).evaluate(pts), expected)


# --- metrics ---------------------------------------------------------------------

def test_locality_fraction_point_mass(small_disk_mesh):
    delta = np.zeros(small_disk_mesh.n_elements)
    delta[10] = 1.0
    frac, peak = locality_fraction(delta, small_disk_mesh)
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


@pytest.mark.parametrize("extra", [7, -3])
def test_export_rejects_values_not_one_per_element(small_disk_mesh, tmp_path, extra):
    """Too many or too few values raise before any file is written,
    naming the first element without exactly one value."""
    T = small_disk_mesh.n_elements
    vals = np.ones(T + extra)
    bad = rf"\[stage:export\] {T + extra} values for {T} elements: " + (
        f"value {T} has no element" if extra > 0 else f"element {T + extra} has no value")
    with pytest.raises(harness.HarnessError, match=bad):
        rasterize(vals, small_disk_mesh)
    with pytest.raises(harness.HarnessError, match=bad):
        export_field_image(vals, small_disk_mesh, tmp_path / "f")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_export_rejects_non_finite_values(small_disk_mesh, tmp_path, value):
    vals = np.ones(small_disk_mesh.n_elements)
    vals[[17, 40]] = value
    bad = rf"\[stage:export\] element 17 has non-finite value {value}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(harness.HarnessError, match=bad):
            rasterize(vals, small_disk_mesh)
        with pytest.raises(harness.HarnessError, match=bad):
            export_field_image(vals, small_disk_mesh, tmp_path / "f")
    assert not list(tmp_path.iterdir())


def test_raster_map_is_painted_once_per_resolution(small_disk_mesh, monkeypatch):
    mesh = dataclasses.replace(small_disk_mesh)      # a mesh with nothing cached yet
    painted = []
    paint_cells = geometry.paint_cells
    monkeypatch.setattr(geometry, "paint_cells",
                        lambda m, r: painted.append(r) or paint_cells(m, r))
    vals = np.arange(mesh.n_elements, dtype=float)
    first = rasterize(vals, mesh)
    for resolution in (256, np.int64(256), 37, 37):
        rasterize(-vals, mesh, resolution)
    assert painted == [256, 37]
    assert np.array_equal(rasterize(vals, mesh), first, equal_nan=True)
    with pytest.raises(ValueError, match="read-only"):
        mesh.raster_map(256)[0] = 0


def test_rasterize_peak_memory():
    """Painting the 256 x 256 map of the case1 recon mesh traces a peak
    below 5 MiB: pairs are tested in small blocks, not all cell centers
    against their binned candidates at once."""
    mesh = dataclasses.replace(harness.build_scene(builtin_configs()["case1_ellipse"]).mesh_recon)
    vals = np.ones(mesh.n_elements)
    tracemalloc.start()
    try:
        rasterize(vals, mesh, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_boundary_artifact_energy_matches_the_unbounded_query(disk_curve, disk_mesh):
    """The KD-tree query bounded at the band width selects the band of the
    unbounded query, so the energy fraction is bitwise the same."""
    lat = geometry.build_pixel_lattice(disk_mesh, 200)
    vals = np.random.default_rng(5).uniform(0.5, 2.0, lat.n_active)
    v = vals[lat.element_to_pixel]
    A = disk_mesh.areas()
    energy = A * (v - float(np.sum(v * A) / A.sum())) ** 2
    dense = disk_curve.point_at(np.linspace(0, disk_curve.total_length, 4096, endpoint=False))
    dist = cKDTree(dense).query(disk_mesh.centroids())[0]
    band = energy[dist < harness._ARTIFACT_WIDTH].sum() / energy.sum()
    assert 0 < band < 1
    assert boundary_artifact_energy(vals, lat, disk_mesh, disk_curve) == band


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


# sha256 of every file but the report that run_experiment writes for case1,
# by mode and by the name after the run tag; the same at one and at two BLAS
# threads.  A change that moves an output updates these and records why.
_SHARED_CASE1_FILES = {
    "data.csv": "93c278858276cf2000e1b4b37c900c054bf5bae44adf3fa80075d2d04cdb66f6",
    "mesh_sim.json": "081b5e0e98743c888c6bc92498b866daa7899f9115de53430e29bc6aff634283",
    "mesh_recon.json": "492b4dcb54dd9b0f9cc5c59f2bdb29750b639527a25488b502fbcf473a3cdccc",
}
PINNED_CASE1_FILES = {
    "uniformly-anisotropic": dict(
        _SHARED_CASE1_FILES,
        **{"recon.csv": "085801dd8ab2325ada13515d37661bf797252a153bd0f77539fc3c051e7fe88c",
           "run_log.json": "afe5a35aa2bd5fd6f95fa3b3f1af101a5c776a59b3f1c1253fef92d0ff766004",
           "eta.csv": "ab07cc9ae5ed2b336ca586f3b0d82aa8327b4f73494b13b96d9213ce7e89f8fc",
           "eta.pgm": "16f7f10f376844374c869eea46bba0d68f9111f479f4706ff5d13acd1a6d287b",
           "theta.csv": "0227cbf24744f93a8583c6def64130880302be7af8a1b7e004964590c13a993c",
           "theta.pgm": "4dcf3dac7ad904b1162e1d1d2a7e7163f93fce964218f2ad496df5c0c7d3e587"}),
    "isotropic-mismodeled": dict(
        _SHARED_CASE1_FILES,
        **{"recon.csv": "c4e5ce77f99d5959491c2384f57356ea8bcd0a29dd4595914c01c4bcc0cc9216",
           "run_log.json": "d1b236b354e6c46d0a817eb77c963a4fb3a4aab5659e56a98f96b979c852a7fd",
           "gamma.csv": "d4b1c43919c84ff60e5666186a24099cb4c7f9a4df6c4c212fa5b5b9084bbae2",
           "gamma.pgm": "8930a43ff30a2af655fdcd62d8177b4eeb433c077afd851c4d0c74eed1b928fa"}),
}


# the same for case2 in the main mode, the built-in run that escalates the
# GN damping most (224 escalations in 52 iterations)
PINNED_CASE2_ANISO_FILES = {
    "data.csv": "6617ec314cd86d0bd79c4ab350c2b30cfda8bcbcad67341db9bd99ded4d1cf1c",
    "mesh_sim.json": "8fb9aa0c91e5ec31d23a6a0da90663d960a6a933d978d7088d22633857afa14a",
    "mesh_recon.json": "cdc1ba2ccca281b7663d2d75d3550596e54fccfd3f98aaad082a78dff419077c",
    "recon.csv": "3853024929c1f2fa846878c2b5eaf72f09f0dadd2e91805d81ec8f7ae56d8d69",
    "run_log.json": "4b51d8311ab63c81ff32fa260bd25e5c2f86053272d561c345d011304b1076ae",
    "eta.csv": "49c029171638e1b2b0e45fb9b58eb6fabaf2b662f315eeec7a32d15696cd59f3",
    "eta.pgm": "73139a465512e4def62452c06e6ac8b9c7e62ba8acec8a0d9f9fb0a0de8c21d2",
    "theta.csv": "54d9046f637cb449b976606b9f5f4fe38f56159d4fe3c558b40dfcf7574366f5",
    "theta.pgm": "081fb0e689e80b737623f7bfbc80e09c02525f311a6cf2d6bfe43a84f00baa78",
}
# run id -> (case, mode, pinned digests); a case1 run is named by its mode
PINNED_RUNS = {mode: ("case1_ellipse", mode, files) for mode, files in PINNED_CASE1_FILES.items()}
PINNED_RUNS["case2-uniformly-anisotropic"] = (
    "case2_truncated_ellipse", "uniformly-anisotropic", PINNED_CASE2_ANISO_FILES)


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_case1_exports_match_pinned_digests(run, tmp_path):
    case, mode, pinned = PINNED_RUNS[run]
    config = with_mode(builtin_configs()[case], mode)
    report = run_experiment(config, tmp_path)
    assert report.success, report.message
    tag = f"{config.name}-{mode}_"
    digests = {p.name.removeprefix(tag): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if not p.name.startswith("report_")}
    assert digests == pinned


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


def test_overflowing_misfit_fails_the_reconstruct_stage(tmp_path):
    """A contact impedance of 1e300 leaves the data finite, but the node
    block of the reconstruction's CEM system is then singular to working
    precision: the run fails in its reconstruct stage, naming the band
    Cholesky pivot, instead of ending as a success with an infinite misfit."""
    config = dataclasses.replace(builtin_configs()["case1_ellipse"], sim_elements=600,
                                 recon_elements=500, pixels=60, contact_impedance=1e300)
    report = run_experiment(config, tmp_path)
    assert not report.success and report.stage == "reconstruct"
    assert "band Cholesky pivot" in report.message


def numbers(value):
    """Every number in a nested metrics record, booleans excluded."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in numbers(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in numbers(v)]
    return [] if isinstance(value, (bool, str)) or value is None else [float(value)]


def test_far_inclusion_centre_succeeds(tmp_path):
    """An inclusion centred at (1e300, 0) adds nothing to the phantom: no
    offset is squared unless it is below the radius, and the centroid error
    is formed at a power-of-two scale.  So the run succeeds, with every
    metric finite and no overflow warning."""
    config = builtin_configs()["case1_ellipse"]
    far = dataclasses.replace(config.phantom.inclusions[0], center=(1e300, 0.0))
    config = dataclasses.replace(config, sim_elements=600, recon_elements=500, pixels=60,
                                 phantom=Phantom(config.phantom.background,
                                                 (far,) + config.phantom.inclusions[1:]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_experiment(config, tmp_path)
    assert report.success, report.message
    assert np.all(np.isfinite(numbers(report.metrics)))


def test_huge_nu_reconstructs(tiny_config, tmp_path):
    """nu = 1e300 makes the quadratic log-lam penalty vanish; it is formed
    without squaring nu, whose square overflows, so the run succeeds."""
    weights = dataclasses.replace(tiny_config.weights, beta2=0.1, nu=1e300)
    report = run_experiment(dataclasses.replace(tiny_config, weights=weights), tmp_path)
    assert report.success, report.message


def test_thin_true_domain_fails_the_geometry_stage(tiny_config, tmp_path):
    """A true ellipse 2e-20 wide fails in the geometry stage with a message
    naming its width, not with Qhull's "initial simplex is flat" dump."""
    thin = dataclasses.replace(tiny_config,
                               true_domain=DomainSpec("ellipse", {"a": 1e-20, "b": 0.8}))
    report = run_experiment(thin, tmp_path)
    assert not report.success and report.stage == "geometry"
    assert "QH6154" not in report.message
    assert "the domain is 2e-20 wide, too thin to triangulate" in report.message


def test_model_coverage_error_names_the_config_key(tiny_config, tmp_path):
    """Electrodes carried over from a true perimeter longer than the model's
    over the coverage do not fit on the model domain: the geometry stage
    names protocol.coverage and both perimeters, not a coverage the config
    never set."""
    from anisoeit.geometry import build_boundary
    config = dataclasses.replace(tiny_config,
                                 true_domain=DomainSpec("ellipse", {"a": 5.0, "b": 0.8}))
    report = run_experiment(config, tmp_path)
    assert not report.success and report.stage == "geometry"
    assert "protocol.coverage 0.5 " in report.message
    for domain in (config.true_domain, config.model_domain):
        perimeter = build_boundary(domain, config.boundary_samples).total_length
        assert f"{perimeter:.6g}" in report.message
    assert "strictly between" not in report.message


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


@pytest.mark.parametrize("text, problem", [
    ("{not json", "is not JSON"),
    ("[1, 2]", "is not a JSON object"),
    ('{"mode": "uniformly-anisotropic", "success": true}', "has no 'run_id'"),
    ('{"run_id": "b", "mode": "uniformly-anisotropic", "success": "no"}',
     "has 'success' 'no', not a boolean"),
    ('{"run_id": "b", "mode": "uniformly-anisotropic", "success": true, "metrics": []}',
     "has 'metrics' that is not a JSON object"),
])
def test_report_rejects_bad_report_files(tmp_path, capsys, text, problem):
    """A bad report file is named in one [stage:report] line and exit 2."""
    (tmp_path / "ok").mkdir()
    (tmp_path / "ok" / "report_a.json").write_text(
        '{"run_id": "a", "mode": "uniformly-anisotropic", "success": true}')
    bad = tmp_path / "report_b.json"
    bad.write_text(text)
    with pytest.raises(harness.HarnessError, match=problem) as exc:
        harness.aggregate_reports(tmp_path)
    assert exc.value.stage == "report" and str(bad) in str(exc.value)
    assert cli.main(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("[stage:report]") and str(bad) in err[0]


def test_report_rejects_a_missing_directory(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert cli.main(["report", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"[stage:report] no directory {missing}\n"
    (tmp_path / "empty").mkdir()
    assert cli.main(["report", "--out", str(tmp_path / "empty")]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


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


def test_cli_failure_lines_carry_one_stage_tag(tiny_config, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.replace(tiny_config, pixels=100_000).to_dict()))
    rc = cli.main(["verify", "--suite", "locality", "--config", str(cfg_path),
                   "--out", str(tmp_path / "loc")])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("[stage:") == 1 and err.startswith("[stage:geometry] ")

    def exploded(*args):
        raise RuntimeError("export exploded")

    monkeypatch.setattr(harness, "_measure_and_export", exploded)
    cfg_path.write_text(json.dumps(tiny_config.to_dict()))
    rc = cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path / "rec")])
    assert rc == 2 and capsys.readouterr().err == "[stage:metrics] export exploded\n"
