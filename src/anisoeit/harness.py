"""Config-driven experiments: simulate on the true domain, reconstruct on
the model domain, verify the invariance and locality properties, export
fields and reports.

Every run is reproducible from its config alone: all randomness flows from
the single config seed, and the config hash (canonical JSON, SHA-256)
stamps each report.  Data is always simulated on a mesh distinct from the
reconstruction mesh unless the inverse-crime flag is set explicitly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from anisoeit import fem
from anisoeit.geometry import (NORMAL_SQUARE, BoundaryCurve, DomainSpec, ElectrodeLayout, Mesh,
                               PixelLattice, build_boundary, build_pixel_lattice,
                               place_electrodes, triangulate, _integer)
from anisoeit.inverse import (ANISOTROPIC, BarrierSchedule, GNSettings, ReconState,
                              RegWeights, gauss_newton_reconstruct, isotropic_reconstruct,
                              recon_state_to_csv, run_log_to_json)
from anisoeit.tensors import (Diffeo, TensorField, det_sqrt, gamma_hat, push_forward_function,
                              scalar_field_to_csv)


class HarnessError(RuntimeError):
    """Stage-tagged experiment failure."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage:{stage}] {message}")
        self.stage = stage


@contextlib.contextmanager
def _stage(stage: str, context: str = ""):
    """Re-raise any failure in the block as HarnessError(stage), its message
    prefixed by `context`; a HarnessError passes through unchanged."""
    try:
        yield
    except HarnessError:
        raise
    except Exception as exc:
        raise HarnessError(stage, f"{context}{exc}") from exc


MODES = ("isotropic-correct", "isotropic-mismodeled", "uniformly-anisotropic")


@dataclass(frozen=True)
class Inclusion:
    center: tuple
    radius: float
    amplitude: float

    def __post_init__(self):
        if len(self.center) != 2 or not self.radius > 0:
            raise HarnessError("config", f"an inclusion needs a 2-D center and a positive "
                                         f"radius, got {self.center} and {self.radius}")
        lo, hi = NORMAL_SQUARE
        if not lo <= self.radius <= hi:
            raise HarnessError("config", f"phantom.inclusions.radius must lie in "
                                         f"[{lo:.3g}, {hi:.3g}], where its square is a normal "
                                         f"float, got {self.radius!r}")


@dataclass(frozen=True)
class Phantom:
    """Smooth ground truth: background plus C2 bump inclusions."""

    background: float = 1.0
    inclusions: tuple = ()

    def __post_init__(self):
        # bumps lie in [0, 1], so this bounds the conductivity, whose square
        # the tensor determinant forms
        bound = abs(self.background) + sum(abs(inc.amplitude) for inc in self.inclusions)
        if not bound <= NORMAL_SQUARE[1]:
            raise HarnessError("config", f"phantom.background and phantom.inclusions.amplitude "
                                         f"bound the conductivity by {bound:.3g}, whose square "
                                         f"overflows (the bound must not exceed "
                                         f"{NORMAL_SQUARE[1]:.3g})")

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        v = np.full(len(pts), float(self.background))
        for inc in self.inclusions:
            r, r2 = inc.radius, inc.radius ** 2
            # only points inside the bump's bounding box: a far centre would
            # overflow the squares, and a point outside the box has d2 >= r2
            box = np.flatnonzero((np.abs(pts[:, 0] - inc.center[0]) < r)
                                 & (np.abs(pts[:, 1] - inc.center[1]) < r))
            d2 = (pts[box, 0] - inc.center[0]) ** 2 + (pts[box, 1] - inc.center[1]) ** 2
            inside = d2 < r2
            v[box[inside]] += inc.amplitude * (1.0 - d2[inside] / r2) ** 3
        return v


# The JSON sections holding scalar ExperimentConfig fields: key -> field.
_SECTIONS = {
    "protocol": {"n_electrodes": "n_electrodes", "coverage": "coverage",
                 "contact_impedance": "contact_impedance"},
    "noise": {"fraction": "noise_fraction", "seed": "seed"},
    "schedule": {"xi_start": "xi_start", "xi_end": "xi_end", "stages": "xi_stages"},
    "mesh": {k: k for k in ("sim_elements", "recon_elements", "pixels", "boundary_samples")},
    "gn": {"max_iterations": "max_iterations", "max_inner": "max_inner"},
}
# all top-level keys in file order; "weights" holds the RegWeights fields
_TOP_KEYS = ("name", "true_domain", "model_domain", "phantom", "mode", "protocol", "noise",
             "weights", "schedule", "mesh", "gn", "notes")
_INCLUSION_KEYS = ("center", "radius", "amplitude")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    true_domain: DomainSpec
    model_domain: DomainSpec
    phantom: Phantom
    mode: str = "uniformly-anisotropic"
    n_electrodes: int = 16
    coverage: float = 0.5
    contact_impedance: float = 1.0
    noise_fraction: float = 0.01
    seed: int = 7
    weights: RegWeights = RegWeights(alpha0=1e-8, alpha1=1e-4, beta0=1e-8, beta1=5e-6)
    xi_start: float = 1e-5
    xi_end: float = 1e-12
    xi_stages: int = 8
    sim_elements: int = 2350
    recon_elements: int = 2190
    pixels: int = 437
    boundary_samples: int = 2048
    max_iterations: int = 60
    max_inner: int = 10
    notes: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise HarnessError("config", f"unknown mode {self.mode!r}")
        if not 0 <= self.noise_fraction < 1:
            raise HarnessError("config", f"noise.fraction must lie in [0, 1), "
                                         f"got {self.noise_fraction!r}")
        if not (_integer(self.seed) and self.seed >= 0):
            raise HarnessError("config", f"noise.seed must be an integer >= 0, got {self.seed!r}")
        with _stage("config", "gn."):  # GNSettings names the field
            self.settings()
        with _stage("config", "schedule: "):
            self.schedule()

    def schedule(self) -> BarrierSchedule:
        if self.xi_start == 0 and self.xi_end == 0:
            return BarrierSchedule.inactive(self.xi_stages)
        return BarrierSchedule.geometric(self.xi_start, self.xi_end, self.xi_stages)

    def settings(self) -> GNSettings:
        return GNSettings(max_iterations=self.max_iterations, max_inner=self.max_inner)

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "true_domain": {"kind": self.true_domain.kind, "params": self.true_domain.params},
            "model_domain": {"kind": self.model_domain.kind, "params": self.model_domain.params},
            "phantom": {
                "background": self.phantom.background,
                "inclusions": [
                    {"center": list(i.center), "radius": i.radius, "amplitude": i.amplitude}
                    for i in self.phantom.inclusions],
            },
            "mode": self.mode,
            "weights": dataclasses.asdict(self.weights),
            "notes": self.notes,
        }
        for section, keys in _SECTIONS.items():
            doc[section] = {key: getattr(self, name) for key, name in keys.items()}
        return {key: doc[key] for key in _TOP_KEYS}

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """Inverse of `to_dict`; whatever the document leaves out takes the
        dataclass defaults.  An unknown section or key, a missing `name` or
        domain `kind`, or an invalid value raises HarnessError("config", ...)
        naming the key."""
        _config_part(doc, "", _TOP_KEYS, ("name", "true_domain", "model_domain"))
        kw = {key: doc[key] for key in ("name", "mode", "notes") if key in doc}
        for key in ("true_domain", "model_domain"):
            with _stage("config", f"{key}: "):
                kw[key] = DomainSpec(**_config_part(doc[key], f"{key}.", ("kind", "params"),
                                                    ("kind",)))
        ph = _config_part(doc.get("phantom", {}), "phantom.", ("background", "inclusions"))
        with _stage("config", "phantom: "):
            incs = [_config_part(i, "phantom.inclusions.", _INCLUSION_KEYS, _INCLUSION_KEYS)
                    for i in ph.get("inclusions", [])]
            kw["phantom"] = Phantom(
                background=_number(ph.get("background", Phantom.background), float),
                inclusions=tuple(Inclusion(_center(i["center"]), _number(i["radius"], float),
                                           _number(i["amplitude"], float)) for i in incs))
        for section, keys in _SECTIONS.items():
            for key, value in _config_part(doc.get(section, {}), f"{section}.", keys).items():
                with _stage("config", f"{section}.{key}: "):
                    kw[keys[key]] = _number(value, type(getattr(ExperimentConfig, keys[key])))
        weights = _config_part(doc.get("weights", {}), "weights.",
                               [f.name for f in dataclasses.fields(RegWeights)])
        with _stage("config", "weights: "):
            kw["weights"] = dataclasses.replace(
                ExperimentConfig.weights, **{k: _number(v, float) for k, v in weights.items()})
        return ExperimentConfig(**kw)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _config_part(part, path: str, keys, required=()) -> dict:
    """`part` checked to be a JSON object with keys among `keys`, holding all
    of `required`; `path` prefixes the key names in the error messages."""
    if not isinstance(part, dict):
        raise HarnessError("config", f"{path.rstrip('.') or 'config'} must be a JSON object")
    for key in part:
        if key not in keys:
            raise HarnessError("config", f"unknown config key {path}{key}")
    for key in required:
        if key not in part:
            raise HarnessError("config", f"missing config key {path}{key}")
    return part


def _number(value, kind: type):
    """A JSON number as the int or float `kind` of its config field, never
    cast: not a boolean, finite, and whole for an int."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (kind is int and value != int(value))):
        raise ValueError(f"expected {'an integer' if kind is int else 'a finite number'}, "
                         f"got {value!r}")
    return kind(value)


def _center(value) -> tuple:
    """An inclusion center: two coordinates, each checked by `_number` but
    kept uncast, so the canonical JSON (and the config hash) keeps the
    given types."""
    with _stage("config", "phantom.inclusions.center: "):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"expected two coordinates, got {value!r}")
        for coordinate in value:
            _number(coordinate, float)
    return tuple(value)


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError("config", f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def builtin_configs() -> dict:
    """The three benchmark test cases; cut position and fourier
    coefficients are local defaults, overridable through the domain params."""
    case1 = ExperimentConfig(
        name="case1_ellipse",
        true_domain=DomainSpec("ellipse", {"a": 1.25, "b": 0.8}),
        model_domain=DomainSpec("disk", {}),
        phantom=Phantom(background=1.0, inclusions=(
            Inclusion(center=(0.55, 0.2), radius=0.25, amplitude=1.0),
            Inclusion(center=(-0.5, -0.2), radius=0.25, amplitude=-0.5))),
        sim_elements=2350, recon_elements=2190, pixels=437)
    case2 = ExperimentConfig(
        name="case2_truncated_ellipse",
        true_domain=DomainSpec("truncated_ellipse", {"a": 1.1, "b": 0.9}),
        model_domain=DomainSpec("disk", {}),
        phantom=Phantom(background=1.0, inclusions=(
            Inclusion(center=(0.35, 0.25), radius=0.25, amplitude=1.0),
            Inclusion(center=(-0.2, -0.3), radius=0.25, amplitude=-0.5))),
        sim_elements=2383, recon_elements=2190, pixels=437,
        max_iterations=100, max_inner=15,
        notes="cut position and corner rounding are local defaults; "
              "the sharper deformation needs the larger iteration budget")
    case3 = ExperimentConfig(
        name="case3_fourier",
        true_domain=DomainSpec("fourier", {"cos": [0.0, 0.12, 0.05], "sin": [-0.04]}),
        model_domain=DomainSpec("disk", {}),
        phantom=Phantom(background=1.0, inclusions=(
            Inclusion(center=(0.4, 0.25), radius=0.25, amplitude=1.0),
            Inclusion(center=(-0.35, -0.3), radius=0.25, amplitude=-0.5))),
        sim_elements=2316, recon_elements=2190, pixels=437,
        weights=RegWeights(alpha0=1e-8, alpha1=1e-5, beta0=1e-8, beta1=5e-6, beta2=0.0),
        notes="fourier boundary coefficients are local defaults")
    return {c.name: c for c in (case1, case2, case3)}


# Isotropic baselines per mode: the fields all cases take and the per-case ones,
# by ExperimentConfig field name except "alpha1", the eta smoothness weight.
_ISO_BASELINES = {
    "isotropic-mismodeled": ({}, {
        "case1_ellipse": dict(alpha1=2e-4, xi_start=2e-5, xi_end=5e-6, xi_stages=4),
        "case2_truncated_ellipse": dict(alpha1=1e-4, xi_start=1e-5, xi_end=1e-8, xi_stages=4),
        "case3_fourier": dict(alpha1=2e-4, xi_start=2e-5, xi_end=5e-6, xi_stages=4),
    }),
    # with the interior-point search inactive
    "isotropic-correct": (dict(xi_start=0.0, xi_end=0.0, xi_stages=1), {
        "case1_ellipse": dict(recon_elements=2326, pixels=451, alpha1=1e-4),
        "case2_truncated_ellipse": dict(recon_elements=2337, pixels=455, alpha1=1e-4),
        "case3_fourier": dict(recon_elements=2200, pixels=446, alpha1=1e-5),
    }),
}


def with_mode(config: ExperimentConfig, mode: str) -> ExperimentConfig:
    """The config that `mode` runs for the case of `config`: `config` if it
    is in `mode` already, else the per-case isotropic baseline derived from a
    `uniformly-anisotropic` config; anything else raises HarnessError("config")."""
    if config.mode == mode:
        return config
    if mode not in _ISO_BASELINES or config.mode != "uniformly-anisotropic":
        raise HarnessError("config", f"cannot derive mode {mode!r} from a {config.mode!r} "
                                     "config; only a uniformly-anisotropic one has baselines")
    common, per_case = _ISO_BASELINES[mode]
    fields = {**common, **per_case.get(config.name, {})}
    weights = RegWeights(alpha0=config.weights.alpha0,
                         alpha1=fields.pop("alpha1", config.weights.alpha1))
    return dataclasses.replace(config, mode=mode, weights=weights, **fields)


def isotropic_mismodeled_variant(config: ExperimentConfig) -> ExperimentConfig:
    """Isotropic reconstruction on the (wrong) model domain with the
    per-case baseline weights and barrier schedules."""
    return with_mode(config, "isotropic-mismodeled")


def isotropic_correct_variant(config: ExperimentConfig) -> ExperimentConfig:
    """Isotropic reconstruction on the true domain (reference quality)."""
    return with_mode(config, "isotropic-correct")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

_ARTIFACT_WIDTH = 0.15     # boundary band of `boundary_artifact_energy`
_BLOB_FRACTION = 0.02      # size floor of `lattice_blobs`, in active pixels
_LOCALITY_RADIUS = 0.3     # disk of `locality_fraction` about the peak


def boundary_artifact_energy(values_per_pixel: np.ndarray, lattice: PixelLattice,
                             mesh: Mesh, curve: BoundaryCurve) -> float:
    """Fraction of area-weighted (v - mean)^2 energy within `_ARTIFACT_WIDTH`
    of the boundary."""
    v = values_per_pixel[lattice.element_to_pixel]
    A = mesh.areas()
    cent = mesh.centroids()
    mean = float(np.sum(v * A) / A.sum())
    energy = A * (v - mean) ** 2
    dense = curve.point_at(np.linspace(0, curve.total_length, 4096, endpoint=False))
    dist, _ = cKDTree(dense).query(cent, distance_upper_bound=_ARTIFACT_WIDTH)
    total = energy.sum()
    if total <= 0:
        return 0.0
    return float(energy[dist < _ARTIFACT_WIDTH].sum() / total)


def blob_analysis(img: np.ndarray, xy_of_cell, min_size: int = 2) -> list:
    """Connected high/low components of a masked image.

    Thresholds sit halfway between the mean and each extreme; components
    smaller than min_size pixels are noise and dropped.  Returns a list of
    (kind, centroid, size) with centroid weighted by |value - mean|.
    """
    inside = ~np.isnan(img)
    mean = float(np.nanmean(img))
    mx, mn = float(np.nanmax(img)), float(np.nanmin(img))
    out = []
    for kind, sel in (("high", img >= mean + 0.5 * (mx - mean)),
                      ("low", img <= mean - 0.5 * (mean - mn))):
        if (kind == "high" and mx <= mean) or (kind == "low" and mn >= mean):
            continue
        labels, n = ndimage.label(np.where(inside, sel, False))
        for k in range(1, n + 1):
            ys, xs = np.where(labels == k)
            if len(ys) < min_size:
                continue
            w = np.abs(img[ys, xs] - mean)
            pts = np.array([xy_of_cell(x, y) for x, y in zip(xs, ys)])
            centroid = (pts * w[:, None]).sum(axis=0) / w.sum()
            out.append((kind, centroid, int(len(ys))))
    return out


def lattice_blobs(values_per_pixel: np.ndarray, lattice: PixelLattice) -> list:
    """Blob analysis on the pixel lattice.

    The size floor is 2% of the active pixels: the smallest inclusion the
    experiments claim to resolve (radius 0.25 in a unit-scale domain)
    covers about that many, so smaller components are noise.
    """
    min_size = max(2, round(_BLOB_FRACTION * lattice.n_active))
    img = lattice.image(values_per_pixel)
    x0, y0, x1, y1 = lattice.bbox
    wx, wy = lattice.cell_size()

    def xy(ix, iy):
        return (x0 + (ix + 0.5) * wx, y0 + (iy + 0.5) * wy)

    return blob_analysis(img, xy, min_size=min_size)


def normalization_map(curve_true: BoundaryCurve, curve_model: BoundaryCurve):
    """Axis-aligned affine map of the true bounding box onto the model's.

    Stand-in for the (unknown) extremal deformation when judging where a
    true-domain feature should land on the model domain; for the ellipse to
    disk pair it is exactly (x/a, y/b)."""
    t0, t1 = curve_true.points.min(axis=0), curve_true.points.max(axis=0)
    m0, m1 = curve_model.points.min(axis=0), curve_model.points.max(axis=0)
    tc, mc = (t0 + t1) / 2, (m0 + m1) / 2
    scale = (m1 - m0) / (t1 - t0)

    def apply(pts):
        return (np.atleast_2d(pts) - tc) * scale + mc

    return apply


def _distance(a, b) -> float:
    """np.linalg.norm(a - b), formed at a power-of-two scale, which is exact,
    so that a far centre's square does not overflow."""
    d = np.asarray(a, dtype=float) - b
    _, e = np.frexp(np.abs(d).max())
    return float(np.ldexp(np.linalg.norm(np.ldexp(d, -e)), e))


def centroid_errors(blobs: list, phantom: Phantom, mapping) -> dict:
    """Distance from each inclusion's mapped center to the matching blob."""
    errors = {}
    for inc in phantom.inclusions:
        kind = "high" if inc.amplitude > 0 else "low"
        target = mapping(np.array(inc.center))[0]
        cands = [b for b in blobs if b[0] == kind]
        if not cands:
            errors[f"{kind}@{inc.center}"] = float("inf")
            continue
        errors[f"{kind}@{inc.center}"] = min(_distance(c, target) for _, c, _ in cands)
    return errors


def lambda_plateau(trace) -> float:
    """Relative variation of the last three recorded lambda values."""
    tr = np.asarray(trace, dtype=float)
    if len(tr) < 3:
        return float("inf")
    return float(np.abs(tr[-3:] - tr[-1]).max() / max(abs(tr[-1]), 1e-300))


def locality_fraction(delta_per_element: np.ndarray, mesh: Mesh):
    """Energy fraction of a difference field inside the disk of radius
    `_LOCALITY_RADIUS` about its peak."""
    A = mesh.areas()
    cent = mesh.centroids()
    energy = A * delta_per_element ** 2
    total = energy.sum()
    if total <= 0:
        return 0.0, (float("nan"), float("nan"))
    peak = cent[int(np.argmax(np.abs(delta_per_element)))]
    frac = float(energy[np.linalg.norm(cent - peak, axis=1) <= _LOCALITY_RADIUS].sum() / total)
    return frac, (float(peak[0]), float(peak[1]))


# ---------------------------------------------------------------------------
# field image export
# ---------------------------------------------------------------------------

def rasterize(values_per_element: np.ndarray, mesh: Mesh, resolution: int = 256) -> np.ndarray:
    """Paint per-element values onto a regular grid; NaN outside the domain.

    Each cell takes the value of the element containing its center, read
    from `Mesh.raster_map`, which paints the cell -> element map per
    triangle once per (mesh, resolution) with the barycentric test of
    `locate_points` at tol 1e-12; on shared edges and vertices the
    highest-index element wins.  A `resolution` that is not a positive
    integer, or values that are not one finite number per element, raise
    HarnessError("export", ...).
    """
    if not _integer(resolution) or resolution < 1:
        raise HarnessError("export", f"resolution must be a positive integer, got {resolution!r}")
    values = np.asarray(values_per_element, dtype=float)
    T = mesh.n_elements
    if values.ndim != 1:
        raise HarnessError("export", f"values must be one per element, got shape {values.shape}")
    if len(values) != T:
        first = (f"value {T} has no element" if len(values) > T
                 else f"element {len(values)} has no value")
        raise HarnessError("export", f"{len(values)} values for {T} elements: {first}")
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise HarnessError("export", f"element {bad[0]} has non-finite value {values[bad[0]]}")
    elem = mesh.raster_map(resolution)
    return np.where(elem >= 0, values[elem], np.nan).reshape(resolution, resolution)


def write_pgm(img: np.ndarray, path) -> None:
    """8-bit binary PGM: data scaled to 1..255, background 0, constants mid-gray."""
    inside = ~np.isnan(img)
    out = np.zeros(img.shape, dtype=np.uint8)
    if inside.any():
        mn, mx = np.nanmin(img), np.nanmax(img)
        if mx > mn:
            out[inside] = (1 + np.round(254 * (img[inside] - mn) / (mx - mn))).astype(np.uint8)
        else:
            out[inside] = 128
    # raster rows written top-to-bottom
    flipped = out[::-1, :]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(flipped.tobytes())


def read_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    w, h = (int(v) for v in parts[1].split())
    arr = np.frombuffer(parts[3], dtype=np.uint8, count=w * h).reshape(h, w)
    return arr[::-1, :]


def export_field_image(values_per_element: np.ndarray, mesh: Mesh, base_path) -> tuple:
    """Write <base>.csv (exact element values) and <base>.pgm (raster).
    Values that are not one finite number per element raise
    HarnessError("export", ...) before anything is written."""
    img = rasterize(values_per_element, mesh)
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    pgm_path = base.with_suffix(".pgm")
    csv_path.write_text(scalar_field_to_csv(values_per_element))
    write_pgm(img, pgm_path)
    return csv_path, pgm_path


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    run_id: str
    config_hash: str
    mode: str
    success: bool
    metrics: dict
    manifest: list
    stage: Optional[str] = None
    message: str = ""

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=1, default=_json_default)

    def save(self, out: Path) -> "RunReport":
        """Write report_<run_id>.json under `out` and list it in the manifest."""
        path = out / f"report_{self.run_id}.json"
        path.write_text(self.to_json())
        self.manifest.append(str(path))
        return self


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


@dataclass
class Scene:
    """Geometry and data shared by the stages of one experiment."""

    curve_true: BoundaryCurve
    mesh_sim: Mesh
    curve_recon: BoundaryCurve
    layout_recon: ElectrodeLayout
    mesh_recon: Mesh
    lattice: PixelLattice
    protocol: fem.MeasurementProtocol
    data: fem.DataVector


def build_scene(config: ExperimentConfig, inverse_crime: bool = False) -> Scene:
    """Simulate data on the true domain and prepare the reconstruction stage.

    The reconstruction runs on the true curve and electrodes in the
    `isotropic-correct` mode and under an inverse crime (which reuses the
    simulation mesh and needs matching domains), and otherwise on the model
    domain.  There, electrode arc lengths are carried over from the true
    domain (the boundary modeling map is length preserving on the
    electrodes), so the model coverage differs slightly from the nominal
    fraction.
    """
    with _stage("geometry"):
        curve_true = build_boundary(config.true_domain, config.boundary_samples)
        layout_true = place_electrodes(curve_true, config.n_electrodes, config.coverage,
                                       contact_impedance=config.contact_impedance)
        mesh_sim = triangulate(curve_true, layout_true, config.sim_elements)

    with _stage("simulate"):
        protocol = fem.adjacent_protocol(config.n_electrodes)
        truth = config.phantom.evaluate(mesh_sim.centroids())
        data = fem.simulate_measurements(mesh_sim, TensorField.isotropic(truth), layout_true,
                                         protocol, config.noise_fraction, config.seed)

    with _stage("geometry"):
        if inverse_crime and config.true_domain != config.model_domain:
            raise ValueError("inverse-crime runs need matching true and model domains")
        if inverse_crime or config.mode == "isotropic-correct":
            curve_recon, layout_recon = curve_true, layout_true
        else:
            curve_recon = build_boundary(config.model_domain, config.boundary_samples)
            elec_len = config.coverage * curve_true.total_length / config.n_electrodes
            model_cov = elec_len * config.n_electrodes / curve_recon.total_length
            if not model_cov < 1.0:
                raise ValueError(
                    f"protocol.coverage {config.coverage!r} carries electrodes of total length "
                    f"{elec_len * config.n_electrodes:.6g} over from the true perimeter "
                    f"{curve_true.total_length:.6g}, which the model perimeter "
                    f"{curve_recon.total_length:.6g} cannot hold")
            layout_recon = place_electrodes(curve_recon, config.n_electrodes, model_cov,
                                            contact_impedance=config.contact_impedance)
        mesh_recon = (mesh_sim if inverse_crime
                      else triangulate(curve_recon, layout_recon, config.recon_elements))
        lattice = build_pixel_lattice(mesh_recon, config.pixels)

    return Scene(curve_true=curve_true, mesh_sim=mesh_sim, curve_recon=curve_recon,
                 layout_recon=layout_recon, mesh_recon=mesh_recon, lattice=lattice,
                 protocol=protocol, data=data)


def reconstruct_scene(config: ExperimentConfig, scene: Scene) -> ReconState:
    reconstruct = (gauss_newton_reconstruct if config.mode == "uniformly-anisotropic"
                   else isotropic_reconstruct)
    with _stage("reconstruct"):
        return reconstruct(scene.data, scene.protocol, scene.mesh_recon, scene.lattice,
                           scene.layout_recon, config.weights, config.schedule(),
                           config.settings())


def _saved_report(out_dir, run_id: str, config_hash: str, mode: str, stage: str,
                  body) -> RunReport:
    """Run `body(out) -> (metrics, files, failure)` and save its report as
    report_<run_id>.json under `out_dir`; an empty `failure` message means
    success.  Any exception becomes a failed report tagged with the stage of
    a HarnessError, or else with `stage`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        metrics, files, message = body(out)
        success, stage = not message, None
    except Exception as exc:
        metrics, files, message, success = {}, [], str(exc), False
        stage = exc.stage if isinstance(exc, HarnessError) else stage
    return RunReport(run_id=run_id, config_hash=config_hash, mode=mode, success=success,
                     metrics=metrics, manifest=[str(p) for p in files], stage=stage,
                     message=message).save(out)


def run_experiment(config: ExperimentConfig, out_dir, inverse_crime: bool = False) -> RunReport:
    """Full pipeline: simulate, reconstruct, measure, export.

    Returns a failure report tagged with the stage name instead of raising.
    """
    def body(out):
        t0 = time.time()
        scene = build_scene(config, inverse_crime=inverse_crime)
        state = reconstruct_scene(config, scene)
        metrics, files = _measure_and_export(config, scene, state, out)
        metrics["wall_time_s"] = time.time() - t0
        metrics["inverse_crime"] = inverse_crime
        return metrics, files, ""

    return _saved_report(out_dir, f"{config.name}-{config.mode}-{config.hash()[:8]}",
                         config.hash(), config.mode, "metrics", body)


def _measure_and_export(config: ExperimentConfig, scene: Scene, state: ReconState, out: Path):
    run_tag = f"{config.name}-{config.mode}"
    params = state.params
    eta = det_sqrt(gamma_hat(params, scene.lattice))  # per element; gamma in the isotropic mode
    images = ({"theta": params.theta[scene.lattice.element_to_pixel], "eta": eta}
              if state.mode == ANISOTROPIC else {"gamma": eta})
    texts = {"mesh_sim.json": scene.mesh_sim.to_json(),
             "mesh_recon.json": scene.mesh_recon.to_json(),
             "data.csv": fem.data_vector_to_csv(scene.data),
             "recon.csv": recon_state_to_csv(state),
             "run_log.json": run_log_to_json(state)}
    files = []
    for name, content in (*texts.items(), *images.items()):
        path = out / f"{run_tag}_{name}"
        if name in images:
            files += export_field_image(content, scene.mesh_recon, path)
        else:
            path.write_text(content)
            files.append(path)

    blobs = lattice_blobs(params.eta, scene.lattice)
    mapping = normalization_map(scene.curve_true, scene.curve_recon)
    errors = centroid_errors(blobs, config.phantom, mapping)
    metrics = {
        "converged": state.converged,
        "iterations": len(state.history),
        "stages": state.stages,
        "final_misfit": state.final_misfit,
        "initial_misfit": state.initial_misfit,
        "final_objective": state.final_objective,
        "lambda_final": params.lam,
        "lambda_trace": list(state.lambda_trace),
        "lambda_plateau": lambda_plateau(state.lambda_trace),
        "artifact_energy": boundary_artifact_energy(
            params.eta, scene.lattice, scene.mesh_recon, scene.curve_recon),
        "blob_count": len(blobs),
        "blobs": [{"kind": k, "centroid": [float(c[0]), float(c[1])], "size": s}
                  for k, c, s in blobs],
        "centroid_errors": errors,
        "mesh_sim": {"nodes": scene.mesh_sim.n_nodes, "elements": scene.mesh_sim.n_elements},
        "mesh_recon": {"nodes": scene.mesh_recon.n_nodes,
                       "elements": scene.mesh_recon.n_elements},
        "pixels": scene.lattice.n_active,
    }
    return metrics, files


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

# the mesh ladder and pass criteria of `verify_invariance`
_INVARIANCE_LEVELS = (550, 2200, 8800)
_INVARIANCE_THRESHOLD = 0.02
_INVARIANCE_MIN_FACTOR = 1.5


def verify_invariance(out_dir, c: float = 0.3) -> RunReport:
    """Boundary-preserving push-forward leaves clean electrode data invariant.

    Compares simulated data for an analytic isotropic conductivity against
    its push-forward under the radial map on the unit disk, over the mesh
    refinement ladder `_INVARIANCE_LEVELS`; the relative difference must
    fall below `_INVARIANCE_THRESHOLD` at the middle level and shrink by
    `_INVARIANCE_MIN_FACTOR` per refinement.
    """
    def body(out):
        curve = build_boundary(DomainSpec("disk", {}), 2048)
        layout = place_electrodes(curve, 16, 0.5)
        protocol = fem.adjacent_protocol(16)
        phantom = Phantom(background=1.0, inclusions=(
            Inclusion(center=(0.35, 0.15), radius=0.3, amplitude=1.0),
            Inclusion(center=(-0.3, -0.25), radius=0.3, amplitude=-0.5)))
        diffeo = Diffeo.radial_boundary_preserving(c)
        diffs = []
        elements = []
        for target in _INVARIANCE_LEVELS:
            mesh = triangulate(curve, layout, target)
            f_direct = TensorField.isotropic(phantom.evaluate(mesh.centroids()))
            f_pushed = push_forward_function(phantom.evaluate, diffeo, mesh)
            v1 = fem.predict(mesh, f_direct, layout, protocol)
            v2 = fem.predict(mesh, f_pushed, layout, protocol)
            diffs.append(float(np.linalg.norm(v1 - v2) / np.linalg.norm(v1)))
            elements.append(mesh.n_elements)
        factors = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1)]
        ok = (diffs[1] < _INVARIANCE_THRESHOLD
              and all(f >= _INVARIANCE_MIN_FACTOR for f in factors))
        metrics = {"c": c, "elements": elements, "relative_differences": diffs,
                   "refinement_factors": factors, "threshold": _INVARIANCE_THRESHOLD,
                   "min_factor": _INVARIANCE_MIN_FACTOR}
        return metrics, [], "" if ok else "non-monotone refinement trend or threshold exceeded"

    return _saved_report(out_dir, f"invariance-c{c}", "", "verify-invariance", "invariance", body)


def verify_locality(config: ExperimentConfig, perturbation: Inclusion, out_dir) -> RunReport:
    """Local conductivity perturbations stay local in the eta reconstruction.

    Reconstructs the config phantom and the phantom plus one inclusion
    (shared noise seed), in both the anisotropic and the mismodeled
    isotropic modes, and reports the energy fraction of each difference
    field inside a disk about its peak.  Both modes reconstruct from the
    same scene of each phantom.
    """
    aniso = with_mode(config, "uniformly-anisotropic")
    iso = with_mode(config, "isotropic-mismodeled")

    def body(out):
        pert_phantom = Phantom(background=config.phantom.background,
                               inclusions=config.phantom.inclusions + (perturbation,))
        scenes, states = {}, {}
        for tag, phantom in (("base", config.phantom), ("pert", pert_phantom)):
            scenes[tag] = build_scene(dataclasses.replace(aniso, phantom=phantom))
            for mode, cfg in (("aniso", aniso), ("iso", iso)):
                state = reconstruct_scene(cfg, scenes[tag])
                if not state.converged:
                    raise HarnessError("reconstruct", f"{mode}_{tag} did not converge")
                states[f"{mode}_{tag}"] = state

        lattice, mesh = scenes["base"].lattice, scenes["base"].mesh_recon

        def eta(key):  # per element, in either mode
            return det_sqrt(gamma_hat(states[key].params, lattice))

        frac_a, peak_a = locality_fraction(eta("aniso_pert") - eta("aniso_base"), mesh)
        frac_i, peak_i = locality_fraction(eta("iso_pert") - eta("iso_base"), mesh)

        base_eta = states["aniso_base"].params.eta
        rel_delta = float(np.linalg.norm(states["aniso_pert"].params.eta - base_eta)
                          / np.linalg.norm(base_eta))
        ok = frac_a >= 0.6 and frac_i < frac_a
        metrics = {
            "radius": _LOCALITY_RADIUS,
            "anisotropic_fraction": frac_a, "anisotropic_peak": peak_a,
            "isotropic_fraction": frac_i, "isotropic_peak": peak_i,
            "relative_eta_change": rel_delta,
            "perturbation": {"center": list(perturbation.center),
                             "radius": perturbation.radius,
                             "amplitude": perturbation.amplitude}}
        return metrics, [], "" if ok else "locality criterion not met"

    return _saved_report(out_dir, f"locality-{config.name}-{config.hash()[:8]}", config.hash(),
                         "verify-locality", "locality", body)


def aggregate_reports(directory) -> dict:
    """Collect report_*.json files under a directory into one summary.

    A directory that does not exist, or a report that is not a JSON object
    with ``run_id``, ``mode``, a boolean ``success`` and, if any, an object
    ``metrics``, raises HarnessError("report", ...) naming it."""
    directory = Path(directory)
    if not directory.is_dir():
        raise HarnessError("report", f"no directory {directory}")
    rows = []
    for path in sorted(directory.glob("**/report_*.json")):
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            raise HarnessError("report", f"{path} is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise HarnessError("report", f"{path} is not a JSON object")
        missing = [key for key in ("run_id", "mode", "success") if key not in doc]
        if missing:
            raise HarnessError("report", f"{path} has no {missing[0]!r}")
        if not isinstance(doc["success"], bool):
            raise HarnessError("report", f"{path} has 'success' {doc['success']!r}, not a boolean")
        if not isinstance(doc.get("metrics", {}), dict):
            raise HarnessError("report", f"{path} has 'metrics' that is not a JSON object")
        rows.append({
            "run_id": doc["run_id"], "mode": doc["mode"], "success": doc["success"],
            "stage": doc.get("stage"),
            "final_misfit": doc.get("metrics", {}).get("final_misfit"),
            "path": str(path),
        })
    return {"count": len(rows), "succeeded": sum(r["success"] for r in rows), "runs": rows}
