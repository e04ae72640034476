"""Test domains, electrode placement, triangulation and the pixel lattice.

All curves are sampled counterclockwise and carry a cumulative-chord
arclength coordinate.  Meshes are plain index arrays (P1-ready: nodes,
CCW triangles, tagged boundary edges) so the solver modules stay free of
any mesh-generator dependency.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import Delaunay, cKDTree


class GeometryError(ValueError):
    """Invalid domain specification or meshing failure."""


# ---------------------------------------------------------------------------
# domain specifications
# ---------------------------------------------------------------------------

# the params each kind reads
_KIND_PARAMS = {"disk": ("radius",), "ellipse": ("a", "b"),
                "truncated_ellipse": ("a", "b", "cut_frac", "round_frac"),
                "fourier": ("cos", "sin")}


def _finite(value) -> bool:
    """Whether `value` is a finite real number (not a boolean)."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and bool(np.isfinite(value)))


@dataclass(frozen=True)
class DomainSpec:
    """Parametric description of a simply connected test domain.

    Parameters
    ----------
    kind : str
        One of ``disk``, ``ellipse``, ``truncated_ellipse``, ``fourier``.
    params : dict
        disk: ``radius`` (default 1).
        ellipse: semi-axes ``a``, ``b``.
        truncated_ellipse: ``a``, ``b``, ``cut_frac`` (vertical chord at
        x = cut_frac * a, default -0.65), ``round_frac`` (corner rounding
        window as a fraction of perimeter, default 0.02).
        fourier: ``cos`` and ``sin`` coefficient lists for
        r(phi) = 1 + sum_k cos[k-1]*cos(k*phi) + sin[k-1]*sin(k*phi).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        """Accept only the params the kind reads, each a finite number (or,
        for ``cos`` and ``sin``, a list of them), without casting."""
        if self.kind not in _KIND_PARAMS:
            raise GeometryError(f"unknown domain kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise GeometryError(f"{self.kind} params must be a dict, got {self.params!r}")
        for key, value in self.params.items():
            if key not in _KIND_PARAMS[self.kind]:
                raise GeometryError(f"unknown {self.kind} param {key!r}; expected one of "
                                    f"{', '.join(_KIND_PARAMS[self.kind])}")
            if key in ("cos", "sin"):
                what = "a list of finite numbers"
                ok = isinstance(value, (list, tuple, np.ndarray)) and all(map(_finite, value))
            else:
                what, ok = "a finite number", _finite(value)
            if not ok:
                raise GeometryError(f"{self.kind} param {key!r} must be {what}, got {value!r}")
        p = self.params
        if not p.get("radius", 1.0) > 0:
            raise GeometryError("disk radius must be positive")
        if self.kind in ("ellipse", "truncated_ellipse"):
            if not (p.get("a", 0.0) > 0 and p.get("b", 0.0) > 0):
                raise GeometryError("ellipse semi-axes a and b must be given and positive")
        if not -1.0 < p.get("cut_frac", -0.65) < 1.0:
            raise GeometryError("cut_frac must lie in (-1, 1)")


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed boundary sampled CCW with cumulative-chord arclength.

    ``points[k]`` carries arclength ``s[k]``; the closing segment from the
    last sample back to ``points[0]`` is implicit.  ``total_length`` is the
    perimeter of the sampled polygon.
    """

    points: np.ndarray      # (n, 2)
    s: np.ndarray           # (n,), s[0] = 0, strictly increasing
    total_length: float

    def point_at(self, s):
        """Piecewise-linear point on the curve at arclength s (mod S)."""
        s = np.atleast_1d(np.asarray(s, dtype=float)) % self.total_length
        pts = np.vstack([self.points, self.points[:1]])
        knots = np.append(self.s, self.total_length)
        idx = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, len(self.s) - 1)
        seg = knots[idx + 1] - knots[idx]
        t = (s - knots[idx]) / np.where(seg > 0, seg, 1.0)
        out = pts[idx] * (1 - t[:, None]) + pts[idx + 1] * t[:, None]
        return out if out.shape[0] > 1 else out[0]

    def area(self) -> float:
        x, y = self.points[:, 0], self.points[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class ElectrodeLayout:
    """J disjoint boundary arcs with per-electrode contact impedance.

    ``arcs[j] = (start, length)`` in arclength coordinates; arcs may wrap
    past s = 0 (start is stored mod S).
    """

    J: int
    arcs: np.ndarray                 # (J, 2): start (mod S), length
    contact_impedances: np.ndarray   # (J,)
    total_length: float

    def contains_s(self, s: np.ndarray) -> np.ndarray:
        """Electrode index covering each arclength coordinate, -1 for gaps."""
        s = np.atleast_1d(np.asarray(s, dtype=float)) % self.total_length
        out = np.full(s.shape, -1, dtype=int)
        for j, (start, length) in enumerate(self.arcs):
            rel = (s - start) % self.total_length
            out[rel < length] = j
        return out


@dataclass(frozen=True)
class BoundaryEdge:
    nodes: tuple          # (a, b) ordered CCW along the loop
    s_interval: tuple     # (s0, s1) with s1 = s0 + segment length (may exceed S)
    electrode: Optional[int]


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation with tagged boundary edges."""

    nodes: np.ndarray          # (N, 2)
    triangles: np.ndarray      # (T, 3), CCW
    boundary_edges: tuple      # tuple of BoundaryEdge, ordered CCW

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def areas(self) -> np.ndarray:
        return 0.5 * _twice_areas(self.nodes, self.triangles)

    def centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)

    def boundary_polygon(self) -> np.ndarray:
        """Boundary loop vertices in CCW order."""
        return self.nodes[[e.nodes[0] for e in self.boundary_edges]]

    @functools.cached_property
    def cem_operator(self):
        """The geometry-only `anisoeit.fem.CEMOperator` of this mesh, built
        on first use and kept for every later conductivity."""
        from anisoeit.fem import CEMOperator  # fem imports this module
        return CEMOperator(self)

    def to_json(self) -> str:
        doc = {
            "nodes": self.nodes.tolist(),
            "triangles": self.triangles.tolist(),
            "electrode_edges": [
                {"nodes": [int(e.nodes[0]), int(e.nodes[1])], "electrode": int(e.electrode)}
                for e in self.boundary_edges if e.electrode is not None
            ],
        }
        return json.dumps(doc)


@dataclass(frozen=True)
class PixelLattice:
    """Regular pixel grid over the mesh bounding box.

    ``element_to_pixel`` maps every triangle to the active pixel whose cell
    contains its centroid (nearest active cell for boundary slivers whose
    containing cell center falls outside the domain).  Active pixels that no
    triangle references are pruned so every parameter is observable.
    """

    bbox: tuple                   # (x0, y0, x1, y1)
    grid_n: int                   # grid is grid_n x grid_n cells
    active_ij: np.ndarray         # (M, 2) integer cell coordinates (ix, iy)
    centers: np.ndarray           # (M, 2) active cell centers
    element_to_pixel: np.ndarray  # (T,)

    @property
    def n_active(self) -> int:
        return self.active_ij.shape[0]

    def cell_size(self) -> tuple:
        x0, y0, x1, y1 = self.bbox
        return (x1 - x0) / self.grid_n, (y1 - y0) / self.grid_n

    def neighbor_pairs(self) -> np.ndarray:
        """Unordered active-pixel pairs adjacent in the 4-neighborhood, as
        (k, right neighbor of k) then (k, upper neighbor of k) for each k."""
        index = np.pad(_cell_index(self.active_ij, self.grid_n), (0, 1), constant_values=-1)
        i, j = self.active_ij.T
        other = np.column_stack([index[i + 1, j], index[i, j + 1]]).ravel()
        return np.column_stack([np.repeat(np.arange(self.n_active), 2), other])[other >= 0]

    def image(self, values: np.ndarray) -> np.ndarray:
        """Paint per-pixel values onto a (grid_n, grid_n) array, NaN outside."""
        img = np.full((self.grid_n, self.grid_n), np.nan)
        img[self.active_ij[:, 1], self.active_ij[:, 0]] = values
        return img


def _cell_index(active_ij: np.ndarray, grid_n: int) -> np.ndarray:
    """(grid_n, grid_n) array holding the index of each active cell at
    [ix, iy], -1 at inactive cells."""
    index = np.full((grid_n, grid_n), -1, dtype=int)
    index[active_ij[:, 0], active_ij[:, 1]] = np.arange(len(active_ij))
    return index


# ---------------------------------------------------------------------------
# boundary curve construction
# ---------------------------------------------------------------------------

def _points_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    inside = np.zeros(len(pts), dtype=bool)
    # chunk over polygon edges to bound memory on fine curves.  The 4e6-
    # element chunk stays until the factor stops allocating per call
    # (ROADMAP item 4): with a smaller one, set-up no longer frees a block of
    # 30 MiB or more, glibc then trims the heap after every operation and each
    # SuperLU factorization faults its pages in afresh.
    step = max(1, int(4e6 // max(len(pts), 1)))
    # one float and two bool buffers per call; each chunk is formed in place
    # with the operations of a1 + (y - b1) (a2 - a1) / (b2 - b1) in order
    xi = np.empty((len(pts), min(step, len(poly))))
    cond, left = np.empty(xi.shape, dtype=bool), np.empty(xi.shape, dtype=bool)
    for k0 in range(0, len(poly), step):
        sl = slice(k0, k0 + step)
        a1, b1, a2, b2 = x1[sl], y1[sl], x2[sl], y2[sl]
        t, c, lt = xi[:, :len(a1)], cond[:, :len(a1)], left[:, :len(a1)]
        np.greater(b1, y[:, None], out=c)
        np.greater(b2, y[:, None], out=lt)
        np.not_equal(c, lt, out=c)
        np.subtract(y[:, None], b1, out=t)
        with np.errstate(divide="ignore", invalid="ignore"):
            t *= a2 - a1
            t /= b2 - b1
            t += a1
        np.less(x[:, None], t, out=lt)
        c &= lt
        inside ^= np.bitwise_xor.reduce(c, axis=1)
    return inside


def _cumulative_arclength(points: np.ndarray) -> tuple:
    closed = np.vstack([points, points[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    return s, float(seg.sum())


def _check_simple(points: np.ndarray) -> None:
    """Exact segment-intersection test of the closed polyline.

    Segment bounding boxes are binned on a uniform grid (cell size = median
    box extent); every pair of non-adjacent segments sharing a cell is
    tested for a proper crossing, so no pair whose boxes overlap is missed.
    """
    n = len(points)
    p, q = points, np.roll(points, -1, axis=0)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    cell, seg, _, _ = _bin_boxes(lo, hi, float(np.median((hi - lo).max(axis=1))))

    def cross(o, a, b):
        return (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])

    crossings = []
    # each binned segment meets every segment binned in its cell
    for entry, j in _candidate_pairs(cell, seg, cell):
        i = seg[entry]
        keep = (j - i > 1) & ~((i == 0) & (j == n - 1))
        i, j = i[keep], j[keep]
        d1 = cross(p[i], q[i], p[j])
        d2 = cross(p[i], q[i], q[j])
        d3 = cross(p[j], q[j], p[i])
        d4 = cross(p[j], q[j], q[i])
        crossing = ((d1 * d2) < 0) & ((d3 * d4) < 0)
        crossings += zip(i[crossing], j[crossing])
    if crossings:
        a, b = min(crossings)
        raise GeometryError(f"boundary curve self-intersects (segments {a} and {b})")


def _sharp_truncated_ellipse(a: float, b: float, cut_frac: float, n_dense: int) -> tuple:
    """Dense CCW polyline of an ellipse cut by the chord x = cut_frac*a.

    Returns (points, corner_param_indices) before corner rounding.
    """
    t0 = np.arccos(cut_frac)            # the arc t in [-t0, t0] is kept
    t = np.linspace(-t0, t0, n_dense)
    arc = np.column_stack([a * np.cos(t), b * np.sin(t)])
    y_top = b * np.sin(t0)
    n_chord = max(8, int(round(n_dense * (2 * y_top) / (a * 2 * t0))))
    ys = np.linspace(y_top, -y_top, n_chord + 1)[1:-1]
    chord = np.column_stack([np.full(ys.shape, cut_frac * a), ys])
    points = np.vstack([arc, chord])
    # corners sit at the arc/chord junctions: last arc sample and sample 0
    return points, (len(arc) - 1, 0)


def _round_corners(points: np.ndarray, corner_idx: tuple, window: float) -> np.ndarray:
    """Replace the polyline near each corner by a quadratic Bezier fillet."""
    s, S = _cumulative_arclength(points)
    curve = BoundaryCurve(points=points, s=s, total_length=S)
    out = points.copy()
    for ci in corner_idx:
        sc = s[ci % len(points)]
        lo, hi = sc - window, sc + window
        rel = (s - sc + S / 2) % S - S / 2
        mask = np.abs(rel) < window
        if mask.sum() < 2:
            continue
        # anchor points at the window ends, control point at the corner
        idx_sorted = np.argsort(rel[mask])
        sel = np.where(mask)[0][idx_sorted]
        p0, p2 = curve.point_at(lo), curve.point_at(hi)
        p1 = points[ci % len(points)]
        t = (rel[sel] + window) / (2 * window)
        bez = ((1 - t) ** 2)[:, None] * p0 + (2 * t * (1 - t))[:, None] * p1 + (t ** 2)[:, None] * p2
        out[sel] = bez
    return out


def _fourier_radius(cos_c: np.ndarray, sin_c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """r(t) = 1 + sum_k cos_c[k-1] cos(k t) + sin_c[k-1] sin(k t)."""
    r = np.ones_like(t)
    for k, c in enumerate(cos_c, start=1):
        r += c * np.cos(k * t)
    for k, c in enumerate(sin_c, start=1):
        r += c * np.sin(k * t)
    return r


def build_boundary(spec: DomainSpec, n_samples: int) -> BoundaryCurve:
    """Sample the boundary of a domain spec into a closed CCW polyline.

    Raises GeometryError for self-intersecting curves and for Fourier
    specs whose radius function is not strictly positive.
    """
    if n_samples < 64:
        raise GeometryError("n_samples must be at least 64")
    kind, p = spec.kind, spec.params

    if kind == "disk":
        r = float(p.get("radius", 1.0))
        t = np.linspace(0, 2 * np.pi, n_samples, endpoint=False)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    elif kind == "ellipse":
        a, b = float(p["a"]), float(p["b"])
        t = np.linspace(0, 2 * np.pi, n_samples, endpoint=False)
        pts = np.column_stack([a * np.cos(t), b * np.sin(t)])
    elif kind == "fourier":
        cos_c = np.asarray(p.get("cos", []), dtype=float)
        sin_c = np.asarray(p.get("sin", []), dtype=float)
        t = np.linspace(0, 2 * np.pi, n_samples, endpoint=False)
        r = _fourier_radius(cos_c, sin_c, t)
        # positivity checked on a finer grid than the requested sampling
        tf = np.linspace(0, 2 * np.pi, 8 * n_samples, endpoint=False)
        rf = _fourier_radius(cos_c, sin_c, tf)
        if rf.min() <= 0:
            raise GeometryError(
                f"fourier radius is nonpositive (min {rf.min():.4g} at phi={tf[rf.argmin()]:.4g})")
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    else:  # truncated_ellipse
        a, b = float(p["a"]), float(p["b"])
        cut = float(p.get("cut_frac", -0.65))
        round_frac = float(p.get("round_frac", 0.02))
        dense, corners = _sharp_truncated_ellipse(a, b, cut, 4 * n_samples)
        _, S0 = _cumulative_arclength(dense)
        dense = _round_corners(dense, corners, round_frac * S0)
        # parameter origin on the positive x axis, like every other kind, so
        # electrode labels correspond across domains
        dense = np.roll(dense, -int(np.argmax(dense[:, 0])), axis=0)
        # resample to n_samples equal-arclength points
        s, S = _cumulative_arclength(dense)
        dense_curve = BoundaryCurve(points=dense, s=s, total_length=S)
        pts = dense_curve.point_at(np.linspace(0, S, n_samples, endpoint=False))

    _check_simple(pts)
    s, S = _cumulative_arclength(pts)
    return BoundaryCurve(points=pts, s=s, total_length=S)


def place_electrodes(curve: BoundaryCurve, J: int, coverage: float,
                     start_offset: float = 0.0,
                     contact_impedance: float = 1.0) -> ElectrodeLayout:
    """Place J equal-length electrode arcs, midpoints equally spaced.

    Electrode j is centered at arclength (j * S / J + start_offset) and has
    length coverage * S / J, so the gaps all equal (1 - coverage) * S / J.
    """
    if J < 2:
        raise GeometryError("need at least 2 electrodes")
    if not 0.0 < coverage < 1.0:
        raise GeometryError("coverage must lie strictly between 0 and 1")
    S = curve.total_length
    length = coverage * S / J
    starts = (np.arange(J) * S / J + start_offset - length / 2) % S
    arcs = np.column_stack([starts, np.full(J, length)])
    z = np.full(J, float(contact_impedance))
    if not np.all(np.isfinite(z) & (z > 0)):
        raise GeometryError("contact impedances must be finite and positive")
    return ElectrodeLayout(J=J, arcs=arcs, contact_impedances=z, total_length=S)


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------

def _boundary_node_positions(curve: BoundaryCurve, layout: ElectrodeLayout, h: float) -> np.ndarray:
    """Arclength positions of boundary nodes: arc endpoints plus fill at ~h."""
    S = curve.total_length
    breaks = np.sort(np.unique(np.concatenate([
        layout.arcs[:, 0] % S, (layout.arcs[:, 0] + layout.arcs[:, 1]) % S])))
    positions = []
    for k in range(len(breaks)):
        s0 = breaks[k]
        s1 = breaks[(k + 1) % len(breaks)]
        seg = (s1 - s0) % S
        if seg == 0:
            seg = S
        m = max(1, int(round(seg / h)))
        positions.extend(((s0 + np.arange(m) * seg / m) % S).tolist())
    return np.sort(np.array(positions))


def triangulate(curve: BoundaryCurve, layout: ElectrodeLayout, target_elements: int) -> Mesh:
    """Quasi-uniform Delaunay mesh with electrode endpoints resolved exactly.

    Interior nodes come from a hexagonal lattice clipped away from the
    boundary; the element count lands within 25% of the target (one
    corrective resize pass if the first guess is off).
    """
    if target_elements < 100:
        raise GeometryError("target_elements must be at least 100")
    A = curve.area()
    if A <= 0:
        raise GeometryError("boundary curve must be CCW with positive area")
    S = curve.total_length
    # T ~ (4/sqrt(3)) A / h^2 + S / h  for hex-lattice interior + boundary ring
    h = (S + np.sqrt(S ** 2 + 16.0 * A * target_elements / np.sqrt(3.0))) / (2.0 * target_elements)

    mesh = None
    for _ in range(4):
        mesh = _triangulate_at_h(curve, layout, h)
        ratio = mesh.n_elements / target_elements
        if 0.75 <= ratio <= 1.25:
            break
        h *= np.sqrt(ratio)
    if mesh is None or not 0.75 <= mesh.n_elements / target_elements <= 1.25:
        raise GeometryError(
            f"mesh size control failed: got {mesh.n_elements} elements for target {target_elements}")
    return mesh


def _triangulate_at_h(curve: BoundaryCurve, layout: ElectrodeLayout, h: float) -> Mesh:
    S = curve.total_length
    s_nodes = _boundary_node_positions(curve, layout, h)
    bpts = curve.point_at(s_nodes)

    # hexagonal interior lattice, kept > 0.62 h away from the boundary
    x0, y0 = curve.points.min(axis=0) - h
    x1, y1 = curve.points.max(axis=0) + h
    dy = h * np.sqrt(3) / 2
    rows = np.arange(y0, y1, dy)
    pts = []
    for r, yv in enumerate(rows):
        xs = np.arange(x0 + (h / 2 if r % 2 else 0.0), x1, h)
        pts.append(np.column_stack([xs, np.full(xs.shape, yv)]))
    lattice = np.vstack(pts)
    inside = _points_in_polygon(lattice, curve.points)
    lattice = lattice[inside]
    # distance to a densely resampled boundary bounds distance to the curve
    dense_s = np.arange(0, S, min(h / 6, S / 2048))
    dense = curve.point_at(dense_s)
    dist, _ = cKDTree(dense).query(lattice, k=1)
    lattice = lattice[dist > 0.62 * h]

    nodes = np.vstack([bpts, lattice])
    tri = Delaunay(nodes)
    simplices = tri.simplices.copy()

    twice_area = _twice_areas(nodes, simplices)
    flip = twice_area < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]

    # Qhull fans collinear hull nodes (a straight chord) into zero-area
    # slivers whose centroids lie on the boundary: drop them along with the
    # elements outside the curve; the boundary loop check validates the rest
    p = nodes[simplices]
    longest = ((p - np.roll(p, 1, axis=1)) ** 2).sum(axis=2).max(axis=1)
    keep = _points_in_polygon(p.mean(axis=1), bpts) & (np.abs(twice_area) > 1e-9 * longest)
    simplices = simplices[keep]

    # deterministic triangle ordering: roll smallest index first, sort rows
    roll = np.argmin(simplices, axis=1)
    simplices = np.take_along_axis(simplices, (roll[:, None] + np.arange(3)) % 3, axis=1)
    order = np.lexsort((simplices[:, 2], simplices[:, 1], simplices[:, 0]))
    simplices = simplices[order]

    boundary_edges = _extract_boundary_loop(simplices, len(bpts), s_nodes, layout)
    return Mesh(nodes=nodes, triangles=simplices, boundary_edges=boundary_edges)


def _twice_areas(nodes: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle, positive for CCW vertices."""
    p = nodes[simplices]
    return ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _extract_boundary_loop(simplices, n_boundary, s_nodes, layout) -> tuple:
    """Boundary edges of the complex, validated as the CCW node loop 0..n_b-1."""
    edges, count = np.unique(np.sort(simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1),
                             axis=0, return_counts=True)
    loop_edges = {(int(a), int(b)) for a, b in edges[count == 1]}
    expected = {tuple(sorted((k, (k + 1) % n_boundary))) for k in range(n_boundary)}
    if loop_edges != expected:
        raise GeometryError(
            "boundary of triangulation does not match the sampled curve "
            f"({len(loop_edges ^ expected)} mismatched edges)")
    S = layout.total_length
    seg = (np.roll(s_nodes, -1) - s_nodes) % S
    seg[seg == 0] = S
    tags = layout.contains_s((s_nodes + seg / 2) % S)
    return tuple(BoundaryEdge(nodes=(k, (k + 1) % n_boundary),
                              s_interval=(s_nodes[k], s_nodes[k] + seg[k]),
                              electrode=(int(e) if e >= 0 else None))
                 for k, e in enumerate(tags))


def locate_points(mesh: Mesh, pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Containing-element index for each query point, -1 if outside.

    A point lies in element e when its barycentric coordinates in e are all
    >= -tol.  Tie rule: where several elements contain a point (shared edges
    and vertices), the highest element index wins.  Candidates come from the
    element bounding boxes binned on a uniform grid, padded so that no
    element passing the test is missed.  Raises GeometryError unless ``pts``
    is one point or a (P, 2) array of finite coordinates.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"query points must have shape (P, 2), got {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        raise GeometryError(f"query point {bad[0]} is not finite: {tuple(pts[bad[0]])}")
    tri = mesh.nodes[mesh.triangles]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    # l1 = k1 . (q - c) / d, l2 = k2 . (q - c) / d, l3 = 1 - l1 - l2
    k1 = np.column_stack([b[:, 1] - c[:, 1], c[:, 0] - b[:, 0]])
    k2 = np.column_stack([c[:, 1] - a[:, 1], a[:, 0] - c[:, 0]])
    d = k1[:, 0] * (a[:, 0] - c[:, 0]) + k1[:, 1] * (a[:, 1] - c[:, 1])

    # all l >= -tol keeps a point within 2 tol * extent of the element's box;
    # the 1e-6 margin covers rounding in l
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    extent = (hi - lo).max(axis=1)
    pad = (2.0 * tol + 1e-6) * extent[:, None]
    h = float(np.median(extent))
    cell, elem, origin, shape = _bin_boxes(lo - pad, hi + pad, h)

    u = np.floor((pts - origin) / h)
    on_grid = np.all((u >= 0) & (u < shape), axis=1)
    qcell = np.where(on_grid, u[:, 0] * shape[1] + u[:, 1], -1).astype(int)
    out = np.full(len(pts), -1, dtype=int)
    for p, e in _candidate_pairs(cell, elem, qcell):
        dx, dy = pts[p, 0] - c[e, 0], pts[p, 1] - c[e, 1]
        l1 = (k1[e, 0] * dx + k1[e, 1] * dy) / d[e]
        l2 = (k2[e, 0] * dx + k2[e, 1] * dy) / d[e]
        hit = (l1 >= -tol) & (l2 >= -tol) & (1.0 - l1 - l2 >= -tol)
        np.maximum.at(out, p[hit], e[hit])
    return out


def _bin_boxes(lo: np.ndarray, hi: np.ndarray, h: float) -> tuple:
    """Boxes [lo, hi] binned on a uniform grid of cell size h whose origin
    is their lowest corner: (cell, box, origin, shape) with one entry per
    cell a box overlaps, stably sorted by cell, where cell = ix * shape[1]
    + iy for (ix, iy) = floor((x - origin) / h)."""
    origin = lo.min(axis=0)
    cell_lo = np.floor((lo - origin) / h).astype(int)
    span = np.floor((hi - origin) / h).astype(int) - cell_lo + 1
    shape = (cell_lo + span).max(axis=0)
    box, k = _runs(span[:, 0] * span[:, 1])
    cell = ((cell_lo[box, 0] + k % span[box, 0]) * shape[1]
            + cell_lo[box, 1] + k // span[box, 0])
    order = np.argsort(cell, kind="stable")
    return cell[order], box[order], origin, shape


_PAIR_CHUNK = 1 << 15   # candidate pairs tested at once


def _candidate_pairs(cell: np.ndarray, box: np.ndarray, qcell: np.ndarray):
    """Yield (query, box) candidate pairs, about _PAIR_CHUNK at a time, for
    the sorted (cell, box) entries of `_bin_boxes`: query q meets every box
    binned in cell qcell[q] (none for a negative qcell)."""
    first = np.searchsorted(cell, qcell)
    count = np.searchsorted(cell, qcell, side="right") - first
    bounds = np.searchsorted(np.cumsum(count), np.arange(_PAIR_CHUNK, count.sum(), _PAIR_CHUNK))
    for q in np.split(np.arange(len(count)), bounds):
        own, k = _runs(count[q])
        yield q[own], box[first[q][own] + k]


def _runs(counts: np.ndarray) -> tuple:
    """Owner and position within the run for consecutive runs of `counts`."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def build_pixel_lattice(mesh: Mesh, target_M: int) -> PixelLattice:
    """Smallest square grid over the bounding box with >= target_M active pixels.

    A pixel is active when its center lies inside the domain; triangles map
    to the pixel containing their centroid.  Boundary slivers whose cell
    center falls outside map to the nearest active center, and active pixels
    left with no triangles are pruned.
    """
    if target_M < 1:
        raise GeometryError("target_M must be positive")
    if target_M > mesh.n_elements:
        raise GeometryError(
            f"target_M={target_M} exceeds element count {mesh.n_elements}; "
            "parameterization would be rank-deficient")
    poly = mesh.boundary_polygon()
    x0, y0 = mesh.nodes.min(axis=0)
    x1, y1 = mesh.nodes.max(axis=0)
    bbox = (float(x0), float(y0), float(x1), float(y1))

    for n in range(max(1, int(np.sqrt(target_M * 0.8))), 4096):
        wx = (x1 - x0) / n
        wy = (y1 - y0) / n
        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        centers = np.column_stack([(ix.ravel() + 0.5) * wx + x0,
                                   (iy.ravel() + 0.5) * wy + y0])
        inside = _points_in_polygon(centers, poly)
        if inside.sum() >= target_M:
            grid_n = n
            active_flat = np.where(inside)[0]
            active_ij = np.column_stack([ix.ravel()[active_flat], iy.ravel()[active_flat]])
            active_centers = centers[active_flat]
            break
    else:  # pragma: no cover
        raise GeometryError("pixel grid search failed")

    cent = mesh.centroids()
    cix, ciy = np.clip(((cent - (x0, y0)) / (wx, wy)).astype(int), 0, grid_n - 1).T
    e2p = _cell_index(active_ij, grid_n)[cix, ciy]
    missing = np.flatnonzero(e2p < 0)
    if len(missing):
        e2p[missing] = cKDTree(active_centers).query(cent[missing], k=1)[1]

    used, e2p = np.unique(e2p, return_inverse=True)
    active_ij, active_centers = active_ij[used], active_centers[used]

    # smallest-n rule can overshoot small targets by more than the nominal
    # 10% when the grid granularity jumps; production-scale targets land inside.
    return PixelLattice(bbox=bbox, grid_n=grid_n, active_ij=active_ij,
                        centers=active_centers, element_to_pixel=e2p)
