"""Test domains, electrode placement, triangulation and the pixel lattice.

All curves are sampled counterclockwise and carry a cumulative-chord
arclength coordinate.  Meshes are plain index arrays (P1-ready: nodes,
CCW triangles, tagged boundary edges) so the solver modules stay free of
any mesh-generator dependency.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree


class GeometryError(ValueError):
    """Invalid domain specification or meshing failure."""


# ---------------------------------------------------------------------------
# domain specifications
# ---------------------------------------------------------------------------

# the magnitudes whose square is a normal float: a length squared is an area
NORMAL_SQUARE = (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max))

# the params each kind reads
_KIND_PARAMS = {"disk": ("radius",), "ellipse": ("a", "b"),
                "truncated_ellipse": ("a", "b", "cut_frac", "round_frac"),
                "fourier": ("cos", "sin")}


def _finite(value) -> bool:
    """Whether `value` is a finite real number (not a boolean)."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and bool(np.isfinite(value)))


def _integer(value) -> bool:
    """Whether `value` is an integer, NumPy's included (not a boolean)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        lo, hi = NORMAL_SQUARE
        for key in ("radius", "a", "b"):
            if key in p and not lo <= p[key] <= hi:
                raise GeometryError(f"{self.kind} param {key!r} must lie in [{lo:.3g}, {hi:.3g}], "
                                    f"where its square is a normal float, got {p[key]!r}")
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
        """Piecewise-linear point on the curve at arclength s (mod S): one
        point (2,) for a scalar s, one row per entry (P, 2) for an array."""
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float)) % self.total_length
        pts = np.vstack([self.points, self.points[:1]])
        knots = np.append(self.s, self.total_length)
        idx = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, len(self.s) - 1)
        seg = knots[idx + 1] - knots[idx]
        t = (s - knots[idx]) / np.where(seg > 0, seg, 1.0)
        out = pts[idx] * (1 - t[:, None]) + pts[idx + 1] * t[:, None]
        return out[0] if scalar else out

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

    def raster_map(self, resolution: int) -> np.ndarray:
        """`paint_cells(self, resolution)`, painted on first use and kept,
        read-only, for every later call at this resolution."""
        # kept in the instance dict, as `cached_property` keeps its value
        maps = self.__dict__.setdefault("_raster_maps", {})
        if resolution not in maps:
            maps[resolution] = paint_cells(self, resolution)
            maps[resolution].flags.writeable = False
        return maps[resolution]

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
    """Crossing-number test: a point is inside the closed polygon when the
    ray to its right crosses an odd number of edges.  Edge (x1, y1) ->
    (x2, y2) crosses the horizontal through y when min(y1, y2) <= y <
    max(y1, y2), so over the points sorted by y each edge meets one range of
    them, found by binary search, and only those (edge, point) pairs are
    formed (y-binned crossings: Haines, "Point in Polygon Strategies",
    Graphics Gems IV, 1994)."""
    order = np.argsort(pts[:, 1], kind="stable")
    x, y = pts[order, 0], pts[order, 1]
    x1, y1 = poly[:, 0], poly[:, 1]
    y2 = np.roll(y1, -1)
    dx, dy = np.roll(x1, -1) - x1, y2 - y1
    first = np.searchsorted(y, np.minimum(y1, y2))
    count = np.searchsorted(y, np.maximum(y1, y2)) - first
    crossings = np.zeros(len(pts), dtype=np.intp)
    for e, p in _range_pairs(first, count):
        # the crossing x: x1 + (y - y1) (x2 - x1) / (y2 - y1)
        hit = x[p] < (y[p] - y1[e]) * dx[e] / dy[e] + x1[e]
        crossings += np.bincount(p[hit], minlength=len(pts))
    inside = np.empty(len(pts), dtype=bool)
    inside[order] = crossings % 2 == 1
    return inside


def _cumulative_arclength(points: np.ndarray) -> tuple:
    closed = np.vstack([points, points[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    return s, float(seg.sum())


def _check_simple(points: np.ndarray) -> None:
    """Exact segment-intersection test of the closed polyline.

    Over the segments sorted by lower y, each one meets the later ones whose
    lower y is at most its upper y, one range found by binary search; every
    such pair of non-adjacent segments is tested for a proper crossing, so
    no pair whose y ranges overlap is missed.
    """
    n = len(points)
    p, q = points, np.roll(points, -1, axis=0)
    y_lo, y_hi = np.minimum(p[:, 1], q[:, 1]), np.maximum(p[:, 1], q[:, 1])
    order = np.argsort(y_lo, kind="stable")
    after = np.arange(1, n + 1)
    count = np.searchsorted(y_lo[order], y_hi[order], side="right") - after

    def cross(o, a, b):
        return (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])

    crossings = []
    for s, t in _range_pairs(after, count):
        i, j = np.minimum(order[s], order[t]), np.maximum(order[s], order[t])
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
    if not _integer(n_samples):
        raise GeometryError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 64:
        raise GeometryError("n_samples must be at least 64")
    kind, p = spec.kind, spec.params

    if kind != "truncated_ellipse":  # (a cos t, b sin t), with a = b = r(t) if fourier
        t = np.linspace(0, 2 * np.pi, n_samples, endpoint=False)
        if kind == "disk":
            a = b = float(p.get("radius", 1.0))
        elif kind == "ellipse":
            a, b = float(p["a"]), float(p["b"])
        else:
            cos_c = np.asarray(p.get("cos", []), dtype=float)
            sin_c = np.asarray(p.get("sin", []), dtype=float)
            a = b = _fourier_radius(cos_c, sin_c, t)
            # positivity checked on a finer grid than the requested sampling
            tf = np.linspace(0, 2 * np.pi, 8 * n_samples, endpoint=False)
            rf = _fourier_radius(cos_c, sin_c, tf)
            if rf.min() <= 0:
                raise GeometryError(f"fourier radius is nonpositive "
                                    f"(min {rf.min():.4g} at phi={tf[rf.argmin()]:.4g})")
        pts = np.column_stack([a * np.cos(t), b * np.sin(t)])
    else:
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
                     contact_impedance: float = 1.0) -> ElectrodeLayout:
    """Place J equal-length electrode arcs, midpoints equally spaced.

    Electrode j is centered at arclength j * S / J and has length
    coverage * S / J, so the gaps all equal (1 - coverage) * S / J.
    """
    if not _integer(J):
        raise GeometryError(f"J must be an integer, got {J!r}")
    if J < 2:
        raise GeometryError("need at least 2 electrodes")
    if not 0.0 < coverage < 1.0:
        raise GeometryError("coverage must lie strictly between 0 and 1")
    S = curve.total_length
    length = coverage * S / J
    starts = (np.arange(J) * S / J - length / 2) % S
    if np.any(starts % S == (starts + length) % S):
        raise GeometryError(f"coverage {coverage!r} gives electrodes of length {length:.3g}, "
                            f"whose ends coincide in floating point on a boundary of "
                            f"length {S:.6g}")
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
    boundary; the element count lands within 25% of the target (up to three
    corrective resize passes if the first guess is off).  The triangles are
    those of the Delaunay triangulation of all the nodes, but Qhull sees only
    the boundary band: the boundary nodes and the lattice nodes within
    (_DEEP + _OVERLAP) h of the curve.  Deeper in, the triangles are the
    lattice's own (`_triangulate_at_h` gives the argument).  A domain too
    thin for Qhull to span raises GeometryError naming its width and h.
    """
    if not _integer(target_elements):
        raise GeometryError(f"target_elements must be an integer, got {target_elements!r}")
    if target_elements < 100:
        raise GeometryError(f"target_elements must be at least 100, got {target_elements!r}")
    A = curve.area()
    if A <= 0:
        raise GeometryError("boundary curve must be CCW with positive area")
    S = curve.total_length
    # T ~ (4/sqrt(3)) A / h^2 + S / h  for hex-lattice interior + boundary ring
    h = (S + np.sqrt(S ** 2 + 16.0 * A * target_elements / np.sqrt(3.0))) / (2.0 * target_elements)

    for _ in range(4):
        mesh = _triangulate_at_h(curve, layout, h)
        ratio = mesh.n_elements / target_elements
        if 0.75 <= ratio <= 1.25:
            return mesh
        h *= np.sqrt(ratio)
    raise GeometryError(
        f"mesh size control failed: got {mesh.n_elements} elements for target {target_elements}")


# Qhull triangulates the boundary nodes and the lattice nodes of clearance
# below (_DEEP + _OVERLAP) h; the lattice's own triangles fill the rest.  A
# triangle is Delaunay exactly when its open circumdisk holds no node.  Let
# c(x) be the distance from x to the dense boundary samples: c is 1-Lipschitz,
# exceeds the distance to the curve by at most h/12, and every lattice node
# inside the curve with c > 0.62 h is a node.  Any point inside the curve
# with c > h has a lattice node within h/sqrt(3) < r = 0.6 h of it.
# - A lattice triangle on nodes with c >= _DEEP h is Delaunay: its
#   circumradius is h/sqrt(3), every other lattice node is 2h/sqrt(3) from its
#   circumcentre, and every boundary node is farther than (2 - 1/12) h >
#   2h/sqrt(3) from its vertices.  Conversely, a Delaunay triangle on such
#   nodes has a circumradius of at most r: else the disk of radius r inside
#   its circumdisk, tangent at a vertex, would hold a lattice node other than
#   that vertex with c > (2 - 1.2) h > 0.62 h.  So its sides are at most 1.2 h,
#   all equal to h, and it is a lattice triangle.
# - The Delaunay triangles touching a node p with c(p) < _DEEP h are the same
#   for the band as for the whole node set.  Suppose the open circumdisk
#   (centre o, radius R) of one of them held a node q with c(q) >=
#   (_DEEP + _OVERLAP) h.  Then 2R > |p - q| >= _OVERLAP h > 2r.  On the path
#   q -> o -> p, pulled into the disk of radius R - r about o, c runs from
#   above (_DEEP + _OVERLAP) h - r to below _DEEP h + r.  The first point y
#   where c = _DEEP h + r lies inside the curve, and so does its r-disk, which
#   lies in the circumdisk.  The lattice node nearest y lies in that r-disk
#   with clearance in (_DEEP h, (_DEEP + _OVERLAP) h): it is a band node
#   inside the circumdisk, a contradiction.
_DEEP = 2.0
_OVERLAP = 2.0


def _triangulate_at_h(curve: BoundaryCurve, layout: ElectrodeLayout, h: float) -> Mesh:
    """Delaunay mesh of the boundary nodes at spacing ~h and the hexagonal
    lattice of spacing h kept > 0.62 h from the curve.  Qhull runs once, on
    the boundary band only; deeper in, the lattice's own up and down
    triangles are the Delaunay ones (the argument is at `_DEEP`)."""
    S = curve.total_length
    s_nodes = _boundary_node_positions(curve, layout, h)
    bpts = curve.point_at(s_nodes)
    nb = len(bpts)

    # hexagonal interior lattice: row r at y0 + r dy, odd rows shifted by h/2
    x0, y0 = curve.points.min(axis=0) - h
    x1, y1 = curve.points.max(axis=0) + h
    ys = np.arange(y0, y1, h * np.sqrt(3) / 2)
    even, odd = np.arange(x0, x1, h), np.arange(x0 + h / 2, x1, h)
    odd_row = np.arange(len(ys)) % 2 == 1
    row, col = _runs(np.where(odd_row, len(odd), len(even)))
    lattice = np.column_stack([np.concatenate([even, odd])[col + len(even) * odd_row[row]],
                               ys[row]])
    inside = _points_in_polygon(lattice, curve.points)
    lattice, row, col = lattice[inside], row[inside], col[inside]
    # distance to a densely resampled boundary bounds distance to the curve
    dense_s = np.arange(0, S, min(h / 6, S / 2048))
    dense = curve.point_at(dense_s)
    # a point farther than the band comes back at distance inf
    dist, _ = cKDTree(dense).query(lattice, k=1, distance_upper_bound=(_DEEP + _OVERLAP) * h)
    clear = dist > 0.62 * h
    lattice, row, col, dist = lattice[clear], row[clear], col[clear], dist[clear]
    nodes = np.vstack([bpts, lattice])

    band = np.concatenate([np.arange(nb), nb + np.flatnonzero(dist < (_DEEP + _OVERLAP) * h)])
    try:
        simplices = band[Delaunay(nodes[band]).simplices]
    except QhullError:  # the nodes are flat to Qhull: no triangle
        simplices = np.empty((0, 3), dtype=band.dtype)
    shallow = np.concatenate([np.ones(nb, dtype=bool), dist < _DEEP * h])
    simplices = simplices[shallow[simplices].any(axis=1)]

    twice_area = _twice_areas(nodes, simplices)
    flip = twice_area < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]

    # Qhull fans collinear hull nodes (a straight chord) into zero-area
    # slivers whose centroids lie on the boundary: drop them along with the
    # elements outside the curve; the boundary loop check validates the rest
    p = nodes[simplices]
    longest = ((p - np.roll(p, 1, axis=1)) ** 2).sum(axis=2).max(axis=1)
    keep = _points_in_polygon(p.mean(axis=1), bpts) & (np.abs(twice_area) > 1e-9 * longest)
    if not keep.any():
        raise GeometryError(f"the domain is {_width(curve.points):.3g} wide, too thin to "
                            f"triangulate at element size h = {h:.3g}")

    # the lattice's CCW up and down triangles on nodes with clearance >= _DEEP h;
    # grid[r, c + 1] is the node at row r, column c, padded by -1
    deep = np.flatnonzero(dist >= _DEEP * h)
    r, c = row[deep], col[deep]
    grid = np.full((len(ys) + 1, len(even) + 2), -1)
    grid[r, c + 1] = nb + deep
    up = c + 1 + r % 2   # the upper-right neighbour's padded column
    tris = np.vstack([np.column_stack([nb + deep, grid[r, c + 2], grid[r + 1, up]]),
                      np.column_stack([nb + deep, grid[r + 1, up], grid[r + 1, up - 1]])])
    # Mesh.triangles holds Qhull's index type
    simplices = np.vstack([simplices[keep], tris[(tris >= 0).all(axis=1)]]).astype(np.intc)

    # deterministic triangle ordering: roll smallest index first, sort rows
    roll = np.argmin(simplices, axis=1)
    simplices = np.take_along_axis(simplices, (roll[:, None] + np.arange(3)) % 3, axis=1)
    order = np.lexsort((simplices[:, 2], simplices[:, 1], simplices[:, 0]))
    simplices = simplices[order]

    boundary_edges = _extract_boundary_loop(simplices, nb, s_nodes, layout)
    return Mesh(nodes=nodes, triangles=simplices, boundary_edges=boundary_edges)


def _width(points: np.ndarray) -> float:
    """Extent of `points` across their axis of least variance."""
    d = points - points.mean(axis=0)
    return float(np.ptp(d @ np.linalg.eigh(d.T @ d)[1][:, 0]))


def _twice_areas(nodes: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle, positive for CCW vertices."""
    p = nodes[simplices]
    return ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _extract_boundary_loop(simplices, n_boundary, s_nodes, layout) -> tuple:
    """Boundary edges of the complex, validated as the CCW node loop 0..n_b-1."""
    # each edge (lo, hi) as the one key lo * n + hi
    n = int(simplices.max()) + 1
    lo, hi = np.sort(simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1).astype(np.int64).T
    keys, count = np.unique(lo * n + hi, return_counts=True)
    once = keys[count == 1]
    a = np.arange(n_boundary, dtype=np.int64)
    b = np.roll(a, -1)
    expected = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    if not np.array_equal(once, expected):
        raise GeometryError(
            "boundary of triangulation does not match the sampled curve "
            f"({len(np.setxor1d(once, expected))} mismatched edges)")
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
    and vertices), the highest element index wins.  Over the points sorted by
    y, each element tests the range of them whose y lies in its bounding
    box, padded so that no point passing the test is missed, found by binary
    search.  Raises GeometryError unless ``tol`` is a finite number >= 0 and
    ``pts`` is one point or a (P, 2) array of finite coordinates.
    """
    if not (_finite(tol) and tol >= 0):
        raise GeometryError(f"tol must be a finite number >= 0, got {tol!r}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"query points must have shape (P, 2), got {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        raise GeometryError(f"query point {bad[0]} is not finite: {tuple(pts[bad[0]])}")
    frame, lo, hi = _element_frames(mesh, tol)
    order = np.argsort(pts[:, 1], kind="stable")
    y = pts[order, 1]
    first = np.searchsorted(y, lo[:, 1])
    out = np.full(len(pts), -1, dtype=int)
    for e, k in _range_pairs(first, np.searchsorted(y, hi[:, 1]) - first):
        p = order[k]
        hit = _contains(frame, e, pts[p, 0], pts[p, 1], tol)
        np.maximum.at(out, p[hit], e[hit])
    return out


def paint_cells(mesh: Mesh, resolution: int) -> np.ndarray:
    """Containing element of each cell center of a resolution x resolution
    grid over the mesh's bounding box, -1 outside, at flat index
    iy * resolution + ix.

    Cell (ix, iy) has its center at (x0 + (ix + 0.5) wx, y0 + (iy + 0.5) wy).
    The map is the one `locate_points` gives for these centers at tol 1e-12,
    built per triangle instead: each element tests only the centers inside
    its padded bounding box, with the same barycentric test and the same
    tie rule (half-space rasterization: Pineda, SIGGRAPH 1988).
    """
    tol = 1e-12
    x0 = mesh.nodes.min(axis=0)
    w = (mesh.nodes.max(axis=0) - x0) / resolution
    center = x0[:, None] + (np.arange(resolution) + 0.5) * w[:, None]    # (2, resolution)
    frame, lo, hi = _element_frames(mesh, tol)
    # the centers of cells first .. first + span - 1 lie in the padded box;
    # its margin is far wider than the rounding of these indices
    first = np.clip(np.ceil((lo - x0) / w - 0.5), 0, resolution).astype(int)
    last = np.clip(np.floor((hi - x0) / w - 0.5), -1, resolution - 1).astype(int)
    span = np.maximum(last - first + 1, 0)
    box = np.vstack([first.T, span[:, 0]])      # (3, T): first ix, first iy, width
    out = np.full(resolution * resolution, -1, dtype=int)
    for e, k in _range_pairs(np.zeros(len(span), dtype=int), span[:, 0] * span[:, 1],
                             _PAINT_CHUNK):
        fx, fy, nx = np.take(box, e, axis=1)
        dy, dx = np.divmod(k, nx)
        ix, iy = fx + dx, fy + dy
        hit = _contains(frame, e, center[0, ix], center[1, iy], tol)
        np.maximum.at(out, iy[hit] * resolution + ix[hit], e[hit])
    return out


def _element_frames(mesh: Mesh, tol: float) -> tuple:
    """(frame, lo, hi) per element: the barycentric frame of `_contains` and
    the bounding box padded so that no point passing the test at `tol` lies
    outside it."""
    tri = mesh.nodes[mesh.triangles]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    # l1 = k1 . (q - c) / d, l2 = k2 . (q - c) / d, l3 = 1 - l1 - l2
    k1 = (b[:, 1] - c[:, 1], c[:, 0] - b[:, 0])
    k2 = (c[:, 1] - a[:, 1], a[:, 0] - c[:, 0])
    d = k1[0] * (a[:, 0] - c[:, 0]) + k1[1] * (a[:, 1] - c[:, 1])
    # all l >= -tol keeps a point within 2 tol * (the larger side) of the
    # element's box; the 1e-6 margin covers rounding in l
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    pad = (2.0 * tol + 1e-6) * (hi - lo).max(axis=1)[:, None]
    return np.vstack([c.T, k1, k2, d]), lo - pad, hi + pad


def _contains(frame: np.ndarray, e: np.ndarray, x: np.ndarray, y: np.ndarray,
              tol: float) -> np.ndarray:
    """Whether point (x[i], y[i]) has all barycentric coordinates >= -tol in
    element e[i]; `frame` rows are c_x, c_y, k1_x, k1_y, k2_x, k2_y, d."""
    cx, cy, k1x, k1y, k2x, k2y, d = np.take(frame, e, axis=1)
    dx, dy = x - cx, y - cy
    l1 = (k1x * dx + k1y * dy) / d
    l2 = (k2x * dx + k2y * dy) / d
    return (l1 >= -tol) & (l2 >= -tol) & (1.0 - l1 - l2 >= -tol)


_PAIR_CHUNK = 1 << 15   # candidate pairs tested at once
_PAINT_CHUNK = 1 << 12  # (element, cell) pairs `paint_cells` tests at once; its
                        # dozen per-pair arrays then stay in cache


def _range_pairs(first: np.ndarray, count: np.ndarray, chunk: int = _PAIR_CHUNK):
    """Yield (owner, index) pairs, about `chunk` at a time, pairing each
    owner q with the indices first[q] .. first[q] + count[q] - 1."""
    bounds = np.searchsorted(np.cumsum(count), np.arange(chunk, count.sum(), chunk))
    for q in np.split(np.arange(len(count)), bounds):
        own, k = _runs(count[q])
        yield q[own], first[q][own] + k


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
    if not _integer(target_M):
        raise GeometryError(f"target_M must be an integer, got {target_M!r}")
    if target_M < 1:
        raise GeometryError(f"target_M must be positive, got {target_M!r}")
    if target_M > mesh.n_elements:
        raise GeometryError(
            f"target_M={target_M} exceeds element count {mesh.n_elements}; "
            "parameterization would be rank-deficient")
    poly = mesh.boundary_polygon()
    x0, y0 = mesh.nodes.min(axis=0)
    x1, y1 = mesh.nodes.max(axis=0)
    bbox = (float(x0), float(y0), float(x1), float(y1))

    # an n x n grid has at most n^2 active cells, so start at the least n
    # with n^2 >= target_M
    for n in range(math.isqrt(target_M - 1) + 1, 4096):
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
