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

_KINDS = ("disk", "ellipse", "truncated_ellipse", "fourier")


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
        if self.kind not in _KINDS:
            raise GeometryError(f"unknown domain kind {self.kind!r}")
        if self.kind == "ellipse" or self.kind == "truncated_ellipse":
            a = self.params.get("a", 0.0)
            b = self.params.get("b", 0.0)
            if a <= 0 or b <= 0:
                raise GeometryError("ellipse semi-axes must be positive")
        if self.kind == "truncated_ellipse":
            cut = self.params.get("cut_frac", -0.65)
            if not -1.0 < cut < 1.0:
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

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

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

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Even-odd rule point-in-polygon test, vectorized over query points."""
        return _points_in_polygon(np.atleast_2d(pts), self.points)

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
        p = self.nodes[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

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
        """Unordered active-pixel pairs adjacent in the 4-neighborhood."""
        index = {(int(i), int(j)): k for k, (i, j) in enumerate(self.active_ij)}
        pairs = []
        for k, (i, j) in enumerate(self.active_ij):
            for di, dj in ((1, 0), (0, 1)):
                other = index.get((int(i) + di, int(j) + dj))
                if other is not None:
                    pairs.append((k, other))
        return np.array(pairs, dtype=int).reshape(-1, 2)

    def image(self, values: np.ndarray) -> np.ndarray:
        """Paint per-pixel values onto a (grid_n, grid_n) array, NaN outside."""
        img = np.full((self.grid_n, self.grid_n), np.nan)
        img[self.active_ij[:, 1], self.active_ij[:, 0]] = values
        return img


# ---------------------------------------------------------------------------
# boundary curve construction
# ---------------------------------------------------------------------------

def _points_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    inside = np.zeros(len(pts), dtype=bool)
    # chunk over polygon edges to bound memory on fine curves
    step = max(1, int(4e6 // max(len(pts), 1)))
    for k0 in range(0, len(poly), step):
        sl = slice(k0, k0 + step)
        a1, b1, a2, b2 = x1[sl], y1[sl], x2[sl], y2[sl]
        cond = (b1[None, :] > y[:, None]) != (b2[None, :] > y[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = a1 + (y[:, None] - b1) * (a2 - a1) / (b2 - b1)
        inside ^= np.bitwise_xor.reduce(cond & (x[:, None] < xi), axis=1)
    return inside


def _cumulative_arclength(points: np.ndarray) -> tuple:
    closed = np.vstack([points, points[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    return s, float(seg.sum())


def _check_simple(points: np.ndarray) -> None:
    """Sampled segment-intersection test on a <=512-segment subsample."""
    n = len(points)
    stride = max(1, n // 512)
    sub = points[::stride]
    m = len(sub)
    p = sub
    q = np.roll(sub, -1, axis=0)
    i, j = np.triu_indices(m, k=2)
    # skip the wrap-adjacent pair (first, last)
    keep = ~((i == 0) & (j == m - 1))
    i, j = i[keep], j[keep]

    def cross(o, a, b):
        return (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])

    d1 = cross(p[i], q[i], p[j])
    d2 = cross(p[i], q[i], q[j])
    d3 = cross(p[j], q[j], p[i])
    d4 = cross(p[j], q[j], q[i])
    crossing = ((d1 * d2) < 0) & ((d3 * d4) < 0)
    if np.any(crossing):
        a, b = i[crossing][0], j[crossing][0]
        raise GeometryError(
            f"boundary curve self-intersects (segments near samples {a * stride} and {b * stride})")


def _sharp_truncated_ellipse(a: float, b: float, cut_frac: float, n_dense: int) -> tuple:
    """Dense CCW polyline of an ellipse cut by the chord x = cut_frac*a.

    Returns (points, corner_param_indices) before corner rounding.
    """
    t0 = np.arccos(cut_frac)            # arc kept for |t| <= t0 ... actually t in [-t0, t0]
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
        p0 = _interp_on_polyline(points, s, S, lo % S)
        p2 = _interp_on_polyline(points, s, S, hi % S)
        p1 = points[ci % len(points)]
        t = (rel[sel] + window) / (2 * window)
        bez = ((1 - t) ** 2)[:, None] * p0 + (2 * t * (1 - t))[:, None] * p1 + (t ** 2)[:, None] * p2
        out[sel] = bez
    return out


def _interp_on_polyline(points, s, S, target):
    ext = np.vstack([points, points[:1]])
    knots = np.append(s, S)
    k = np.clip(np.searchsorted(knots, target, side="right") - 1, 0, len(s) - 1)
    seg = knots[k + 1] - knots[k]
    t = (target - knots[k]) / (seg if seg > 0 else 1.0)
    return ext[k] * (1 - t) + ext[k + 1] * t


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
        r = np.ones_like(t)
        for k, c in enumerate(cos_c, start=1):
            r += c * np.cos(k * t)
        for k, c in enumerate(sin_c, start=1):
            r += c * np.sin(k * t)
        # positivity checked on a finer grid than the requested sampling
        tf = np.linspace(0, 2 * np.pi, 8 * n_samples, endpoint=False)
        rf = np.ones_like(tf)
        for k, c in enumerate(cos_c, start=1):
            rf += c * np.cos(k * tf)
        for k, c in enumerate(sin_c, start=1):
            rf += c * np.sin(k * tf)
        if rf.min() <= 0:
            raise GeometryError(
                f"fourier radius is nonpositive (min {rf.min():.4g} at phi={tf[rf.argmin()]:.4g})")
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    elif kind == "truncated_ellipse":
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
        targets = np.linspace(0, S, n_samples, endpoint=False)
        pts = np.array([_interp_on_polyline(dense, s, S, ti) for ti in targets])
    else:  # pragma: no cover
        raise GeometryError(f"unknown kind {kind!r}")

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
    if np.any(z <= 0):
        raise GeometryError("contact impedances must be positive")
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

    p = nodes[simplices]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flip = area2 < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]

    cent = nodes[simplices].mean(axis=1)
    keep = _points_in_polygon(cent, bpts)
    simplices = simplices[keep]

    p = nodes[simplices]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    if np.any(area2 <= 0):
        raise GeometryError("degenerate triangle produced; geometry too coarse for target size")

    # deterministic triangle ordering: roll smallest index first, sort rows
    roll = np.argmin(simplices, axis=1)
    simplices = np.array([np.roll(row, -r) for row, r in zip(simplices, roll)])
    order = np.lexsort((simplices[:, 2], simplices[:, 1], simplices[:, 0]))
    simplices = simplices[order]

    boundary_edges = _extract_boundary_loop(simplices, len(bpts), s_nodes, layout)
    return Mesh(nodes=nodes, triangles=simplices, boundary_edges=boundary_edges)


def _extract_boundary_loop(simplices, n_boundary, s_nodes, layout) -> tuple:
    """Boundary edges of the complex, validated as the CCW node loop 0..n_b-1."""
    from collections import Counter
    count = Counter()
    for a, b, c in simplices:
        for e in ((a, b), (b, c), (c, a)):
            count[tuple(sorted(e))] += 1
    loop_edges = {e for e, c in count.items() if c == 1}
    expected = {tuple(sorted((k, (k + 1) % n_boundary))) for k in range(n_boundary)}
    if loop_edges != expected:
        raise GeometryError(
            "boundary of triangulation does not match the sampled curve "
            f"({len(loop_edges ^ expected)} mismatched edges)")
    S = layout.total_length
    edges = []
    for k in range(n_boundary):
        a, b = k, (k + 1) % n_boundary
        s0 = s_nodes[a]
        seg = (s_nodes[b] - s0) % S
        if seg == 0:
            seg = S
        mid = (s0 + seg / 2) % S
        e = layout.contains_s(mid)[0]
        edges.append(BoundaryEdge(nodes=(a, b), s_interval=(s0, s0 + seg),
                                  electrode=(int(e) if e >= 0 else None)))
    return tuple(edges)


def locate_points(mesh: Mesh, pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Containing-element index for each query point, -1 if outside.

    KDTree candidate search over element centroids with a barycentric
    containment test; falls back to a brute-force scan for stragglers.
    """
    pts = np.atleast_2d(pts)
    cent = mesh.centroids()
    tree = cKDTree(cent)
    k = min(24, mesh.n_elements)
    _, cand = tree.query(pts, k=k)
    cand = np.atleast_2d(cand)
    tri_pts = mesh.nodes[mesh.triangles]
    out = np.full(len(pts), -1, dtype=int)
    for i, q in enumerate(pts):
        for e in cand[i]:
            if _in_triangle(q, tri_pts[e], tol):
                out[i] = e
                break
        else:
            hits = [e for e in range(mesh.n_elements) if _in_triangle(q, tri_pts[e], tol)]
            if hits:
                out[i] = hits[0]
    return out


def _in_triangle(q, tri, tol):
    a, b, c = tri
    d = (b[1] - c[1]) * (a[0] - c[0]) + (c[0] - b[0]) * (a[1] - c[1])
    l1 = ((b[1] - c[1]) * (q[0] - c[0]) + (c[0] - b[0]) * (q[1] - c[1])) / d
    l2 = ((c[1] - a[1]) * (q[0] - c[0]) + (a[0] - c[0]) * (q[1] - c[1])) / d
    l3 = 1 - l1 - l2
    return l1 >= -tol and l2 >= -tol and l3 >= -tol


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
    cix = np.clip(((cent[:, 0] - x0) / wx).astype(int), 0, grid_n - 1)
    ciy = np.clip(((cent[:, 1] - y0) / wy).astype(int), 0, grid_n - 1)
    index = {(int(i), int(j)): k for k, (i, j) in enumerate(active_ij)}
    e2p = np.array([index.get((int(i), int(j)), -1) for i, j in zip(cix, ciy)], dtype=int)
    missing = np.where(e2p < 0)[0]
    if len(missing):
        tree = cKDTree(active_centers)
        _, nearest = tree.query(cent[missing], k=1)
        e2p[missing] = nearest

    used = np.unique(e2p)
    if len(used) < len(active_ij):
        remap = -np.ones(len(active_ij), dtype=int)
        remap[used] = np.arange(len(used))
        e2p = remap[e2p]
        active_ij = active_ij[used]
        active_centers = active_centers[used]

    # smallest-n rule can overshoot small targets by more than the nominal
    # 10% when the grid granularity jumps; production-scale targets land inside.
    return PixelLattice(bbox=bbox, grid_n=grid_n, active_ij=active_ij,
                        centers=active_centers, element_to_pixel=e2p)
