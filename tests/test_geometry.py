import dataclasses
import functools
import hashlib
import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay, cKDTree

from anisoeit import geometry
from anisoeit.fem import CEMOperator
from anisoeit.geometry import (BoundaryEdge, DomainSpec, GeometryError, _check_simple,
                               _extract_boundary_loop, _points_in_polygon, build_boundary,
                               build_pixel_lattice, locate_points, place_electrodes,
                               triangulate)
from anisoeit.harness import builtin_configs


def test_disk_circumference():
    curve = build_boundary(DomainSpec("disk", {}), 1024)
    assert abs(curve.total_length - 2 * np.pi) <= 1e-3 * 2 * np.pi


def test_ellipse_perimeter_matches_quadrature_oracle():
    a, b = 1.25, 0.8
    curve = build_boundary(DomainSpec("ellipse", {"a": a, "b": b}), 2048)
    oracle, err = quad(lambda t: np.hypot(a * np.sin(t), b * np.cos(t)),
                       0, 2 * np.pi, limit=200)
    assert err < 1e-6 * oracle
    assert abs(curve.total_length - oracle) <= 1e-3 * oracle


def test_fourier_all_zero_is_disk():
    c0 = build_boundary(DomainSpec("fourier", {}), 1024)
    cd = build_boundary(DomainSpec("disk", {}), 1024)
    assert np.allclose(c0.points, cd.points)


def test_boundary_resolution_chords_track_arcs():
    # chord between consecutive samples matches the finer-sampled arc within 1%
    coarse = build_boundary(DomainSpec("ellipse", {"a": 1.25, "b": 0.8}), 256)
    fine = build_boundary(DomainSpec("ellipse", {"a": 1.25, "b": 0.8}), 4096)
    chords = np.diff(np.append(coarse.s, coarse.total_length))
    # the fine curve's arclength between the same parameter fractions
    fine_s = np.append(fine.s, fine.total_length)[::16]
    arcs = np.diff(fine_s) * coarse.total_length / fine.total_length
    assert np.all(np.abs(chords - arcs) <= 0.01 * arcs)


def test_point_at_returns_one_point_only_for_a_scalar(disk_curve):
    """A scalar arclength gives one point (2,); an array gives one row per
    entry, a length-1 array included."""
    assert disk_curve.point_at(0.5).shape == (2,)
    assert disk_curve.point_at(np.array([0.5])).shape == (1, 2)
    assert disk_curve.point_at([0.5, 1.0]).shape == (2, 2)
    assert np.array_equal(disk_curve.point_at(np.array([0.5]))[0], disk_curve.point_at(0.5))


def test_min_samples_rejected():
    with pytest.raises(GeometryError):
        build_boundary(DomainSpec("disk", {}), 32)


@pytest.mark.parametrize("kind, params, named", [
    ("disk", {"radus": 2.0}, "radus"),
    ("disk", {"radius": -2}, "radius"),
    ("disk", {"radius": 0}, "radius"),
    ("disk", {"radius": True}, "radius"),
    ("ellipse", {"a": float("nan"), "b": 0.8}, "'a'"),
    ("ellipse", {"a": 1.25}, "semi-axes"),
    ("ellipse", {"a": 1.25, "b": 0.8, "cut_frac": 0.3}, "cut_frac"),
    ("truncated_ellipse", {"a": 1.1, "b": 0.9, "round_frac": float("inf")}, "round_frac"),
    ("fourier", {"cos": [0.1, float("nan")]}, "cos"),
    ("fourier", {"sin": 0.1}, "sin"),
    ("fourier", {"radius": 1.0}, "radius"),
    ("disk", [1.0], "dict"),
    ("truncated_ellipse", {"a": 1.1, "b": 0.9, "cut_frac": 1.0}, "cut_frac must lie in"),
])
def test_domain_spec_rejects_bad_params(kind, params, named):
    """Only the params a kind reads, each a finite number (or a list of
    them), with a positive radius and semi-axes."""
    with pytest.raises(GeometryError, match=named):
        DomainSpec(kind, params)


def test_domain_spec_keeps_params_uncast():
    params = {"a": 1, "b": 0.9, "cut_frac": -0.5, "round_frac": 0}
    assert DomainSpec("truncated_ellipse", params).params == params
    assert type(DomainSpec("disk", {"radius": 2}).params["radius"]) is int


def test_nonpositive_fourier_radius_rejected():
    with pytest.raises(GeometryError, match="nonpositive"):
        build_boundary(DomainSpec("fourier", {"cos": [1.5]}), 256)


def test_self_intersecting_curve_rejected():
    # polar curves with r > 0 are always simple, so drive the
    # segment-intersection validator directly with a figure eight
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    eight = np.column_stack([np.sin(2 * t), np.sin(t)])
    with pytest.raises(GeometryError, match="intersect"):
        _check_simple(eight)
    _check_simple(np.column_stack([np.cos(t), np.sin(t)]))  # clean circle passes


def test_narrow_crossing_between_subsample_points_rejected():
    """Swapping samples 1001 and 1002 of a 2048-point circle makes segments
    1000 and 1002 cross; a check on every fourth sample would miss it."""
    t = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    circle[[1001, 1002]] = circle[[1002, 1001]]
    with pytest.raises(GeometryError, match="segments 1000 and 1002"):
        _check_simple(circle)


def all_pairs_crossings(points):
    """Reference: every pair of non-adjacent segments of the closed polyline
    tested for a proper crossing."""
    n = len(points)
    q = np.roll(points, -1, axis=0)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    return [(i, j) for i in range(n) for j in range(i + 2, n) if not (i == 0 and j == n - 1)
            and cross(points[i], q[i], points[j]) * cross(points[i], q[i], q[j]) < 0
            and cross(points[j], q[j], points[i]) * cross(points[j], q[j], q[i]) < 0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 120), swaps=st.integers(0, 2),
       wiggle=st.sampled_from([0.0, 0.2, 0.6]))
def test_check_simple_matches_all_pairs(seed, n, swaps, wiggle):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 2 * np.pi, n))
    r = 1.0 + wiggle * rng.uniform(-1, 1, n)
    points = np.column_stack([r * np.cos(t), r * np.sin(t)])
    for _ in range(swaps):
        k = rng.integers(0, n - 1)
        points[[k, k + 1]] = points[[k + 1, k]]
    expected = all_pairs_crossings(points)
    if expected:
        with pytest.raises(GeometryError, match=f"segments {expected[0][0]} and {expected[0][1]}"):
            _check_simple(points)
    else:
        _check_simple(points)


def chunked_crossings(pts, poly):
    """Reference: the crossing-number test over every (point, edge) pair,
    with one temporary per operation, chunked over polygon edges."""
    x, y = pts[:, 0], pts[:, 1]
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    inside = np.zeros(len(pts), dtype=bool)
    step = max(1, int(4e6 // max(len(pts), 1)))
    for k0 in range(0, len(poly), step):
        sl = slice(k0, k0 + step)
        a1, b1, a2, b2 = x1[sl], y1[sl], x2[sl], y2[sl]
        cond = (b1[None, :] > y[:, None]) != (b2[None, :] > y[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = a1 + (y[:, None] - b1) * (a2 - a1) / (b2 - b1)
        inside ^= np.bitwise_xor.reduce(cond & (x[:, None] < xi), axis=1)
    return inside


# points x edges: the reference forms one chunk; two chunks, the last of
# 167 edges; three chunks, the last of 803 edges
@pytest.mark.parametrize("n_pts, n_edges", [(300, 40), (3000, 1500), (2500, 4003)])
def test_points_in_polygon_matches_reference(n_pts, n_edges):
    """Bitwise equal to the reference on a random star polygon with vertices
    rounded to a grid, so with horizontal and zero-length edges, and on
    random grid points, vertices and edge midpoints."""
    rng = np.random.default_rng(n_pts + n_edges)
    t = np.sort(rng.uniform(0, 2 * np.pi, n_edges))
    r = rng.uniform(0.4, 1.0, n_edges)
    poly = np.round(np.column_stack([r * np.cos(t), r * np.sin(t)]) * 16) / 16
    pts = np.round(rng.uniform(-1.1, 1.1, (n_pts, 2)) * 16) / 16
    k = n_pts // 4
    pts[:k] = poly[rng.integers(0, n_edges, k)]
    i = rng.integers(0, n_edges, k)
    pts[k:2 * k] = 0.5 * (poly[i] + poly[(i + 1) % n_edges])
    inside = _points_in_polygon(pts, poly)
    assert 0 < inside.sum() < n_pts
    assert np.array_equal(inside, chunked_crossings(pts, poly))


def test_points_in_polygon_memory_bound():
    """At points x edges = 8e6 the traced peak stays within 8 MB: the
    (edge, point) pairs are formed a bounded chunk at a time, both on a
    circle, where about two edges meet each point's horizontal, and on a
    zig-zag whose every edge spans the full height, so that every pair is
    formed.  The results equal the reference."""
    n = 4000
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    zigzag = np.column_stack([np.linspace(-1, 1, n), np.where(np.arange(n) % 2, 1.0, -1.0)])
    pts = np.random.default_rng(0).uniform(-1, 1, (2000, 2))
    for poly in (circle, zigzag):
        tracemalloc.start()
        try:
            inside = _points_in_polygon(pts, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"
        assert np.array_equal(inside, chunked_crossings(pts, poly))


def test_truncated_ellipse_shape():
    spec = DomainSpec("truncated_ellipse", {"a": 1.1, "b": 0.9})
    curve = build_boundary(spec, 2048)
    # chord at x = -0.65 a replaces the arc left of it
    assert curve.points[:, 0].min() >= -0.65 * 1.1 - 1e-6
    assert curve.points[:, 0].max() == pytest.approx(1.1, abs=1e-3)
    # parameter origin on the positive x axis
    assert curve.points[0, 1] == pytest.approx(0.0, abs=1e-2)
    assert curve.area() > 0


# --- electrodes ----------------------------------------------------------

def test_disk_16_electrodes_at_half_coverage():
    curve = build_boundary(DomainSpec("disk", {}), 1024)
    layout = place_electrodes(curve, 16, 0.5)
    S = curve.total_length
    assert np.allclose(layout.arcs[:, 1], 0.5 * S / 16)
    # gaps between consecutive arcs equal the arc length
    starts = np.sort(layout.arcs[:, 0])
    gaps = np.diff(np.append(starts, starts[0] + S)) - layout.arcs[0, 1]
    assert np.allclose(gaps, 0.5 * S / 16)
    assert layout.arcs[0, 1] == pytest.approx(np.pi / 16, rel=1e-4)


def test_two_electrodes_symmetric():
    curve = build_boundary(DomainSpec("disk", {}), 512)
    layout = place_electrodes(curve, 2, 0.5)
    S = curve.total_length
    assert np.allclose(layout.arcs[:, 1], S / 4)
    mids = (layout.arcs[:, 0] + layout.arcs[:, 1] / 2) % S
    assert np.isclose((mids[1] - mids[0]) % S, S / 2)


def test_ellipse_arcs_disjoint_and_equal():
    curve = build_boundary(DomainSpec("ellipse", {"a": 1.25, "b": 0.8}), 2048)
    layout = place_electrodes(curve, 16, 0.5)
    S = curve.total_length
    assert np.ptp(layout.arcs[:, 1]) < 1e-6
    # direct interval arithmetic: arcs pairwise disjoint on the circle
    ivs = sorted((s, s + l) for s, l in layout.arcs)
    for (s0, e0), (s1, e1) in zip(ivs, ivs[1:]):
        assert e0 < s1
    assert ivs[-1][1] - S < ivs[0][0]
    # midpoints equally spaced within 2%
    mids = np.sort((layout.arcs[:, 0] + layout.arcs[:, 1] / 2) % S)
    spaces = np.diff(np.append(mids, mids[0] + S))
    assert np.all(np.abs(spaces - S / 16) <= 0.02 * S / 16)


def test_bad_coverage_rejected():
    curve = build_boundary(DomainSpec("disk", {}), 512)
    with pytest.raises(GeometryError):
        place_electrodes(curve, 16, 1.0)
    with pytest.raises(GeometryError):
        place_electrodes(curve, 1, 0.5)


@pytest.mark.parametrize("coverage", [1e-300, 1e-17])
def test_vanishing_electrodes_rejected(coverage):
    """A coverage so small that an electrode's two ends coincide in floating
    point would leave the electrode without a boundary edge; it is rejected
    by name instead."""
    curve = build_boundary(DomainSpec("disk", {}), 512)
    with pytest.raises(GeometryError, match=f"coverage {coverage!r} gives electrodes"):
        place_electrodes(curve, 16, coverage)
    place_electrodes(curve, 16, 1e-12)


@pytest.mark.parametrize("z", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_contact_impedance_rejected(z):
    curve = build_boundary(DomainSpec("disk", {}), 512)
    with pytest.raises(GeometryError, match="contact impedance"):
        place_electrodes(curve, 16, 0.5, contact_impedance=z)


# --- triangulation -------------------------------------------------------

def test_disk_mesh_counts_and_areas(disk_mesh):
    assert 1650 <= disk_mesh.n_elements <= 2750
    areas = disk_mesh.areas()
    assert np.all(areas > 0)
    assert abs(areas.sum() - np.pi) <= 0.01 * np.pi


def test_euler_formula(disk_mesh):
    edges = set()
    for a, b, c in disk_mesh.triangles:
        for e in ((a, b), (b, c), (c, a)):
            edges.add(tuple(sorted(e)))
    euler = disk_mesh.n_nodes - len(edges) + disk_mesh.n_elements
    assert euler == 1


def test_mesh_is_conforming(disk_mesh):
    from collections import Counter
    count = Counter()
    for a, b, c in disk_mesh.triangles:
        for e in ((a, b), (b, c), (c, a)):
            count[tuple(sorted(e))] += 1
    assert set(count.values()) <= {1, 2}
    boundary = [e for e, n in count.items() if n == 1]
    assert len(boundary) == len(disk_mesh.boundary_edges)


def test_boundary_edges_form_single_loop(disk_mesh):
    succ = {e.nodes[0]: e.nodes[1] for e in disk_mesh.boundary_edges}
    start = disk_mesh.boundary_edges[0].nodes[0]
    node, seen = start, 0
    while True:
        node = succ[node]
        seen += 1
        if node == start:
            break
    assert seen == len(disk_mesh.boundary_edges)


def loop_boundary_edges(simplices, n_boundary, s_nodes, layout):
    """Reference: edge counts in a Counter, one `contains_s` call per edge."""
    count = Counter()
    for a, b, c in simplices:
        for e in ((a, b), (b, c), (c, a)):
            count[tuple(sorted(e))] += 1
    if {e for e, c in count.items() if c == 1} != {
            tuple(sorted((k, (k + 1) % n_boundary))) for k in range(n_boundary)}:
        raise GeometryError("mismatched edges")
    S = layout.total_length
    edges = []
    for k in range(n_boundary):
        a, b = k, (k + 1) % n_boundary
        s0 = s_nodes[a]
        seg = (s_nodes[b] - s0) % S
        if seg == 0:
            seg = S
        e = layout.contains_s((s0 + seg / 2) % S)[0]
        edges.append(BoundaryEdge(nodes=(a, b), s_interval=(s0, s0 + seg),
                                  electrode=(int(e) if e >= 0 else None)))
    return tuple(edges)


def test_boundary_loop_matches_per_edge_loop(disk_layout, disk_mesh):
    s_nodes = np.array([e.s_interval[0] for e in disk_mesh.boundary_edges])
    args = (disk_mesh.triangles, len(s_nodes), s_nodes, disk_layout)
    assert _extract_boundary_loop(*args) == loop_boundary_edges(*args)
    holed = (disk_mesh.triangles[1:],) + args[1:]
    for extract in (_extract_boundary_loop, loop_boundary_edges):
        with pytest.raises(GeometryError, match="mismatched edges"):
            extract(*holed)


def test_electrode_arcs_resolved_by_edges(disk_curve, disk_layout, disk_mesh):
    # tagged edge lengths reproduce each electrode arc within one edge length
    S = disk_layout.total_length
    max_edge = max(e.s_interval[1] - e.s_interval[0] for e in disk_mesh.boundary_edges)
    tagged = np.zeros(16)
    for e in disk_mesh.boundary_edges:
        if e.electrode is not None:
            tagged[e.electrode] += e.s_interval[1] - e.s_interval[0]
    assert np.all(np.abs(tagged - disk_layout.arcs[:, 1]) <= max_edge + 1e-12)
    # arc endpoints coincide with boundary nodes
    node_s = {e.s_interval[0] % S for e in disk_mesh.boundary_edges}
    for s0, length in disk_layout.arcs:
        assert min(abs(s0 - s) % S for s in node_s) < 1e-9 or \
               min(S - abs(s0 - s) % S for s in node_s) < 1e-9


def test_refinement_area_error_decreases(disk_curve, disk_layout):
    errors = []
    for target in (550, 1100, 2200):
        mesh = triangulate(disk_curve, disk_layout, target)
        errors.append(abs(mesh.areas().sum() - np.pi))
    assert errors[0] > errors[1] > errors[2]


def test_straight_chord_meshes_without_slivers():
    """Qhull fans the collinear nodes of this chord into zero-area slivers;
    they are dropped and the mesh still closes on the sampled boundary."""
    spec = DomainSpec("truncated_ellipse", {"a": 1.4, "b": 0.7, "cut_frac": 0.3,
                                            "round_frac": 0.05})
    curve = build_boundary(spec, 1024)
    mesh = triangulate(curve, place_electrodes(curve, 16, 0.5), 1500)
    x, y = mesh.boundary_polygon().T
    enclosed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert mesh.areas().min() > 1e-6
    assert abs(mesh.areas().sum() - enclosed) <= 1e-12 * enclosed


@pytest.mark.parametrize("a", [1e-20, 1e-12])
def test_thin_domain_is_a_geometry_error(a):
    """An ellipse whose nodes are flat to Qhull (a = 1e-20) or whose every
    triangle is a sliver (a = 1e-12) fails with a GeometryError naming its
    width and h; a = 1e-3 still meshes."""
    curve = build_boundary(DomainSpec("ellipse", {"a": a, "b": 0.8}), 2048)
    with pytest.raises(GeometryError, match=rf"^the domain is {2 * a:.3g} wide, too thin to "
                                            r"triangulate at element size h = 0\.0107$"):
        triangulate(curve, place_electrodes(curve, 16, 0.5), 300)
    curve = build_boundary(DomainSpec("ellipse", {"a": 1e-3, "b": 0.8}), 2048)
    assert triangulate(curve, place_electrodes(curve, 16, 0.5), 300).n_elements == 254


@pytest.mark.parametrize("spec", [
    DomainSpec("disk", {}), DomainSpec("ellipse", {"a": 1.25, "b": 0.8}),
    DomainSpec("truncated_ellipse", {"a": 1.4, "b": 0.7, "cut_frac": 0.3, "round_frac": 0.05}),
    DomainSpec("fourier", {"cos": [0.0, 0.12, 0.05], "sin": [-0.04]})])
def test_triangle_rows_are_canonical(spec):
    """Each triangle row is rotated to start at its smallest node index,
    keeping its CCW orientation, and the rows are lexsorted."""
    curve = build_boundary(spec, 1024)
    mesh = triangulate(curve, place_electrodes(curve, 16, 0.5), 1500)
    tri = mesh.triangles
    assert np.array_equal(tri[:, 0], tri.min(axis=1))
    assert np.all(mesh.areas() > 0)
    assert np.array_equal(np.lexsort(tri.T[::-1]), np.arange(len(tri)))


def test_triangulate_rejects_tiny_target(disk_curve, disk_layout):
    with pytest.raises(GeometryError):
        triangulate(disk_curve, disk_layout, 50)


def test_mesh_json_schema(small_disk_mesh):
    doc = json.loads(small_disk_mesh.to_json())
    assert set(doc) == {"nodes", "triangles", "electrode_edges"}
    assert len(doc["nodes"]) == small_disk_mesh.n_nodes
    assert len(doc["triangles"]) == small_disk_mesh.n_elements
    assert all(set(e) == {"nodes", "electrode"} for e in doc["electrode_edges"])
    tagged = {tuple(sorted(e.nodes)) for e in small_disk_mesh.boundary_edges
              if e.electrode is not None}
    assert len(doc["electrode_edges"]) == len(tagged)


# --- pixel lattice -------------------------------------------------------

def test_lattice_production_size(disk_mesh):
    lat = build_pixel_lattice(disk_mesh, 437)
    assert 394 <= lat.n_active <= 481


def test_lattice_single_pixel(small_disk_mesh):
    lat = build_pixel_lattice(small_disk_mesh, 1)
    assert lat.n_active == 1
    assert np.all(lat.element_to_pixel == 0)


def test_lattice_map_total_and_no_orphans(disk_mesh):
    lat = build_pixel_lattice(disk_mesh, 437)
    e2p = lat.element_to_pixel
    assert e2p.shape == (disk_mesh.n_elements,)
    assert e2p.min() >= 0 and e2p.max() < lat.n_active
    # exhaustive audit: every active pixel referenced by at least one triangle
    assert set(np.unique(e2p)) == set(range(lat.n_active))


def test_lattice_deterministic(disk_mesh):
    a = build_pixel_lattice(disk_mesh, 437)
    b = build_pixel_lattice(disk_mesh, 437)
    assert a.grid_n == b.grid_n
    assert np.array_equal(a.active_ij, b.active_ij)
    assert np.array_equal(a.element_to_pixel, b.element_to_pixel)


def test_lattice_target_too_large(small_disk_mesh):
    with pytest.raises(GeometryError, match="rank-deficient"):
        build_pixel_lattice(small_disk_mesh, small_disk_mesh.n_elements + 1)


def loop_neighbor_pairs(lattice):
    """Reference: the active-cell dict and per-pixel loop over (1, 0), (0, 1)."""
    index = {(int(i), int(j)): k for k, (i, j) in enumerate(lattice.active_ij)}
    pairs = []
    for k, (i, j) in enumerate(lattice.active_ij):
        for di, dj in ((1, 0), (0, 1)):
            other = index.get((int(i) + di, int(j) + dj))
            if other is not None:
                pairs.append((k, other))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def test_neighbor_pairs_are_4_neighborhood(small_lattice):
    assert np.array_equal(small_lattice.neighbor_pairs(), loop_neighbor_pairs(small_lattice))
    cells = {tuple(ij) for ij in small_lattice.active_ij}
    for a, b in small_lattice.neighbor_pairs():
        ia, ib = small_lattice.active_ij[a], small_lattice.active_ij[b]
        assert abs(ia[0] - ib[0]) + abs(ia[1] - ib[1]) == 1
        assert tuple(ia) in cells and tuple(ib) in cells


# --- set-up identities -----------------------------------------------------

DIGEST_DOMAINS = dict({name: config.true_domain for name, config in builtin_configs().items()},
                      disk=DomainSpec("disk", {}))


def mesh_digest(mesh):
    """sha256 of the nodes, the triangles as <i8, the boundary-edge tuples
    and the element map and active cells of the mesh's 40-pixel lattice."""
    lattice = build_pixel_lattice(mesh, 40)
    edges = mesh.boundary_edges
    h = hashlib.sha256()
    for a in (mesh.nodes.astype("<f8"), mesh.triangles.astype("<i8"),
              np.array([e.nodes for e in edges], dtype="<i8"),
              np.array([e.s_interval for e in edges], dtype="<f8"),
              np.array([-1 if e.electrode is None else e.electrode for e in edges], dtype="<i8"),
              lattice.element_to_pixel.astype("<i8"), lattice.active_ij.astype("<i8")):
        h.update(a.tobytes())
    return h.hexdigest()


# (domain, elements, electrodes) -> mesh_digest, on 2048-sample curves with
# electrodes at half coverage
PINNED_MESH_DIGESTS = {
    ("case1_ellipse", 300, 16):
        "5a58b1cd6f7be3bf83dad6f5c0a5db27f475b2f0e40d89325c3ecf2bbf94bdb5",
    ("case1_ellipse", 300, 32):
        "ba66cb1f48a8df6ebb9d0684700d5104f4d4edbcae6ddb040800bba52841aecb",
    ("case1_ellipse", 2350, 16):
        "c566ab6727ba10c812bd5d158d40c6c48b66596a794d7df9bbd4b1610f988e4b",
    ("case1_ellipse", 2350, 32):
        "4babe75c84c267b05ae0678289556dece27d529542f2564072ec70e72cdaa89e",
    ("case2_truncated_ellipse", 300, 16):
        "7c29f65f7a172c470bd7cb6c27294bc38e3682f5611f4ec0cc767db90ff4b54e",
    ("case2_truncated_ellipse", 300, 32):
        "8ab6b1321290ecfa9c4bb57b3fac4b25111261b6827579428f2695f8f89e18b7",
    ("case2_truncated_ellipse", 2350, 16):
        "ba593424ebb1cdffc1e25c3e3bfaea33ad1e4d7ed6b2a5ee29f9298f08c4b2e4",
    ("case2_truncated_ellipse", 2350, 32):
        "98c5aa0ed2d147cd86661076e341f2d2aaaddd965e4b32140c783c6d67affaba",
    ("case3_fourier", 300, 16):
        "8660130f0ac408f68842699a9d5d50fb79efa18ffb18b6e7c043a3174b98dd1e",
    ("case3_fourier", 300, 32):
        "ac4c19551f73f29a9a43f7632c9c2d080128a0a25084e68e373bb3a068d60fc5",
    ("case3_fourier", 2350, 16):
        "1666b549b6a81a93f43c8a132ac044889c59955daeea65216cec7338703ebbc6",
    ("case3_fourier", 2350, 32):
        "a0192de7c8213add1b516816a45fa22105ca252008d904db98606117223c541b",
    # the forward-sweep benchmark mesh, where most lattice nodes lie deeper
    # than the band Qhull sees
    ("case3_fourier", 8500, 32):
        "39ae97a87094a6ae47267d9042943d4d2205bb555cd1cf2434256d6582c9886b",
    ("disk", 300, 16):
        "3da6d117f3b7fb8e10a99818cc99355a545ca73a7153ae03d22a257adaa19229",
    ("disk", 300, 32):
        "8ea1c2a79e89f76bde3fb71213477d43f9b32222caaa1f15c0193aec65c99d37",
    ("disk", 2350, 16):
        "980b5fcd1aab1ce0ccd504826283681c7d92cfbb8070a421bc4cb18f95f89665",
    ("disk", 2350, 32):
        "0fa60d86e99e435bcede72a7018e2a3c63a685e48eb638d754fcdb24e7f5dd7e",
}


@pytest.mark.parametrize("name", sorted(DIGEST_DOMAINS))
def test_meshes_match_pinned_digests(name):
    curve = build_boundary(DIGEST_DOMAINS[name], 2048)
    for (domain, target, J), digest in PINNED_MESH_DIGESTS.items():
        if domain == name:
            mesh = triangulate(curve, place_electrodes(curve, J, 0.5), target)
            assert mesh_digest(mesh) == digest, (target, J)


def operator_digest(op):
    """sha256 of a CEM operator's factor order, its CSC pattern and the
    data, indices and indptr of its data map."""
    h = hashlib.sha256()
    m = op.data_map
    for a in (op.order.astype("<i8"), op.indices.astype("<i8"), op.indptr.astype("<i8"),
              m.data.astype("<f8"), m.indices.astype("<i8"), m.indptr.astype("<i8")):
        h.update(a.tobytes())
    return h.hexdigest()


# (domain, elements, electrodes) -> operator_digest on the meshes of
# PINNED_MESH_DIGESTS, pinned while the operator sorted one key per entry and
# tensor component and read its order off a full SuperLU factor
PINNED_OPERATOR_DIGESTS = {
    ("case1_ellipse", 300, 16):
        "9e38e1b17e37871237168664edce2bd6f0b2fb89880c919933a858ca4a46f7f9",
    ("case1_ellipse", 300, 32):
        "94b67ed35fb25dc5d49e5b22f4f753250e316c1e4f28545237c6d847391b67fa",
    ("case1_ellipse", 2350, 16):
        "ab7d0ed267fd3c14049b3c81cf1549d419bb12e0e3f0a8d3340be61c2432e2dc",
    ("case1_ellipse", 2350, 32):
        "041b6bbf57902416daad892e19841909496abd85043e66b0a94da29f014f3edf",
    ("case2_truncated_ellipse", 300, 16):
        "99d643ce500ff58a0f8b0d648f3fdf03fbf1ad2b92e13f075fbe0b004ddb638a",
    ("case2_truncated_ellipse", 300, 32):
        "d0edf2205169cdfda8f155f53d20e14608d2a7e94c1313027a4efa8f8bb11f87",
    ("case2_truncated_ellipse", 2350, 16):
        "fc392d65495109e6d59a66d3448147293a1a0cae64b59fa220fb84138002c219",
    ("case2_truncated_ellipse", 2350, 32):
        "1994dbddc1ea0c7b8acbdf25bacc639029c8023689b92929a6da1c8317b69eac",
    ("case3_fourier", 300, 16):
        "13c8b72bef69c2211bb52e60c91c2ee65979efdc1fdd7a2ca4c34884f3bc17eb",
    ("case3_fourier", 300, 32):
        "18cd1e60de80252ab12c00d15a68639e2ba0f9e895a68c8766e899ebc58b4eb9",
    ("case3_fourier", 2350, 16):
        "652f020a05a6b24aa15a77f8113ffc030b4a41ffa2d482a4a089c8ab6cc9b793",
    ("case3_fourier", 2350, 32):
        "535e1f58f7ecfb56f15e5d69cc18a35511ee3f95ad94f3491666d835e8f4d541",
    ("case3_fourier", 8500, 32):
        "90665eb835c2088bd588a50608cd2022ac1cb1063f881e03459c5c820ddfa6f4",
    ("disk", 300, 16):
        "5bb42495e11df34fca87046d63e91545a5db17c4eb76f6a0d91a32ad64c29289",
    ("disk", 300, 32):
        "258d80a16f0ca826f1c8dbc7b2e77d03144681a70f9fa93fbb74a63710da8401",
    ("disk", 2350, 16):
        "b338f3c6aac0d21e4f7eae0d20b355be3a1516360804df686a8d93a39c06599c",
    ("disk", 2350, 32):
        "b5a7982188e2e7a5297595f25be5322d943cfdf7e91e3b23f7aabc167a33e1b6",
}


@pytest.mark.parametrize("name", sorted(DIGEST_DOMAINS))
def test_operators_match_pinned_digests(name):
    curve = build_boundary(DIGEST_DOMAINS[name], 2048)
    for (domain, target, J), digest in PINNED_OPERATOR_DIGESTS.items():
        if domain == name:
            mesh = triangulate(curve, place_electrodes(curve, J, 0.5), target)
            assert operator_digest(CEMOperator(mesh)) == digest, (target, J)


def full_delaunay_at_h(curve, layout, h):
    """Reference `_triangulate_at_h`: the lattice built row by row, the
    unbounded clearance query, the all-pairs, xor-reduced crossing test and
    one Qhull call on the whole node set."""
    s_nodes = geometry._boundary_node_positions(curve, layout, h)
    bpts = curve.point_at(s_nodes)
    x0, y0 = curve.points.min(axis=0) - h
    x1, y1 = curve.points.max(axis=0) + h
    rows = []
    for r, y in enumerate(np.arange(y0, y1, h * np.sqrt(3) / 2)):
        xs = np.arange(x0 + (h / 2 if r % 2 else 0.0), x1, h)
        rows.append(np.column_stack([xs, np.full(xs.shape, y)]))
    lattice = np.vstack(rows)
    lattice = lattice[chunked_crossings(lattice, curve.points)]
    S = curve.total_length
    dense = curve.point_at(np.arange(0, S, min(h / 6, S / 2048)))
    lattice = lattice[cKDTree(dense).query(lattice)[0] > 0.62 * h]
    nodes = np.vstack([bpts, lattice])
    simplices = Delaunay(nodes).simplices
    twice_area = geometry._twice_areas(nodes, simplices)
    simplices = np.where((twice_area < 0)[:, None], simplices[:, [0, 2, 1]], simplices)
    p = nodes[simplices]
    longest = ((p - np.roll(p, 1, axis=1)) ** 2).sum(axis=2).max(axis=1)
    simplices = simplices[chunked_crossings(p.mean(axis=1), bpts)
                          & (np.abs(twice_area) > 1e-9 * longest)]
    roll = np.argmin(simplices, axis=1)[:, None]
    simplices = np.take_along_axis(simplices, (roll + np.arange(3)) % 3, axis=1)
    simplices = simplices[np.lexsort(simplices.T[::-1])]
    edges = _extract_boundary_loop(simplices, len(bpts), s_nodes, layout)
    return geometry.Mesh(nodes=nodes, triangles=simplices, boundary_edges=edges)


def triangulated(curve, layout, target):
    """The mesh `triangulate` builds, or the GeometryError it raises."""
    try:
        return triangulate(curve, layout, target)
    except GeometryError as exc:
        return str(exc)


# the straight chord of the truncated ellipse and the cocircular boundary
# nodes of the disk are the degenerate inputs
MESH_DOMAINS = st.one_of(
    st.builds(lambda r: DomainSpec("disk", {"radius": r}), st.floats(0.5, 2.0)),
    st.builds(lambda a, b: DomainSpec("ellipse", {"a": a, "b": b}),
              st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
    st.builds(lambda a, b, cut, r: DomainSpec("truncated_ellipse", {
        "a": a, "b": b, "cut_frac": cut, "round_frac": r}),
              st.floats(0.6, 1.5), st.floats(0.6, 1.5), st.floats(-0.8, 0.5),
              st.floats(0.005, 0.08)),
    st.builds(lambda terms: DomainSpec("fourier", {"cos": [c for c, _ in terms],
                                                   "sin": [s for _, s in terms]}),
              st.lists(st.tuples(st.floats(-0.12, 0.12), st.floats(-0.12, 0.12)),
                       min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(spec=MESH_DOMAINS, target=st.integers(300, 3000), J=st.sampled_from([4, 8, 16, 32]),
       coverage=st.floats(0.2, 0.9))
def test_triangulate_matches_unbounded_search_and_xor_parity(spec, target, J, coverage):
    """Qhull on the boundary band plus the deep lattice's own triangles, the
    bounded clearance query and the y-binned crossing test give the mesh of
    one Qhull call on all the nodes, the unbounded query and the all-pairs,
    xor-reduced crossing reference."""
    curve = build_boundary(spec, 1024)
    layout = place_electrodes(curve, J, coverage)
    mesh = triangulated(curve, layout, target)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_triangulate_at_h", full_delaunay_at_h)
        reference = triangulated(curve, layout, target)
    assert type(mesh) is type(reference)
    if isinstance(reference, str):
        assert mesh == reference
    else:
        assert np.array_equal(mesh.nodes, reference.nodes)
        assert np.array_equal(mesh.triangles, reference.triangles)
        assert mesh.triangles.dtype == reference.triangles.dtype
        assert mesh.boundary_edges == reference.boundary_edges


def keyed_per_component_operator(mesh):
    """(order, indices, indptr, data_map) of the CEM operator built with one
    pattern key per (matrix entry, tensor component) and the node order read
    off a full symmetric-mode SuperLU factor of the coupling pattern."""
    tri = mesh.triangles
    p = mesh.nodes[tri]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    areas = 0.5 * (x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])
    ea, eb, ej = np.array([(*e.nodes, e.electrode) for e in mesh.boundary_edges
                           if e.electrode is not None], dtype=int).reshape(-1, 3).T
    n, T, J = mesh.n_nodes, mesh.n_elements, int(ej.max()) + 1
    size = n + J + 1
    i, j = np.nonzero(~np.eye(3, dtype=bool))
    pattern = (sp.csc_matrix((np.full(6 * T, -1.0), (tri[:, i].ravel(), tri[:, j].ravel())),
                             shape=(n, n))
               + sp.identity(n, format="csc") * (6.0 * T + 1.0))
    lu = splu(pattern, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    tail = n + np.arange(J + 1)
    tail[-2:] = tail[-2:][::-1]
    order = np.concatenate([np.argsort(lu.perm_c), tail])
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    i, j = np.divmod(np.arange(9), 3)
    stiff = np.stack([b[:, i] * b[:, j], b[:, i] * c[:, j] + c[:, i] * b[:, j],
                      c[:, i] * c[:, j]], axis=2) / (4.0 * areas)[:, None, None]
    ell = np.linalg.norm(mesh.nodes[ea] - mesh.nodes[eb], axis=1)
    edge = np.outer(ell, [1 / 3, 1 / 6, 1 / 6, 1 / 3, -1 / 2, -1 / 2, -1 / 2, -1 / 2, 1])
    U, Us, gauge = n + ej, n + np.arange(J), np.full(J, n + J)
    rows = np.concatenate([np.repeat(tri[:, i], 3, axis=1).ravel(),
                           np.stack([ea, ea, eb, eb, ea, eb, U, U, U], axis=1).ravel(),
                           gauge, Us])
    cols = np.concatenate([np.repeat(tri[:, j], 3, axis=1).ravel(),
                           np.stack([ea, eb, ea, eb, U, U, ea, eb, U], axis=1).ravel(),
                           Us, gauge])
    inputs = np.concatenate([np.arange(3 * T).reshape(T, 1, 3).repeat(9, axis=1).ravel(),
                             np.repeat(3 * T + ej, 9), np.full(2 * J, 3 * T + J)])
    coef = np.concatenate([stiff.ravel(), edge.ravel(), np.ones(2 * J)])
    keys, position = np.unique(rank[cols] * size + rank[rows], return_inverse=True)
    indptr = np.cumsum(np.bincount(keys // size + 1, minlength=size + 1))
    data_map = sp.csr_matrix((coef, (position, inputs)), shape=(len(keys), 3 * T + J + 1))
    return order, keys % size, indptr, data_map


@settings(max_examples=100, deadline=None)
@given(spec=MESH_DOMAINS, target=st.integers(100, 6000), J=st.sampled_from([4, 8, 16, 32]),
       coverage=st.floats(0.2, 0.9))
def test_operator_matches_the_per_component_construction(spec, target, J, coverage):
    """One pattern key per matrix entry, expanded to the three tensor
    components, and the order read off an incomplete factor that drops every
    entry give the operator of 27 keys per element and a full factor."""
    curve = build_boundary(spec, 1024)
    mesh = triangulated(curve, place_electrodes(curve, J, coverage), target)
    if isinstance(mesh, str):
        return
    op = CEMOperator(mesh)
    order, indices, indptr, data_map = keyed_per_component_operator(mesh)
    assert np.array_equal(op.order, order)
    assert np.array_equal(op.indices, indices) and np.array_equal(op.indptr, indptr)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(op.data_map, part), getattr(data_map, part)), part


@functools.lru_cache(maxsize=None)
def fourier_mesh():
    curve = build_boundary(LOCATE_DOMAINS["fourier"], 1024)
    return triangulate(curve, place_electrodes(curve, 16, 0.5), 1500)


@settings(max_examples=25, deadline=None)
@given(target_M=st.integers(1, 1000))
def test_lattice_grid_is_the_smallest(target_M):
    """Every smaller square grid over the bounding box has fewer than
    target_M cell centres inside the boundary polygon."""
    mesh = fourier_mesh()
    lattice = build_pixel_lattice(mesh, target_M)
    assert lattice.n_active >= 1
    x0, y0, x1, y1 = lattice.bbox
    poly = mesh.boundary_polygon()
    for n in range(1, lattice.grid_n):
        c = np.arange(n) + 0.5
        ix, iy = np.meshgrid(c * ((x1 - x0) / n) + x0, c * ((y1 - y0) / n) + y0, indexing="ij")
        assert chunked_crossings(np.column_stack([ix.ravel(), iy.ravel()]), poly).sum() < target_M


# --- point location ------------------------------------------------------

LOCATE_DOMAINS = {
    "disk": DomainSpec("disk", {}),
    "ellipse": DomainSpec("ellipse", {"a": 1.3, "b": 0.7}),
    "fourier": DomainSpec("fourier", {"cos": [0.0, 0.15], "sin": [0.0, 0.0, 0.1]}),
}


@functools.lru_cache(maxsize=None)
def locate_mesh(kind):
    curve = build_boundary(LOCATE_DOMAINS[kind], 256)
    return triangulate(curve, place_electrodes(curve, 8, 0.5), 150)


def brute_force_locate(mesh, pts, tol):
    """Reference: every element tested against every point; assigning in
    element order leaves the highest-index containing element."""
    out = np.full(len(pts), -1)
    for e, (a, b, c) in enumerate(mesh.nodes[mesh.triangles]):
        d = (b[1] - c[1]) * (a[0] - c[0]) + (c[0] - b[0]) * (a[1] - c[1])
        l1 = ((b[1] - c[1]) * (pts[:, 0] - c[0]) + (c[0] - b[0]) * (pts[:, 1] - c[1])) / d
        l2 = ((c[1] - a[1]) * (pts[:, 0] - c[0]) + (a[0] - c[0]) * (pts[:, 1] - c[1])) / d
        l3 = 1.0 - l1 - l2
        out[(l1 >= -tol) & (l2 >= -tol) & (l3 >= -tol)] = e
    return out


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(LOCATE_DOMAINS)), seed=st.integers(0, 2 ** 32 - 1),
       tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7]))
def test_locate_points_matches_brute_force(kind, seed, tol):
    mesh = locate_mesh(kind)
    rng = np.random.default_rng(seed)
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    tri = mesh.nodes[mesh.triangles[rng.integers(0, mesh.n_elements, 40)]]
    t = rng.uniform(0, 1, (40, 1))
    vertices = rng.choice(mesh.n_nodes, 40, replace=False)
    pts = np.vstack([
        rng.uniform(lo - 0.3, hi + 0.3, (200, 2)),     # inside and outside
        mesh.nodes[vertices],                           # shared vertices
        (tri[:, 0] + tri[:, 1]) / 2,                    # edge midpoints
        t * tri[:, 1] + (1 - t) * tri[:, 2],            # points along edges
        mesh.nodes[vertices] + rng.uniform(-0.1, 0.1, (40, 2)) * tol,  # within tol
        rng.uniform(hi + 0.01, hi + 1.0, (10, 2)),      # beyond the mesh
    ])
    got = locate_points(mesh, pts, tol)
    assert np.array_equal(got, brute_force_locate(mesh, pts, tol))
    # a vertex lies in exactly its incident elements; the highest index wins
    incident = [np.flatnonzero((mesh.triangles == v).any(axis=1)).max() for v in vertices]
    assert np.array_equal(got[200:240], incident)
    assert np.all(got[-10:] == -1)


def test_locate_points_rejects_bad_queries(small_disk_mesh):
    assert np.array_equal(locate_points(small_disk_mesh, [0.0, 0.0]),
                          locate_points(small_disk_mesh, [[0.0, 0.0]]))
    for bad in (np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(GeometryError, match=r"shape \(P, 2\)"):
            locate_points(small_disk_mesh, bad)
    pts = np.zeros((5, 2))
    pts[3, 1] = np.inf
    pts[4, 0] = np.nan
    with pytest.raises(GeometryError, match="query point 3 is not finite"):
        locate_points(small_disk_mesh, pts)


NOT_INTEGERS = (True, 2350.5, float("nan"), float("inf"), "40")


@pytest.mark.parametrize("check, message", [
    (lambda curve, layout, mesh: triangulate(
        dataclasses.replace(curve, points=curve.points[::-1].copy()), layout, 500),
     "boundary curve must be CCW with positive area"),
    (lambda curve, layout, mesh: build_pixel_lattice(mesh, 0), "target_M must be positive"),
] + [(lambda curve, layout, mesh, v=value: triangulate(curve, layout, v),
      rf"target_elements must be an integer, got {re.escape(repr(value))}")
     for value in NOT_INTEGERS
] + [(lambda curve, layout, mesh, v=value: build_pixel_lattice(mesh, v),
      rf"target_M must be an integer, got {re.escape(repr(value))}")
     for value in NOT_INTEGERS
] + [(lambda curve, layout, mesh, v=value: build_boundary(DomainSpec("disk", {}), v),
      rf"n_samples must be an integer, got {re.escape(repr(value))}")
     for value in NOT_INTEGERS + (100.5,)
] + [(lambda curve, layout, mesh, v=value: place_electrodes(curve, v, 0.5),
      rf"J must be an integer, got {re.escape(repr(value))}")
     for value in NOT_INTEGERS + (16.0,)
], ids=["clockwise curve", "target_M 0"] + [f"target_elements {v!r}" for v in NOT_INTEGERS]
   + [f"target_M {v!r}" for v in NOT_INTEGERS]
   + [f"n_samples {v!r}" for v in NOT_INTEGERS + (100.5,)]
   + [f"J {v!r}" for v in NOT_INTEGERS + (16.0,)])
def test_public_inputs_are_checked(disk_curve, disk_layout, small_disk_mesh, check, message):
    with pytest.raises(GeometryError, match=message):
        check(disk_curve, disk_layout, small_disk_mesh)


def test_public_inputs_take_numpy_integers(disk_curve, disk_layout, small_disk_mesh):
    a = triangulate(disk_curve, disk_layout, np.int64(500))
    assert np.array_equal(a.triangles, small_disk_mesh.triangles)
    b = build_pixel_lattice(small_disk_mesh, np.int32(48))
    assert np.array_equal(b.element_to_pixel,
                          build_pixel_lattice(small_disk_mesh, 48).element_to_pixel)
    curve = build_boundary(DomainSpec("disk", {}), np.int64(1024))
    assert np.array_equal(curve.points, disk_curve.points)
    layout = place_electrodes(disk_curve, np.int64(16), 0.5)
    assert np.array_equal(layout.arcs, disk_layout.arcs)
