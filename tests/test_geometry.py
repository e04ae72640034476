import dataclasses
import functools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from anisoeit.geometry import (BoundaryEdge, DomainSpec, GeometryError, _check_simple,
                               _extract_boundary_loop, _points_in_polygon, build_boundary,
                               build_pixel_lattice, locate_points, place_electrodes,
                               triangulate)


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
    """Reference: the crossing-number test with one temporary per operation,
    chunked over polygon edges as `_points_in_polygon` is."""
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


# points x edges: one chunk; two chunks, the last of 167 edges; three
# chunks, the last of 803 edges
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
    """At points x edges = 8e6 the traced peak stays within one float and
    two bool buffers of a 4e6-element chunk (40 MB) plus 8 MB."""
    t = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
    poly = np.column_stack([np.cos(t), np.sin(t)])
    pts = np.random.default_rng(0).uniform(-1, 1, (2000, 2))
    tracemalloc.start()
    try:
        _points_in_polygon(pts, poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6, f"traced peak {peak / 1e6:.1f} MB"


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


@pytest.mark.parametrize("z", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_contact_impedance_rejected(z):
    curve = build_boundary(DomainSpec("disk", {}), 512)
    with pytest.raises(GeometryError, match="contact impedance"):
        place_electrodes(curve, 16, 0.5, contact_impedance=z)


def test_rotating_offset_permutes_arcs_cyclically():
    curve = build_boundary(DomainSpec("disk", {}), 1024)
    S = curve.total_length
    base = place_electrodes(curve, 16, 0.5)
    rotated = place_electrodes(curve, 16, 0.5, start_offset=S / 16)
    # shifting the start offset by S/J maps each arc onto the next one, so
    # the arc sets coincide as arclength intervals modulo S
    assert np.allclose(np.sort(rotated.arcs[:, 0]), np.sort(base.arcs[:, 0]), atol=1e-9)
    assert np.allclose(rotated.arcs[:, 1], base.arcs[:, 1])


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


@pytest.mark.parametrize("check, message", [
    (lambda curve, layout, mesh: triangulate(
        dataclasses.replace(curve, points=curve.points[::-1].copy()), layout, 500),
     "boundary curve must be CCW with positive area"),
    (lambda curve, layout, mesh: build_pixel_lattice(mesh, 0), "target_M must be positive"),
], ids=["clockwise curve", "target_M 0"])
def test_public_inputs_are_checked(disk_curve, disk_layout, small_disk_mesh, check, message):
    with pytest.raises(GeometryError, match=message):
        check(disk_curve, disk_layout, small_disk_mesh)
