import dataclasses
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import splu

from anisoeit import fem
from anisoeit.fem import (CEMOperator, ModelError, add_noise, adjacent_protocol,
                          assemble, data_vector_from_csv, data_vector_to_csv,
                          electrode_matrix, predict, simulate_measurements,
                          solve_current_drive, solve_many)
from anisoeit.geometry import (BoundaryEdge, DomainSpec, Mesh, build_boundary,
                               place_electrodes, triangulate)
from anisoeit.harness import build_scene, builtin_configs
from anisoeit.tensors import TensorError, TensorField


@pytest.fixture(scope="module")
def disk_system(disk_mesh, disk_layout):
    field = TensorField.isotropic(1.0, disk_mesh.n_elements)
    return assemble(disk_mesh, field, disk_layout)


# --- assembly -------------------------------------------------------------

def reference_triangle(electrodes=(None, None, None)):
    """The unit right triangle as a mesh, its three edges on the given
    electrodes (none by default)."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    ends = np.cumsum([0.0, 1.0, np.sqrt(2), 1.0])
    return Mesh(nodes=nodes, triangles=tris, boundary_edges=tuple(
        BoundaryEdge(pair, (ends[k], ends[k + 1]), electrode)
        for k, (pair, electrode) in enumerate(zip(((0, 1), (1, 2), (2, 0)), electrodes))))


def test_reference_triangle_stiffness(node_order):
    # unit right triangle, unit conductivity: classical P1 element matrix
    op = CEMOperator(reference_triangle())
    assert op.J == 0
    A = op.matrix(TensorField.isotropic(1.0, 1).g, np.zeros(0))
    K = node_order(op, A).toarray()[:3, :3]
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, atol=1e-14)


def test_factor_order_without_electrodes(node_order):
    """With J = 0 the order is a permutation of the nodes, then the
    multiplier; `rank` is its inverse and the factor-order matrix is the
    node-order matrix permuted to it."""
    op = CEMOperator(reference_triangle())
    assert np.array_equal(np.sort(op.order[:3]), np.arange(3)) and op.order[3] == 3
    assert np.array_equal(op.rank[op.order], np.arange(4))
    A = op.matrix(TensorField.isotropic(1.0, 1).g, np.zeros(0))
    assert np.array_equal(node_order(op, A).toarray()[np.ix_(op.order, op.order)], A.toarray())


def test_ordered_factor_fills_less_than_colamd(node_order):
    """On the 8k-element, 32-electrode case3 mesh and on the case1 recon
    mesh, which every Gauss-Newton iterate factors, the factor in the
    operator's order has at most 0.8 times the L + U entries of SuperLU's
    own COLAMD order on the same matrix in node order."""
    curve = build_boundary(builtin_configs()["case3_fourier"].true_domain, 2048)
    layout = place_electrodes(curve, 32, 0.5)
    mesh = triangulate(curve, layout, 8500)
    assert mesh.n_elements > 8000
    scene = build_scene(builtin_configs()["case1_ellipse"])
    for mesh, layout in [(mesh, layout), (scene.mesh_recon, scene.layout_recon)]:
        system = assemble(mesh, TensorField.isotropic(1.0, mesh.n_elements), layout)
        ordered, colamd = system.factor, splu(node_order(system.operator, system.matrix))
        assert ordered.L.nnz + ordered.U.nnz <= 0.8 * (colamd.L.nnz + colamd.U.nnz)


def test_operator_build_peak_memory(monkeypatch):
    """On the 8k-element, 32-electrode case3 mesh, building the operator
    traces a peak below 16 MiB: one pattern key per matrix entry, not per
    tensor component, and no full factor for the order."""
    curve = build_boundary(builtin_configs()["case3_fourier"].true_domain, 2048)
    mesh = triangulate(curve, place_electrodes(curve, 32, 0.5), 8500)
    assert mesh.n_elements > 8000

    def no_full_factor(*args, **kwargs):
        raise AssertionError("the operator ran a full LU factorization")

    monkeypatch.setattr(fem, "splu", no_full_factor)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_full_factor)
    tracemalloc.start()
    try:
        CEMOperator(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_stiffness_linear_in_tensor(small_disk_mesh, node_order):
    op = small_disk_mesh.cem_operator
    n, no_contact = small_disk_mesh.n_nodes, np.zeros(op.J)
    f1 = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    f2 = TensorField.isotropic(2.0, small_disk_mesh.n_elements)
    v1 = node_order(op, op.matrix(f1.g, no_contact))[:n, :n].toarray()
    v2 = node_order(op, op.matrix(f2.g, no_contact))[:n, :n].toarray()
    assert np.allclose(v2, 2.0 * v1, rtol=1e-15)


def test_operator_is_built_once_per_mesh(small_disk_mesh, disk_layout):
    f1 = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    f2 = TensorField.isotropic(2.0, small_disk_mesh.n_elements)
    s1 = assemble(small_disk_mesh, f1, disk_layout)
    s2 = assemble(small_disk_mesh, f2, disk_layout)
    assert s1.operator is s2.operator is small_disk_mesh.cem_operator


def test_energy_identity_random_fields(small_disk_mesh, disk_layout, node_order, cem_energy):
    """For v = (u, U, 0): v'Av = sum_e area_e grad(u)' gamma_e grad(u)
    + sum_j (1/z_j) int_{e_j} (u - U_j)^2 ds, with the right-hand side
    evaluated edge by edge, on random SPD fields and contact impedances."""
    mesh = small_disk_mesh
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, c = rng.uniform(0.2, 3.0, (2, mesh.n_elements))
        g = np.column_stack([a, rng.uniform(-0.9, 0.9, mesh.n_elements) * np.sqrt(a * c), c])
        z = rng.uniform(0.05, 5.0, disk_layout.J)
        layout = dataclasses.replace(disk_layout, contact_impedances=z)
        A = node_order(mesh.cem_operator, assemble(mesh, TensorField(g=g), layout).matrix)
        u, U = rng.normal(size=mesh.n_nodes), rng.normal(size=disk_layout.J)
        v = np.concatenate([u, U, [0.0]])
        energy = cem_energy(mesh, g, z, u, U)
        assert abs(v @ (A @ v) - energy) <= 1e-12 * energy


def test_assembled_matrix_symmetric(disk_system, node_order):
    M = node_order(disk_system.operator, disk_system.matrix)
    asym = abs(M - M.T).max()
    assert asym <= 1e-14 * abs(M).max()


def test_assemble_rejects_non_spd(disk_mesh):
    g = np.ones((disk_mesh.n_elements, 3))
    g[:, 1] = 0.0
    g[7] = [1.0, 2.0, 1.0]
    with pytest.raises(TensorError, match="element 7"):
        TensorField(g=g)


# --- current drive solves --------------------------------------------------

def test_zero_pattern_zero_solution(disk_system):
    u, U = solve_current_drive(disk_system, np.zeros(16))
    assert np.abs(u).max() == 0.0 and np.abs(U).max() == 0.0


def test_incompatible_pattern_rejected(disk_system):
    with pytest.raises(ModelError, match="sum to zero"):
        solve_current_drive(disk_system, np.ones(16))


def test_solve_many_checks_its_patterns(disk_system):
    """Every caller of the stacked solve gets the checks of the one-pattern
    solve: a row that does not sum to zero and a wrong width are rejected."""
    patterns = adjacent_protocol(16).patterns.copy()
    patterns[5, 2] += 1e-3
    with pytest.raises(ModelError, match="pattern 5 must sum to zero"):
        solve_many(disk_system, patterns)
    with pytest.raises(ModelError, match=r"shape \(K, 16\)"):
        solve_many(disk_system, adjacent_protocol(15).patterns)
    with pytest.raises(ModelError, match=r"got \(1, 2, 16\)"):
        solve_current_drive(disk_system, np.zeros((2, 16)))


@pytest.mark.parametrize("nodes", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_many_rejects_non_finite_patterns(disk_system, bad, nodes):
    """A NaN passes the Kirchhoff check and a +-inf pair cancels badly; both
    are named before any solve."""
    patterns = adjacent_protocol(16).patterns.copy()
    patterns[3, [4, 9]] = [bad, -bad]
    with pytest.raises(ModelError, match="pattern 3 has a non-finite entry"):
        solve_many(disk_system, patterns, nodes=nodes)


@pytest.mark.parametrize("moved", ["perm_r", "perm_c"])
def test_electrode_solve_needs_diagonal_pivots(monkeypatch, moved):
    """The trailing-block solve holds only when no pivot left the diagonal;
    a moved pivot is an error that names it, not a silent full solve."""
    perms = {"perm_r": np.arange(6), "perm_c": np.arange(6)}
    perms[moved][[3, 4]] = [4, 3]
    stub = types.SimpleNamespace(shape=(6, 6), **perms)
    monkeypatch.setattr(fem, "splu", lambda *args, **kwargs: stub)
    op = CEMOperator(reference_triangle((0, 1, None)))  # 3 nodes, 2 electrodes, multiplier
    system = fem.CEMSystem(op.matrix(TensorField.isotropic(1.0, 1).g, np.ones(2)), op)
    with pytest.raises(ModelError, match=rf"moved pivot 3 \({moved}\)"):
        solve_many(system, np.array([[1.0, -1.0]]), nodes=False)


def test_full_solves_share_the_plan_not_their_results(small_disk_mesh, disk_layout):
    """Every full-field solve on a mesh overwrites the same band and coupling
    buffers: a solve for another field leaves earlier results untouched, no
    result aliases a buffer, and solving the first field again gives the
    same potentials bit for bit."""
    T, patterns = small_disk_mesh.n_elements, adjacent_protocol(16).patterns
    rng = np.random.default_rng(3)
    first, second = (assemble(small_disk_mesh, TensorField.isotropic(rng.uniform(0.5, 2.0, T)),
                              disk_layout) for _ in range(2))
    u1, U1 = solve_many(first, patterns)
    kept = u1.copy(), U1.copy()
    u2, U2 = solve_many(second, patterns)
    plan = small_disk_mesh.cem_operator.node_band
    for result in (u1, U1, u2, U2):
        assert not any(np.shares_memory(result, buf) for buf in (plan.band, plan.coupling))
    assert np.array_equal(u1, kept[0]) and np.array_equal(U1, kept[1])
    assert not np.allclose(U2, U1)
    again = solve_many(first, patterns)
    assert np.array_equal(again[0], kept[0]) and np.array_equal(again[1], kept[1])


def test_singular_node_block_names_its_pivot(small_disk_mesh, disk_layout):
    """With contact impedance 1e300 the node block is the bare stiffness,
    singular along the constants to working precision: the full-field solve
    names the band Cholesky pivot instead of returning meaningless values."""
    layout = dataclasses.replace(disk_layout, contact_impedances=np.full(16, 1e300))
    system = assemble(small_disk_mesh, TensorField.isotropic(1.0, small_disk_mesh.n_elements),
                      layout)
    with pytest.raises(ModelError, match=r"band Cholesky pivot \d+ of \d+"):
        solve_many(system, adjacent_protocol(16).patterns)


def test_solution_residual_small(disk_system, node_order):
    pattern = np.zeros(16)
    pattern[0], pattern[3] = 1.0, -1.0
    op = disk_system.operator
    n = op.n_nodes
    rhs = np.zeros(n + 17)
    rhs[n:n + 16] = pattern
    sol = disk_system.factor.solve(rhs[op.order])[np.argsort(op.order)]
    res = np.linalg.norm(node_order(op, disk_system.matrix) @ sol - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


def test_gauge_and_linearity(disk_system):
    pattern = np.zeros(16)
    pattern[2], pattern[9] = 1.0, -1.0
    _, U = solve_current_drive(disk_system, pattern)
    assert abs(U.sum()) < 1e-12
    _, U3 = solve_current_drive(disk_system, 3.0 * pattern)
    assert np.abs(U3 - 3.0 * U).max() < 1e-12 * np.abs(U).max() * 3


def test_mirror_symmetry_with_refinement_oracle(disk_curve):
    """Drive (+1,-1) on electrodes 0,1: reflecting across their bisector maps
    electrode k to (1 - k) mod J and negates the potential.  The defect on a
    generic mesh is discretization error, bounded by an inter-resolution
    difference oracle."""
    layout = place_electrodes(disk_curve, 16, 0.5)
    pattern = np.zeros(16)
    pattern[0], pattern[1] = 1.0, -1.0

    def solve_at(target):
        mesh = triangulate(disk_curve, layout, target)
        system = assemble(mesh, TensorField.isotropic(1.0, mesh.n_elements), layout)
        _, U = solve_current_drive(system, pattern)
        return U

    U_mid = solve_at(1100)
    U_fine = solve_at(2200)
    oracle = np.abs(U_mid - U_fine).max()  # discretization level
    pair = [(1 - k) % 16 for k in range(16)]
    defect = np.abs(U_fine + U_fine[pair]).max()
    assert defect <= 3.0 * oracle


# --- electrode matrix -------------------------------------------------------

def test_electrode_matrix_symmetry_all_domains():
    for spec in (DomainSpec("disk", {}),
                 DomainSpec("ellipse", {"a": 1.25, "b": 0.8}),
                 DomainSpec("fourier", {"cos": [0.0, 0.12, 0.05], "sin": [-0.04]})):
        curve = build_boundary(spec, 1024)
        layout = place_electrodes(curve, 16, 0.5)
        mesh = triangulate(curve, layout, 900)
        system = assemble(mesh, TensorField.isotropic(1.0, mesh.n_elements), layout)
        G, E = electrode_matrix(system)
        assert np.abs(G - G.T).max() <= 1e-10 * np.abs(G).max()
        assert np.abs(G @ np.ones(16)).max() < 1e-12
        # E inverts G on the mean-zero subspace
        Q = np.eye(16) - np.ones((16, 16)) / 16
        assert np.allclose(E @ G, Q, atol=1e-8)


def test_opposite_patterns_cancel(disk_system):
    p = np.zeros(16)
    p[4], p[11] = 1.0, -1.0
    _, U1 = solve_current_drive(disk_system, p)
    _, U2 = solve_current_drive(disk_system, -p)
    assert np.abs(U1 + U2).max() < 1e-13


def test_reciprocity(disk_system):
    rng = np.random.default_rng(0)
    G, _ = electrode_matrix(disk_system)
    for _ in range(5):
        a, b, c, d = rng.choice(16, size=4, replace=False)
        drive_cd = np.zeros(16)
        drive_cd[c], drive_cd[d] = 1.0, -1.0
        drive_ab = np.zeros(16)
        drive_ab[a], drive_ab[b] = 1.0, -1.0
        _, U1 = solve_current_drive(disk_system, drive_cd)
        _, U2 = solve_current_drive(disk_system, drive_ab)
        m1 = U1[a] - U1[b]   # measure (a,b) under drive (c,d)
        m2 = U2[c] - U2[d]   # measure (c,d) under drive (a,b)
        assert abs(m1 - m2) <= 1e-10 * max(abs(m1), 1e-3)


def test_contact_impedance_increases_diagonal_dominance(disk_curve, disk_mesh):
    field = TensorField.isotropic(1.0, disk_mesh.n_elements)
    lay1 = place_electrodes(disk_curve, 16, 0.5, contact_impedance=1.0)
    lay2 = place_electrodes(disk_curve, 16, 0.5, contact_impedance=2.0)
    G1, _ = electrode_matrix(assemble(disk_mesh, field, lay1))
    G2, _ = electrode_matrix(assemble(disk_mesh, field, lay2))

    def dominance(G):
        # mean-zero rows force trace == sum|offdiag|, so measure per-row:
        # diagonal against the largest off-diagonal coupling
        off = np.abs(G - np.diag(np.diag(G))).max(axis=1)
        return (np.diag(G) / off).min()

    assert dominance(G2) > dominance(G1)


# --- measurement protocol ----------------------------------------------------

def test_adjacent_protocol_16():
    prot = adjacent_protocol(16)
    assert (prot.K, prot.L, prot.N) == (16, 13, 208)


def test_adjacent_protocol_4():
    prot = adjacent_protocol(4)
    assert prot.L == 1
    # drive (e1, e2) keeps only the pair (e3, e4): 0-indexed pair 2
    assert prot.retained_pairs[0].tolist() == [2]


def _pair_rows(prot):
    """(K, L, J): the signed pair-difference row of every measurement, read
    off `measure` applied to unit potentials at each electrode."""
    unit = np.eye(prot.J)
    columns = [prot.measure(np.tile(unit[j], (prot.K, 1))) for j in range(prot.J)]
    return np.stack(columns, axis=1).reshape(prot.K, prot.L, prot.J)


def test_adjacent_protocol_exhaustive_audit():
    for J in (4, 8, 16):
        prot = adjacent_protocol(J)
        assert prot.patterns.shape == (J, J)
        assert np.allclose(prot.patterns.sum(axis=1), 0.0)
        projectors = _pair_rows(prot)
        for n in range(J):
            driven = {n, (n + 1) % J}
            rows = projectors[n]
            assert rows.shape == (J - 3, J)
            assert list(prot.retained_pairs[n]) == sorted(prot.retained_pairs[n])
            for row, m in zip(rows, prot.retained_pairs[n]):
                assert row[m] == 1.0 and row[(m + 1) % J] == -1.0
                assert np.count_nonzero(row) == 2
                assert not ({m, (m + 1) % J} & driven)


def test_pair_rows_are_drive_patterns():
    """The pair-difference row of pair m is pattern m, so the drive
    solutions are the adjoint fields the Jacobian needs."""
    for J in range(4, 33):
        prot = adjacent_protocol(J)
        assert np.array_equal(_pair_rows(prot), prot.patterns[prot.retained_pairs])


def test_measure_is_bitwise_the_pair_row_products():
    """`measure` gives exactly the sum over electrodes of pair row times
    potential, on potentials spanning 1e-8 to 1e8."""
    rng = np.random.default_rng(0)
    for J in (4, 5, 16, 33, 64):
        prot = adjacent_protocol(J)
        U = rng.normal(size=(J, J)) * 10.0 ** rng.uniform(-8, 8, (J, J))
        reference = np.einsum("klj,kj->kl", _pair_rows(prot), U).ravel()
        assert prot.measure(U).tobytes() == reference.tobytes()


def test_adjacent_protocol_needs_4():
    with pytest.raises(ModelError):
        adjacent_protocol(3)
    with pytest.raises(ModelError):
        adjacent_protocol(16.0)


# --- simulated measurements ---------------------------------------------------

def test_noise_free_determinism(small_disk_mesh, disk_layout, protocol16):
    field = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    d1 = simulate_measurements(small_disk_mesh, field, disk_layout, protocol16, 0.0, 1)
    d2 = simulate_measurements(small_disk_mesh, field, disk_layout, protocol16, 0.0, 2)
    assert np.array_equal(d1.values, d2.values)


def test_negative_noise_rejected(small_disk_mesh, disk_layout, protocol16):
    field = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    with pytest.raises(ModelError):
        simulate_measurements(small_disk_mesh, field, disk_layout, protocol16, -0.01, 1)


def test_seeded_noise_reproducible(small_disk_mesh, disk_layout, protocol16):
    field = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    d1 = simulate_measurements(small_disk_mesh, field, disk_layout, protocol16, 0.01, 42)
    d2 = simulate_measurements(small_disk_mesh, field, disk_layout, protocol16, 0.01, 42)
    d3 = simulate_measurements(small_disk_mesh, field, disk_layout, protocol16, 0.01, 43)
    assert np.array_equal(d1.values, d2.values)
    assert not np.array_equal(d1.values, d3.values)


def test_noise_std_monte_carlo(disk_curve):
    """10^4 replicates of one coordinate: sample std within 5% of the target
    1% of max |clean V|."""
    layout = place_electrodes(disk_curve, 16, 0.5)
    mesh = triangulate(disk_curve, layout, 100)
    field = TensorField.isotropic(1.0, mesh.n_elements)
    prot = adjacent_protocol(16)
    clean = predict(mesh, field, layout, prot)
    target = 0.01 * np.abs(clean).max()
    samples = np.array([add_noise(clean, 0.01, seed)[17] for seed in range(10_000)])
    sample_std = samples.std(ddof=1)
    assert abs(sample_std - target) <= 0.05 * target


def test_simulate_is_predict_plus_noise(small_disk_mesh, disk_layout, protocol16):
    field = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    data = simulate_measurements(small_disk_mesh, field, disk_layout, protocol16, 0.01, 5)
    clean = predict(small_disk_mesh, field, disk_layout, protocol16)
    assert np.array_equal(data.values, add_noise(clean, 0.01, 5))


@pytest.mark.parametrize("fraction", [-0.01, np.nan, np.inf])
def test_add_noise_rejects_invalid_fraction(fraction):
    with pytest.raises(ModelError, match="noise_fraction"):
        add_noise(np.ones(5), fraction, 1)


@pytest.mark.parametrize("fraction", [0.0, 0.01])
@pytest.mark.parametrize("seed", [-3, 1.5, True, "7"])
def test_add_noise_rejects_invalid_seed(fraction, seed):
    """A seed that is neither None nor an integer >= 0 is named, also when
    the zero fraction draws nothing."""
    with pytest.raises(ModelError, match="noise seed"):
        add_noise(np.ones(5), fraction, seed)


def test_rotational_symmetry_cyclic_shifts(disk_curve):
    """Constant conductivity on the disk: measurement (drive n, pair m) equals
    (drive 0, pair m - n), up to discretization; the defect shrinks under
    refinement and sits below 1% relative at ~2200 elements (frozen from the
    refinement oracle: 5.3e-2 / 2.8e-3 / 7.0e-4 at 500/2200/8800 elements)."""
    layout = place_electrodes(disk_curve, 16, 0.5)
    prot = adjacent_protocol(16)

    def defect(target):
        mesh = triangulate(disk_curve, layout, target)
        field = TensorField.isotropic(1.0, mesh.n_elements)
        V = predict(mesh, field, layout, prot).reshape(16, 13)
        lut = {(n, m): V[n, r] for n in range(16)
               for r, m in enumerate(prot.retained_pairs[n])}
        err = max(abs(lut[(n, m)] - lut[(0, (m - n) % 16)])
                  for n in range(16) for m in prot.retained_pairs[n])
        return err / np.abs(V).max()

    d_coarse, d_fine = defect(550), defect(2200)
    assert d_fine < 1e-2
    assert d_fine < d_coarse


# --- power ---------------------------------------------------------------------

def power(system, pattern):
    """Dissipated power sum_j U_j I_j for one current pattern."""
    _, U = solve_current_drive(system, pattern)
    return U @ pattern


def test_power_positive_on_compatible_patterns(disk_system):
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = rng.normal(size=16)
        p -= p.mean()
        assert power(disk_system, p) > 0


def test_power_scaling_law(disk_curve, disk_mesh):
    pattern = np.zeros(16)
    pattern[0], pattern[8] = 1.0, -1.0
    c = 3.0
    lay1 = place_electrodes(disk_curve, 16, 0.5, contact_impedance=1.0)
    layc = place_electrodes(disk_curve, 16, 0.5, contact_impedance=1.0 / c)
    p1 = power(assemble(disk_mesh, TensorField.isotropic(1.0, disk_mesh.n_elements), lay1), pattern)
    pc = power(assemble(disk_mesh, TensorField.isotropic(c, disk_mesh.n_elements), layc), pattern)
    assert abs(pc - p1 / c) <= 1e-10 * p1
    # without rescaling z, scaling gamma up still strictly reduces power
    pc2 = power(assemble(disk_mesh, TensorField.isotropic(c, disk_mesh.n_elements), lay1), pattern)
    assert pc2 < p1


# --- data vector CSV -------------------------------------------------------------

def test_data_vector_csv_roundtrip(small_disk_mesh, disk_layout, protocol16):
    field = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    dv = simulate_measurements(small_disk_mesh, field, disk_layout, protocol16, 0.01, 9)
    text = data_vector_to_csv(dv)
    back = data_vector_from_csv(text)
    assert np.array_equal(back.values, dv.values)
    assert (back.J, back.K, back.L, back.N) == (dv.J, dv.K, dv.L, dv.N)
    assert back.seed == 9 and back.noise_fraction == 0.01
    assert np.array_equal(back.contact_impedances, dv.contact_impedances)
    header = text.splitlines()[0]
    assert "J=16" in header and "N=208" in header and "seed=9" in header


@pytest.mark.parametrize("check, message", [
    (lambda mesh, field, curve, layout: assemble(
        mesh, TensorField.isotropic(1.0, mesh.n_elements + 1), layout),
     "tensor field does not match mesh"),
    (lambda mesh, field, curve, layout: assemble(mesh, field, place_electrodes(curve, 8, 0.5)),
     "layout has 8 electrodes but the mesh tags 16"),
    (lambda mesh, field, curve, layout: assemble(mesh, field, dataclasses.replace(
        layout, contact_impedances=np.zeros(16))),
     "contact impedances must be finite and positive"),
    (lambda mesh, field, curve, layout: assemble(mesh, field, dataclasses.replace(
        layout, contact_impedances=np.full(16, np.nan))),
     "contact impedances must be finite and positive"),
    (lambda mesh, field, curve, layout: assemble(mesh, field, dataclasses.replace(
        layout, contact_impedances=np.full(16, np.inf))),
     "contact impedances must be finite and positive"),
], ids=["field size", "electrode count", "impedances", "nan impedances", "inf impedances"])
def test_assemble_checks_its_inputs(small_disk_mesh, disk_curve, disk_layout, check, message):
    field = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    with pytest.raises(ModelError, match=message):
        check(small_disk_mesh, field, disk_curve, disk_layout)
