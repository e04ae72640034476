"""Property tests on random small scenes: Fourier domains, 4 to 32 electrodes
with their own contact impedances, and random anisotropic conductivities;
and whole reconstructions of random small experiments."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from anisoeit import fem, harness, inverse, tensors
from anisoeit.geometry import (DomainSpec, build_boundary, build_pixel_lattice,
                               place_electrodes, triangulate)
from anisoeit.harness import ExperimentConfig, Inclusion, Phantom, with_mode
from anisoeit.inverse import (BarrierSchedule, GNSettings, RegWeights, barrier_grad,
                              forward_map, gauss_newton_reconstruct, jacobian, objective,
                              penalty_eta_grad, penalty_theta_grad, run_log_to_json)
from anisoeit.tensors import (TensorField, UniformAnisoParams, det_sqrt, gamma_hat,
                              gamma_hat_entries)

coefficients = st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=3)


@st.composite
def scenes(draw):
    """(mesh, lattice, layout, protocol) on a random Fourier domain with J
    electrodes of random contact impedance, about 300 elements and 20 pixels."""
    spec = DomainSpec("fourier", {"cos": draw(coefficients), "sin": draw(coefficients)})
    J = draw(st.integers(4, 32))
    curve = build_boundary(spec, 256)
    layout = place_electrodes(curve, J, draw(st.floats(0.3, 0.7)))
    z = draw(st.lists(st.floats(0.2, 5.0), min_size=J, max_size=J))
    layout = dataclasses.replace(layout, contact_impedances=np.array(z))
    mesh = triangulate(curve, layout, 300)
    return mesh, build_pixel_lattice(mesh, 20), layout, fem.adjacent_protocol(J)


def random_params(seed: int, M: int, lam: float) -> UniformAnisoParams:
    rng = np.random.default_rng(seed)
    return UniformAnisoParams(eta=np.exp(rng.uniform(-1, 1, M)),
                              theta=rng.uniform(0, np.pi, M), lam=lam)


seeds = st.integers(0, 2 ** 32 - 1)
# lam away from 1, on either side, so the theta columns are live
lams = st.builds(lambda a, sign: float(np.exp(sign * a)), st.floats(0.2, 1.5),
                 st.sampled_from([-1, 1]))


def random_field(seed: int, T: int) -> TensorField:
    """A random SPD field with per-element anisotropy on T elements."""
    rng = np.random.default_rng(seed)
    g = gamma_hat_entries(np.exp(rng.uniform(-1, 1, T)), rng.uniform(0, np.pi, T),
                          np.exp(rng.uniform(-1, 1, T)))
    return TensorField(g=np.column_stack(g))


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds)
def test_electrode_matrix_is_reciprocal(scene, seed):
    """G, read from the factor's trailing block, is symmetric (CEM
    reciprocity), kills constants (gauge) and matches the full solve for a
    random SPD field with per-element anisotropy."""
    mesh, _, layout, _ = scene
    system = fem.assemble(mesh, random_field(seed, mesh.n_elements), layout)
    G, _ = fem.electrode_matrix(system)
    assert np.abs(G - G.T).max() <= 1e-10 * np.abs(G).max()
    assert np.abs(G @ np.ones(layout.J)).max() <= 1e-10 * np.abs(G).max()
    _, U = fem.solve_many(system, np.eye(layout.J) - 1.0 / layout.J)
    assert np.abs(G - U.T).max() <= 1e-13 * np.abs(G).max()


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds)
def test_solve_many_is_linear_in_the_currents(scene, seed):
    """The potentials of a P + b Q are a U_P + b U_Q, nodal and electrode,
    for random zero-sum patterns P and Q and a random SPD field."""
    mesh, _, layout, _ = scene
    system = fem.assemble(mesh, random_field(seed, mesh.n_elements), layout)
    rng = np.random.default_rng(seed)
    P, Q = rng.normal(size=(2, 3, layout.J))
    P, Q = P - P.mean(axis=1, keepdims=True), Q - Q.mean(axis=1, keepdims=True)
    a, b = rng.uniform(-10, 10, 2)
    (u_P, u_Q, u_mix), (U_P, U_Q, U_mix) = zip(*(fem.solve_many(system, X)
                                                 for X in (P, Q, a * P + b * Q)))
    for mix, from_P, from_Q in ((u_mix, u_P, u_Q), (U_mix, U_P, U_Q)):
        scale = np.linalg.norm(a * from_P) + np.linalg.norm(b * from_Q)
        assert np.linalg.norm(mix - (a * from_P + b * from_Q)) <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds)
def test_factor_order_matrix_is_the_cem_form(node_order, cem_energy, scene, seed):
    """The assembled matrix comes in canonical CSC form (sorted, no
    duplicates), so SuperLU sorts nothing itself; permuted back to node
    order it is symmetric and v'Av is the CEM energy of v = (u, U, 0) for a
    random SPD field and random potentials."""
    mesh, _, layout, _ = scene
    field = random_field(seed, mesh.n_elements)
    op = mesh.cem_operator
    A = op.matrix(field.g, 1.0 / layout.contact_impedances)
    assert A.has_canonical_format
    A = node_order(op, A)
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()
    rng = np.random.default_rng(seed)
    u, U = rng.normal(size=mesh.n_nodes), rng.normal(size=layout.J)
    v = np.concatenate([u, U, [0.0]])
    energy = cem_energy(mesh, field.g, layout.contact_impedances, u, U)
    assert abs(v @ (A @ v) - energy) <= 1e-12 * energy


def contrast_field(seed: int, T: int, decades: float):
    """A random SPD field whose eigenvalues, per element and across the
    mesh, span up to 10**decades; returns (field, their contrast)."""
    rng = np.random.default_rng(seed)
    big, small = np.sort(10.0 ** rng.uniform(0, decades, (2, T)), axis=0)[::-1]
    eta, lam = np.sqrt(big * small), big / small
    g = np.column_stack(gamma_hat_entries(eta, rng.uniform(0, np.pi, T), lam))
    return TensorField(g=g), big.max() / small.min()


def check_ordered_factor(mesh, layout, seed: int, decades: float):
    """The ordered symmetric factor takes only diagonal pivots and is
    backward stable, and `solve_many` (the band Cholesky of the node block)
    equals a dense solve of the bordered matrix for conductivity contrasts
    up to 10**decades.  The match is to 1e-12 times the contrast: the
    matrix's condition grows with the contrast, and at 1e6 dense LU itself
    is off by about 1e-10 from a refined solution.  The electrode potentials
    from the factor's trailing block alone (`nodes=False`) match the
    factor's full solve to 1e-13 and the dense solve as closely as
    `solve_many` does.
    The factor order is a permutation ending in U_0 .. U_{J-2}, the
    multiplier and U_{J-1}, and the multiplier's is the one negative pivot
    (with the multiplier last, U_{J-1} would take a round-off zero one)."""
    field, contrast = contrast_field(seed, mesh.n_elements, decades)
    system = fem.assemble(mesh, field, layout)
    n, J = system.operator.n_nodes, system.operator.J
    order = system.operator.order
    assert np.array_equal(np.sort(order), np.arange(n + J + 1))
    assert np.array_equal(order[n:], n + np.r_[np.arange(J - 1), J, J - 1])

    patterns = np.random.default_rng(seed).normal(size=(3, J))
    patterns -= patterns.mean(axis=1, keepdims=True)
    u, U = fem.solve_many(system, patterns)
    assert np.array_equal(system.factor.perm_r, np.arange(n + J + 1))
    pivots = system.factor.U.diagonal()
    assert pivots[-2] < 0 and np.all(np.delete(pivots, -2) > 0)
    rank = np.argsort(order)
    A, rhs = system.matrix.toarray()[np.ix_(rank, rank)], np.zeros((n + J + 1, 3))
    rhs[n:n + J] = patterns.T
    x = system.factor.solve(rhs[order])[rank]
    backward = np.linalg.norm(A @ x - rhs) / (np.linalg.norm(A, np.inf) * np.linalg.norm(x)
                                              + np.linalg.norm(rhs))
    assert backward <= 1e-14
    dense = np.linalg.solve(A, rhs)
    for got, want in ((u.T, dense[:n]), (U.T, dense[n:n + J])):
        assert np.linalg.norm(got - want) <= 1e-12 * contrast * np.linalg.norm(want)
    no_nodes, U_tail = fem.solve_many(system, patterns, nodes=False)
    assert no_nodes is None
    full = x[n:n + J].T
    assert np.linalg.norm(U_tail - full) <= 1e-13 * np.linalg.norm(full)
    want = dense[n:n + J].T
    assert np.linalg.norm(U_tail - want) <= 1e-12 * contrast * np.linalg.norm(want)


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds, decades=st.floats(0, 6))
def test_both_cem_back_ends_agree_on_singularity(scene, seed, decades):
    """The band Cholesky solve and the electrode-only SuperLU solve apply
    one pivot rule.  At conductivity contrasts up to 1e6 neither raises;
    with every contact impedance at 1e300 the node block is the bare
    stiffness, singular along the constants to working precision, and
    both raise a ModelError naming a pivot and its node.  The SuperLU
    check reads U's diagonal as the last entry of each of its columns."""
    mesh, _, layout, protocol = scene
    field, _ = contrast_field(seed, mesh.n_elements, decades)
    system = fem.assemble(mesh, field, layout)
    fem.solve_many(system, protocol.patterns)
    fem.solve_many(system, protocol.patterns, nodes=False)
    U = system.factor.U
    assert np.array_equal(U.indices[U.indptr[1:] - 1], np.arange(U.shape[0]))
    bare = dataclasses.replace(layout, contact_impedances=np.full(layout.J, 1e300))
    system = fem.assemble(mesh, field, bare)
    for nodes in (True, False):
        with pytest.raises(fem.ModelError, match=r"pivot \d+ of \d+ \(node \d+\)"):
            fem.solve_many(system, protocol.patterns, nodes=nodes)


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds, decades=st.floats(0, 6))
def test_ordered_factor_matches_dense_solve(scene, seed, decades):
    """`check_ordered_factor` on random scenes and contrasts."""
    mesh, _, layout, _ = scene
    check_ordered_factor(mesh, layout, seed, decades)


@pytest.mark.parametrize("seed", range(3))
def test_ordered_factor_with_four_electrodes(seed):
    """`check_ordered_factor` for the smallest protocol, J = 4, whose tail
    block is 5 x 5, at contrast 1e6."""
    curve = build_boundary(DomainSpec("fourier", {"cos": [0.0, 0.08], "sin": [-0.05]}), 256)
    layout = place_electrodes(curve, 4, 0.5)
    check_ordered_factor(triangulate(curve, layout, 300), layout, seed, 6.0)


def scattered_buffers(plan, A: np.ndarray):
    """The band plan's buffers as the entry-by-entry scatter of the
    node-order matrix A (dense, bordered) puts them: the node block in band
    order as LAPACK upper band storage, whose last row is its diagonal, the
    coupling rows in band order and the bordered electrode block."""
    n, J, kd = plan.n_nodes, plan.J, plan.kd
    by_band = np.argsort(plan.rank)  # the node of each band row
    Auu = A[:n, :n][np.ix_(by_band, by_band)]
    band = np.zeros((kd + 1, n))
    for d in range(kd + 1):
        band[kd - d, d:] = np.diagonal(Auu, d)
    return {"band": band, "coupling": A[:n, n:n + J][by_band], "bordered": A[n:, n:]}


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds, lam=lams, grid_n=st.sampled_from([6, 20]))
def test_pixel_fill_matches_the_assembled_system(node_order, scene, seed, lam, grid_n):
    """The band plan filled straight from the pixel tensors holds, to 1e-13
    of each buffer's largest entry, the entries of the matrix that
    `fem.assemble` builds from the per-element field `gamma_hat`, scattered
    entry by entry; so does the fill from that field's element inputs.  The
    GN forward (`_solve_drives`) then gives the nodal fields and
    predictions of `fem.solve_many` on the assembled system to 1e-12.  The
    lattices hold unequal element counts per pixel, so the pixel map sums
    over pixels of different sizes."""
    mesh, _, layout, protocol = scene
    lattice = build_pixel_lattice(mesh, grid_n)
    counts = np.bincount(lattice.element_to_pixel)
    assert counts.min() < counts.max()
    p = random_params(seed, lattice.n_active, lam)
    system = fem.assemble(mesh, gamma_hat(p, lattice), layout)
    plan = mesh.cem_operator.node_band
    want = scattered_buffers(plan, node_order(system.operator, system.matrix).toarray())
    inv_z = 1.0 / layout.contact_impedances
    fills = [(plan.pixel_map(lattice), tensors.pixel_tensors(p, lattice)),
             (plan.element_map, system.g)]
    for fill_map, g in fills:
        plan.fill(fill_map, np.concatenate([g.ravel(), inv_z, [1.0]]))
        for name, expected in want.items():
            got = getattr(plan, name)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), name

    u_pixels, V_pixels = inverse._solve_drives(p, protocol, mesh, lattice, layout)
    u_elements, U_elements = fem.solve_many(system, protocol.patterns)
    for got, expected in ((u_pixels, u_elements), (V_pixels, protocol.measure(U_elements))):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds, lam=lams)
def test_forward_map_lambda_inversion_symmetry(scene, seed, lam):
    """(eta, theta, lam) and (eta, theta + pi/2, 1/lam) are the same tensor
    field, so they predict the same data."""
    mesh, lattice, layout, protocol = scene
    p = random_params(seed, lattice.n_active, lam)
    flipped = UniformAnisoParams(eta=p.eta, theta=p.theta + np.pi / 2, lam=1.0 / lam)
    U = forward_map(p, protocol, mesh, lattice, layout)
    U_flipped = forward_map(flipped, protocol, mesh, lattice, layout)
    assert np.linalg.norm(U - U_flipped) <= 1e-10 * np.linalg.norm(U)


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds, lam=lams, data=st.data())
def test_jacobian_matches_central_differences(scene, seed, lam, data):
    """One eta, one theta and the lam column of the adjoint Jacobian against
    central differences of the forward map at lam != 1 and random theta."""
    mesh, lattice, layout, protocol = scene
    M = lattice.n_active
    p = random_params(seed, M, lam)
    i = data.draw(st.integers(0, M - 1), label="pixel")
    _, J = jacobian(p, protocol, mesh, lattice, layout)

    def moved(column, h):
        x = np.concatenate([p.eta, p.theta, [p.lam]])
        x[column] += h
        q = UniformAnisoParams(eta=x[:M], theta=x[M:2 * M], lam=float(x[-1]))
        return forward_map(q, protocol, mesh, lattice, layout)

    for column in (i, M + i, 2 * M):
        h = 1e-6
        fd = (moved(column, h) - moved(column, -h)) / (2 * h)
        err = np.linalg.norm(J[:, column] - fd) / max(np.linalg.norm(fd), 1e-300)
        assert err < 1e-4, (column, err)


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds, lam=lams, grid_n=st.sampled_from([6, 20, 40]))
def test_gram_jacobian_matches_elementwise_sums(elementwise_jacobian, scene, seed, lam, grid_n):
    """The Jacobian from per-pixel Grams of the drive gradients equals the
    element-by-element adjoint sums to 1e-12 on lattices of 6, 20 and 40
    cells a side, whose pixels hold from one to dozens of elements, so the
    padding width varies.  At theta = 0 and lam = 1 the isotropic problem's
    `linearize` rows are the anisotropic eta columns, bit for bit."""
    mesh, _, layout, protocol = scene
    lattice = build_pixel_lattice(mesh, grid_n)
    M = lattice.n_active
    p = random_params(seed, M, lam)
    u_nodal, _ = inverse._solve_drives(p, protocol, mesh, lattice, layout)
    _, J = jacobian(p, protocol, mesh, lattice, layout)
    drive = np.repeat(np.arange(protocol.K), protocol.L)
    want = elementwise_jacobian(p, u_nodal, mesh, lattice, drive, protocol.retained_pairs.ravel())
    assert np.linalg.norm(J - want) <= 1e-12 * np.linalg.norm(want)

    iso = UniformAnisoParams(eta=p.eta, theta=np.zeros(M), lam=1.0)
    data = fem.simulate_measurements(mesh, gamma_hat(p, lattice), layout, protocol, 0.0, None)
    problem = inverse._Problem(inverse.ISOTROPIC, data, protocol, mesh, lattice, layout,
                               RegWeights(0.0, 0.0))
    _, Js = problem.linearize(problem.initial(iso.eta), 0.0)
    _, J_iso = jacobian(iso, protocol, mesh, lattice, layout)
    first = np.unique(problem.fold.twin, return_index=True)[1]
    assert np.array_equal(Js, problem.fold.root_weight[:, None] * J_iso[first, :M])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_isotropic_field_is_det_sqrt_bitwise(small_lattice, data):
    """sqrt(det) of the theta = 0, lam = 1 tensor field is eta itself, bit
    for bit, so an isotropic result exports through the anisotropic path."""
    M = small_lattice.n_active
    eta = data.draw(arrays(float, M, elements=st.floats(1e-6, 1e6)))
    field = gamma_hat(UniformAnisoParams(eta=eta, theta=np.zeros(M), lam=1.0), small_lattice)
    assert np.array_equal(det_sqrt(field), eta[small_lattice.element_to_pixel])


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds, lam=lams)
def test_reciprocal_jacobian_rows_are_bitwise_equal(scene, seed, lam):
    """Measurement (drive k, pair m) and measurement (drive m, pair k) of the
    adjacent protocol have bitwise-equal Jacobian rows."""
    mesh, lattice, layout, protocol = scene
    _, J = jacobian(random_params(seed, lattice.n_active, lam), protocol, mesh, lattice, layout)
    row = {(k, int(m)): k * protocol.L + i for (k, i), m in np.ndenumerate(protocol.retained_pairs)}
    for (k, m), n in row.items():
        assert np.array_equal(J[n], J[row[m, k]]), (k, m)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, M=st.integers(1, 25), electrodes=st.integers(4, 32),
       anisotropic=st.booleans(), beta2=st.sampled_from([0.0, 0.4]))
def test_folded_step_matches_dense_solve_over_all_rows(random_step_penalty, step_system, seed,
                                                       M, electrodes, anisotropic, beta2):
    """The step from the reciprocal-unique rows scaled by sqrt(multiplicity)
    equals a dense solve of R + 2 J^T J with every row of J, twins included."""
    rng = np.random.default_rng(seed)
    bands, border, R = random_step_penalty(rng, M, anisotropic, beta2)
    fold = inverse._Fold(fem.adjacent_protocol(electrodes))
    J_unique = rng.normal(size=(len(fold.drive), len(R))) * rng.uniform(0.1, 10.0)
    J = J_unique[fold.twin]
    system = step_system(bands, fold.root_weight[:, None] * J_unique, border)
    g = rng.normal(size=len(R))
    shifts = 10.0 ** rng.uniform(-8, 0, len(bands) + anisotropic)
    H = R + 2.0 * J.T @ J + np.diag(np.repeat(shifts, [M] * len(bands) + [1] * anisotropic))
    expected = scipy.linalg.solve(H, -g, assume_a="pos")
    delta = system.solve(g, shifts)
    assert np.linalg.norm(delta - expected) <= 1e-9 * np.linalg.norm(expected)


@settings(max_examples=15, deadline=None)
@given(scene=scenes(), seed=seeds, lam=lams, beta2=st.sampled_from([0.0, 0.4]))
def test_accepted_gauss_newton_step_is_an_armijo_descent_step(scene, seed, lam, beta2):
    """One GN iteration from a random anisotropic start on noisy data: the
    accepted step s is a descent direction of the objective gradient g
    formed over all N rows of `jacobian`, and the objective at the accepted
    iterate satisfies Armijo, f(x + s) <= f(x) + c g.s."""
    mesh, lattice, layout, protocol = scene
    M = lattice.n_active
    rng = np.random.default_rng(seed)
    data = fem.simulate_measurements(mesh, gamma_hat(random_params(seed, M, lam), lattice),
                                     layout, protocol, 0.01, seed)
    w = RegWeights(*10.0 ** rng.uniform(-8, -4, 4), beta2=beta2, nu=rng.uniform(0.5, 2.0))
    xi = 1e-6
    # lam = e and theta in [1, 2.1]: the trust caps keep lam > 1 and theta in
    # [0, pi), so the canonical result is the accepted iterate itself
    start = UniformAnisoParams(eta=np.exp(rng.uniform(-0.5, 0.5, M)),
                               theta=rng.uniform(1.0, 2.1, M), lam=float(np.e))
    log_lam = 1.0
    x0 = np.concatenate([start.eta, start.theta, [log_lam]])
    state = gauss_newton_reconstruct(data, protocol, mesh, lattice, layout, w,
                                     BarrierSchedule(np.array([xi])),
                                     GNSettings(max_iterations=1), x0=x0)
    assert len(state.history) == 1
    end = state.params
    s = np.concatenate([end.eta - start.eta, end.theta - start.theta, [np.log(end.lam) - log_lam]])

    U, J = jacobian(start, protocol, mesh, lattice, layout)
    J[:, -1] *= start.lam  # to the log-lam unknown
    pairs = lattice.neighbor_pairs()
    g = -2.0 * (J.T @ (data.values - U)) + np.concatenate([
        penalty_eta_grad(start.eta, pairs, w.alpha0, w.alpha1) + barrier_grad(start.eta, xi),
        penalty_theta_grad(start.theta, pairs, w.beta0, w.beta1),
        [w.beta2 * (1.0 + 2.0 * log_lam / w.nu ** 2)]])
    f0 = objective(start, data, protocol, mesh, lattice, layout, w, xi)
    assert g @ s < 0
    # the last term allows for round-off in g and in log(exp(log lam))
    assert state.history[0]["objective"] <= f0 + inverse._ARMIJO * (g @ s) + 1e-12 * abs(f0)


@st.composite
def experiments(draw):
    """A small experiment on a random Fourier true domain with 8 or 16
    electrodes, 0-2 inclusions and 0 or 1% noise, in either mode that
    reconstructs on the disk, with a 3-stage barrier and a 12-iteration
    budget."""
    inclusions = tuple(Inclusion(center=(draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.4, 0.4))),
                                 radius=draw(st.floats(0.15, 0.3)),
                                 amplitude=draw(st.sampled_from([1.0, -0.5])))
                       for _ in range(draw(st.integers(0, 2))))
    config = ExperimentConfig(
        name="random_scene", model_domain=DomainSpec("disk", {}),
        true_domain=DomainSpec("fourier", {
            "cos": draw(coefficients),
            "sin": draw(st.lists(st.floats(-0.1, 0.1), max_size=2))}),
        phantom=Phantom(background=1.0, inclusions=inclusions),
        n_electrodes=draw(st.sampled_from([8, 16])),
        noise_fraction=draw(st.sampled_from([0.0, 0.01])), seed=draw(st.integers(0, 2 ** 16)),
        sim_elements=500, recon_elements=400, pixels=30, boundary_samples=512, xi_stages=3,
        max_inner=4, max_iterations=12)
    return with_mode(config, draw(st.sampled_from(["uniformly-anisotropic",
                                                   "isotropic-mismodeled"])))


# a scene where the anisotropic run drives lam to about 428 and stops at the
# global iteration cap: case1 weights and budget, finer meshes
DEGENERATE_SCENE = ExperimentConfig(
    name="degenerate_lam", model_domain=DomainSpec("disk", {}),
    true_domain=DomainSpec("fourier", {"cos": [0.0, 0.108, -0.085], "sin": [0.108, -0.045]}),
    phantom=Phantom(background=1.0, inclusions=(Inclusion((0.295, -0.082), 0.232, 1.0),)),
    n_electrodes=32, noise_fraction=0.05, seed=75, sim_elements=1200, recon_elements=1000,
    pixels=200)


@settings(max_examples=20, deadline=None)
@given(config=experiments())
@example(config=DEGENERATE_SCENE)
def test_reconstruction_record_is_consistent(config):
    """Every accepted step decreases the objective, which is the sum of its
    parts; the stages account for every iteration and stop for a reason
    their counts bear out; the run log holds the same record."""
    state = harness.reconstruct_scene(config, harness.build_scene(config))
    history, stages = state.history, state.stages
    for entry in history:
        parts = entry["misfit"] + entry["penalty"] + entry["barrier"]
        assert abs(entry["objective"] - parts) <= 1e-12 * abs(entry["objective"])
        assert entry["actual_decrease"] > 0
        assert entry["solves"] >= 1
    total = 0
    for stage in stages:
        total += stage["iterations"]
        if stage["stop_reason"] == "max_inner":
            assert stage["iterations"] == config.max_inner and total < config.max_iterations
        if stage["stop_reason"] == "max_iterations":
            assert total == config.max_iterations
    assert total == len(history)
    for stage in stages[:-1]:
        assert stage["stop_reason"] not in ("max_iterations", "line_search_failed")
    log = json.loads(run_log_to_json(state))
    assert (log["iterations"], log["stages"]) == (history, stages)
