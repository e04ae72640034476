import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings, strategies as st

from anisoeit import fem, inverse
from anisoeit.geometry import build_pixel_lattice, triangulate
from anisoeit.inverse import (BarrierSchedule, GNSettings, NeighborGraph, ReconError,
                              RegWeights, barrier, barrier_grad, forward_map,
                              forward_map_isotropic, gauss_newton_reconstruct,
                              isotropic_reconstruct, jacobian, jacobian_isotropic,
                              objective, penalty_eta, penalty_eta_grad, penalty_lambda,
                              penalty_theta, penalty_theta_grad, recon_state_to_csv)
from anisoeit.tensors import TensorField, UniformAnisoParams, gamma_hat


def two_pixel_graph():
    return NeighborGraph(M=2, pairs=np.array([[0, 1]]))


# --- penalties --------------------------------------------------------------

def test_penalty_eta_constant_field(small_lattice):
    graph = NeighborGraph.from_lattice(small_lattice)
    M = graph.M
    val = penalty_eta(np.full(M, 3.0), graph, alpha0=0.7, alpha1=5.0)
    assert val == pytest.approx(0.7 * M * 9.0, rel=1e-14)


def test_penalty_eta_two_pixels_hand_enumeration():
    # double sum counts the unordered pair twice: 2 * |1-3|^2 = 8
    val = penalty_eta(np.array([1.0, 3.0]), two_pixel_graph(), alpha0=0.0, alpha1=1.0)
    assert val == pytest.approx(8.0, abs=1e-15)


def test_penalty_eta_gradient_fd(small_lattice):
    rng = np.random.default_rng(0)
    graph = NeighborGraph.from_lattice(small_lattice)
    eta = rng.uniform(0.5, 2.0, graph.M)
    g = penalty_eta_grad(eta, graph, 0.3, 1.7)
    h = 1e-6
    for i in rng.choice(graph.M, 8, replace=False):
        ep, em = eta.copy(), eta.copy()
        ep[i] += h
        em[i] -= h
        fd = (penalty_eta(ep, graph, 0.3, 1.7) - penalty_eta(em, graph, 0.3, 1.7)) / (2 * h)
        assert abs(g[i] - fd) <= 1e-8 * max(abs(fd), 1.0)


def test_penalty_theta_values():
    graph = two_pixel_graph()
    assert penalty_theta(np.array([0.7, 0.7]), graph, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    # antipodal unit vectors: 2 * |1 - (-1)|^2 = 8
    assert penalty_theta(np.array([0.0, np.pi]), graph, 0.0, 1.0) == pytest.approx(8.0, abs=1e-12)
    t = np.array([0.3, -1.2])
    assert penalty_theta(t + 2 * np.pi, graph, 0.0, 1.3) == pytest.approx(
        penalty_theta(t, graph, 0.0, 1.3), abs=1e-12)


def test_penalty_theta_gradient_fd(small_lattice):
    rng = np.random.default_rng(1)
    graph = NeighborGraph.from_lattice(small_lattice)
    theta = rng.uniform(-3, 3, graph.M)
    g = penalty_theta_grad(theta, graph, 0.2, 0.9)
    h = 1e-6
    for i in rng.choice(graph.M, 8, replace=False):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        fd = (penalty_theta(tp, graph, 0.2, 0.9) - penalty_theta(tm, graph, 0.2, 0.9)) / (2 * h)
        assert abs(g[i] - fd) <= 1e-7 * max(abs(fd), 1.0)


def test_penalty_lambda():
    assert penalty_lambda(1.0, beta2=3.0, nu=0.5) == 0.0
    assert penalty_lambda(2.7, beta2=0.0) == 0.0
    assert penalty_lambda(np.e, beta2=1.0, nu=1.0) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ReconError):
        penalty_lambda(0.0, beta2=1.0)
    # minimized where log(lam) = -nu^2 / 2
    nu = 0.8
    lam_star = np.exp(-nu ** 2 / 2)
    vals = [penalty_lambda(lam_star * f, 1.0, nu) for f in (0.9, 1.0, 1.1)]
    assert vals[1] < vals[0] and vals[1] < vals[2]


def test_barrier_values_and_gradient():
    eta = np.ones(437)
    assert barrier(eta, 1e-5) == pytest.approx(4.37e-3, rel=1e-12)
    assert barrier(eta, 0.0) == 0.0
    with pytest.raises(ReconError):
        barrier(np.array([1.0, -1.0]), 1e-5)
    rng = np.random.default_rng(2)
    x = rng.uniform(0.5, 2.0, 20)
    g = barrier_grad(x, 1e-3)
    h = 1e-6
    for i in (0, 7, 19):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (barrier(xp, 1e-3) - barrier(xm, 1e-3)) / (2 * h)
        assert abs(g[i] - fd) <= 1e-8 * abs(fd)


# --- schedules and graphs ------------------------------------------------------

def test_barrier_schedule_validation():
    BarrierSchedule(xi=np.array([1e-5, 1e-8, 1e-12]))
    BarrierSchedule.inactive(3)
    with pytest.raises(ReconError):
        BarrierSchedule(xi=np.array([1e-8, 1e-5]))
    with pytest.raises(ReconError):
        BarrierSchedule(xi=np.array([1e-5, -1e-6]))
    sched = BarrierSchedule.geometric(1e-5, 1e-12, 8)
    assert len(sched.xi) == 8
    assert sched.xi[0] == pytest.approx(1e-5) and sched.xi[-1] == pytest.approx(1e-12)
    assert np.all(np.diff(sched.xi) < 0)


def loop_laplacian(graph):
    L = np.zeros((graph.M, graph.M))
    for a, b in graph.pairs:
        L[a, a] += 1.0
        L[b, b] += 1.0
        L[a, b] -= 1.0
        L[b, a] -= 1.0
    return L


def test_neighbor_graph_symmetric(small_lattice):
    lattice_graph = NeighborGraph.from_lattice(small_lattice)
    cases = [(lattice_graph, loop_laplacian(lattice_graph)),
             (two_pixel_graph(), np.array([[1.0, -1.0], [-1.0, 1.0]]))]
    for graph, expected in cases:
        L = graph.laplacian()
        assert isinstance(L, scipy.sparse.csr_matrix)
        L = L.toarray()
        assert np.array_equal(L, expected)
        assert np.allclose(L, L.T)
        assert np.allclose(L.sum(axis=1), 0.0)


# --- forward map, objective, jacobian -------------------------------------------

@pytest.fixture(scope="module")
def small_problem(small_disk_mesh, small_lattice, disk_layout, protocol16):
    return small_disk_mesh, small_lattice, disk_layout, protocol16


def test_objective_self_consistency(small_problem):
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    params = UniformAnisoParams(eta=np.full(M, 1.2), theta=np.zeros(M), lam=1.5)
    data = fem.simulate_measurements(mesh, gamma_hat(params, lattice), layout, prot, 0.0, None)
    w = RegWeights(alpha0=0, alpha1=0, beta0=0, beta1=0, beta2=0)
    val = objective(params, data, prot, mesh, lattice, layout, w, 0.0)
    assert val <= 1e-18


def test_objective_constant_shift_quadratic(small_problem):
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    params = UniformAnisoParams(eta=np.ones(M), theta=np.zeros(M), lam=1.0)
    data = fem.simulate_measurements(mesh, gamma_hat(params, lattice), layout, prot, 0.0, None)
    w = RegWeights(alpha0=0, alpha1=0)
    const = 0.37
    shifted = fem.DataVector(values=data.values + const, noise_fraction=0.0, seed=None,
                             J=data.J, K=data.K, L=data.L,
                             contact_impedances=data.contact_impedances)
    v0 = objective(params, data, prot, mesh, lattice, layout, w, 0.0)
    v1 = objective(params, shifted, prot, mesh, lattice, layout, w, 0.0)
    assert v0 <= 1e-18
    assert v1 == pytest.approx(data.N * const ** 2, rel=1e-12)


def test_objective_rejects_infeasible(small_problem):
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.0, mesh.n_elements),
                                     layout, prot, 0.0, None)
    with pytest.raises(ReconError):
        objective(-np.ones(lattice.n_active), data, prot, mesh, lattice, layout,
                  RegWeights(0, 0), 0.0)


def fd_jacobian_columns(params, prot, mesh, lattice, layout, cols):
    M = params.M
    out = {}
    for name, i in cols:
        base = {"eta": params.eta[i] if name == "eta" else None,
                "theta": 1.0, "lam": params.lam}[name] or 1.0
        h = 1e-6 * max(1.0, abs(base))

        def f(delta):
            eta = params.eta.copy()
            theta = params.theta.copy()
            lam = params.lam
            if name == "eta":
                eta[i] += delta
            elif name == "theta":
                theta[i] += delta
            else:
                lam += delta
            p = UniformAnisoParams(eta=eta, theta=theta, lam=lam)
            return forward_map(p, prot, mesh, lattice, layout)

        out[(name, i)] = (f(h) - f(-h)) / (2 * h)
    return out


def test_jacobian_matches_finite_differences(small_problem):
    mesh, lattice, layout, prot = small_problem
    rng = np.random.default_rng(3)
    M = lattice.n_active
    params = UniformAnisoParams(eta=rng.uniform(0.6, 1.8, M),
                                theta=rng.uniform(0, np.pi, M), lam=1.7)
    _, J = jacobian(params, prot, mesh, lattice, layout)
    cols = ([("eta", i) for i in range(0, M, 9)]
            + [("theta", i) for i in range(0, M, 9)] + [("lam", 0)])
    fd = fd_jacobian_columns(params, prot, mesh, lattice, layout, cols)
    for (name, i), col_fd in fd.items():
        col = {"eta": J[:, i], "theta": J[:, M + i], "lam": J[:, 2 * M]}[name]
        err = np.linalg.norm(col - col_fd) / max(np.linalg.norm(col_fd), 1e-300)
        assert err < 1e-4, (name, i, err)


def test_theta_columns_vanish_at_lambda_one(small_problem):
    mesh, lattice, layout, prot = small_problem
    rng = np.random.default_rng(4)
    M = lattice.n_active
    params = UniformAnisoParams(eta=rng.uniform(0.6, 1.8, M),
                                theta=rng.uniform(0, np.pi, M), lam=1.0)
    _, J = jacobian(params, prot, mesh, lattice, layout)
    assert np.linalg.norm(J[:, M:2 * M]) <= 1e-8 * np.linalg.norm(J)


def test_jacobian_column_locality(small_problem):
    """The eta column of pixel i is the adjoint integral over pixel i's
    elements only: removing those elements' contributions zeroes it."""
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    params = UniformAnisoParams(eta=np.ones(M), theta=np.zeros(M), lam=1.4)
    system = fem.assemble(mesh, gamma_hat(params, lattice), layout)
    _, P = inverse._element_products(system, prot, scipy.sparse.identity(mesh.n_elements))
    areas = system.operator.areas
    i = M // 2
    mine = lattice.element_to_pixel == i
    D_eta_i = inverse._aniso_derivative_tensors(params)[0][i]
    col_from_elements = -np.einsum("e,ecn,c->n", areas[mine], P[mine], D_eta_i)
    _, J = jacobian(params, prot, mesh, lattice, layout)
    assert np.allclose(J[:, i], col_from_elements, atol=1e-15)
    P_zeroed = P.copy()
    P_zeroed[mine] = 0.0
    T, _, N = P.shape
    S_zeroed = (inverse._pixel_sum(lattice, areas) @ P_zeroed.reshape(T, 3 * N)).reshape(M, 3, N)
    assert np.linalg.norm(-np.einsum("cn,c->n", S_zeroed[i], D_eta_i)) == 0.0


def test_jacobian_rejects_pair_rows_outside_the_drives(small_problem):
    """One solve set serves the Jacobian only when every pair-difference row
    is a drive pattern; opposite drives leave the adjacent rows uncovered."""
    mesh, lattice, layout, _ = small_problem
    adjacent = fem.adjacent_protocol(16)
    opposite = np.zeros((16, 16))
    opposite[np.arange(16), np.arange(16)] = 1.0
    opposite[np.arange(16), (np.arange(16) + 8) % 16] = -1.0
    prot = dataclasses.replace(adjacent, patterns=opposite)
    M = lattice.n_active
    params = UniformAnisoParams(eta=np.ones(M), theta=np.zeros(M), lam=1.0)
    with pytest.raises(fem.ModelError, match=r"measurement 0 of pattern 0 \(pair 2\)"):
        jacobian(params, prot, mesh, lattice, layout)


def test_isotropic_jacobian_matches_fd(small_problem):
    mesh, lattice, layout, prot = small_problem
    rng = np.random.default_rng(5)
    M = lattice.n_active
    gam = rng.uniform(0.5, 2.0, M)
    _, J = jacobian_isotropic(gam, prot, mesh, lattice, layout)
    h = 1e-6
    for i in range(0, M, 7):
        gp, gm = gam.copy(), gam.copy()
        gp[i] += h
        gm[i] -= h
        fd = (forward_map_isotropic(gp, prot, mesh, lattice, layout)
              - forward_map_isotropic(gm, prot, mesh, lattice, layout)) / (2 * h)
        err = np.linalg.norm(J[:, i] - fd) / np.linalg.norm(fd)
        assert err < 1e-4


def test_augmented_gradient_matches_fd(small_problem):
    """Gradient of misfit + penalties + barrier against central differences
    at random feasible states."""
    mesh, lattice, layout, prot = small_problem
    rng = np.random.default_rng(6)
    M = lattice.n_active
    truth = UniformAnisoParams(eta=np.full(M, 1.1), theta=np.zeros(M), lam=1.2)
    data = fem.simulate_measurements(mesh, gamma_hat(truth, lattice), layout, prot, 0.0, None)
    w = RegWeights(alpha0=1e-6, alpha1=1e-5, beta0=1e-6, beta1=1e-5, beta2=0.3, nu=1.1)
    xi = 1e-6
    problem = inverse._Problem(inverse.ANISOTROPIC, data, prot, mesh, lattice, layout, w)

    for _ in range(5):
        x = np.concatenate([rng.uniform(0.7, 1.5, M), rng.uniform(-0.5, 0.5, M),
                            [rng.uniform(-0.3, 0.4)]])
        U, Jm = problem.predict_and_jacobian(x)
        r = data.values - U
        _, pen_grad = problem.penalty(x)
        g = -2.0 * (Jm.T @ r) + pen_grad
        g[:M] += barrier_grad(x[:M], xi)

        def value(xx):
            return problem.value(xx, xi)[0]

        idx = [0, M // 2, M, M + M // 2, 2 * M]
        h = 1e-6
        for i in idx:
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (value(xp) - value(xm)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-4 * max(abs(fd), 1e-8), i


# --- reconstruction drivers ------------------------------------------------------

def test_model_symmetry_and_canonical_lambda(small_problem):
    mesh, lattice, layout, prot = small_problem
    rng = np.random.default_rng(7)
    M = lattice.n_active
    eta = rng.uniform(0.8, 1.4, M)
    theta = rng.uniform(0, np.pi, M)
    a = UniformAnisoParams(eta=eta, theta=theta, lam=1.9)
    b = UniformAnisoParams(eta=eta, theta=theta + np.pi / 2, lam=1 / 1.9)
    Va = forward_map(a, prot, mesh, lattice, layout)
    Vb = forward_map(b, prot, mesh, lattice, layout)
    assert np.allclose(Va, Vb, atol=1e-14)


def test_inverse_crime_recovery(disk_curve, disk_layout, protocol16):
    """Noiseless self-consistent data with tiny regularization recovers the
    generating parameters (well-posed pixel count, same mesh and lattice)."""
    mesh = triangulate(disk_curve, disk_layout, 800)
    lattice = build_pixel_lattice(mesh, 30)
    M = lattice.n_active
    cent = lattice.centers
    eta_true = 1.0 + 0.6 * np.exp(-((cent[:, 0] - 0.3) ** 2
                                    + (cent[:, 1] - 0.2) ** 2) / 0.18)
    truth = UniformAnisoParams(eta=eta_true, theta=np.full(M, 0.4), lam=1.3)
    data = fem.simulate_measurements(mesh, gamma_hat(truth, lattice), disk_layout,
                                     protocol16, 0.0, None)
    w = RegWeights(alpha0=1e-14, alpha1=1e-14, beta0=1e-14, beta1=1e-14)
    sched = BarrierSchedule.geometric(1e-10, 1e-14, 3)
    settings = GNSettings(max_iterations=60, max_inner=25, obj_tol=1e-16, step_tol=1e-13)
    state = gauss_newton_reconstruct(data, protocol16, mesh, lattice, disk_layout,
                                     w, sched, settings)
    assert state.converged
    err = np.linalg.norm(state.params.eta - eta_true) / np.linalg.norm(eta_true)
    assert err < 0.02
    start = UniformAnisoParams(eta=np.ones(M), theta=np.zeros(M), lam=1.0)
    init_misfit = float(np.sum(
        (data.values - forward_map(start, protocol16, mesh, lattice, disk_layout)) ** 2))
    assert state.final_misfit < 1e-8 * init_misfit
    assert state.params.lam >= 1.0
    assert state.params.lam == pytest.approx(1.3, abs=1e-3)


def test_objective_monotone_and_feasible_iterates(disk_curve, disk_layout, protocol16):
    mesh = triangulate(disk_curve, disk_layout, 500)
    lattice = build_pixel_lattice(mesh, 30)
    M = lattice.n_active
    cent = lattice.centers
    gtruth = 1.0 + 0.8 * np.exp(-((cent[:, 0] - 0.3) ** 2 + cent[:, 1] ** 2) / 0.15)
    data = fem.simulate_measurements(
        mesh, TensorField.isotropic(gtruth[lattice.element_to_pixel]), disk_layout,
        protocol16, 0.01, 11)
    w = RegWeights(alpha0=1e-8, alpha1=1e-4, beta0=1e-8, beta1=5e-6)
    sched = BarrierSchedule.geometric(1e-5, 1e-12, 4)
    state = gauss_newton_reconstruct(data, protocol16, mesh, lattice, disk_layout,
                                     w, sched)
    assert state.converged
    assert np.all(state.params.eta > 0) and state.params.lam > 0
    # augmented objective non-increasing across accepted steps within a stage
    by_stage = {}
    for row in state.history:
        by_stage.setdefault(row["stage"], []).append(row["objective"])
    for stage, objs in by_stage.items():
        assert np.all(np.diff(objs) <= 1e-12), stage


def test_micro_problem_global_minimum(disk_curve, disk_layout, protocol16):
    """9-pixel micro problem, zero weights and noise: the objective is zero at
    the generating parameters, positive on a coarse parameter grid away from
    them, and multi-start optimization returns to the global minimum."""
    mesh = triangulate(disk_curve, disk_layout, 300)
    lattice = build_pixel_lattice(mesh, 9)
    assert lattice.n_active == 9
    M = 9
    rng = np.random.default_rng(12)
    truth = UniformAnisoParams(eta=rng.uniform(0.9, 1.3, M), theta=np.full(M, 0.3), lam=1.25)
    data = fem.simulate_measurements(mesh, gamma_hat(truth, lattice), disk_layout,
                                     protocol16, 0.0, None)
    w = RegWeights(0.0, 0.0, 0.0, 0.0, 0.0)

    val_truth = objective(truth, data, protocol16, mesh, lattice, disk_layout, w, 0.0)
    assert val_truth <= 1e-18

    # grid-search oracle: perturbing any single component leaves zero behind
    for dl in (-0.2, -0.1, 0.1, 0.2):
        p = UniformAnisoParams(eta=truth.eta, theta=truth.theta, lam=truth.lam * (1 + dl))
        assert objective(p, data, protocol16, mesh, lattice, disk_layout, w, 0.0) > val_truth
    for i in range(9):
        for de in (-0.15, 0.15):
            eta = truth.eta.copy()
            eta[i] += de
            p = UniformAnisoParams(eta=eta, theta=truth.theta, lam=truth.lam)
            assert objective(p, data, protocol16, mesh, lattice, disk_layout, w, 0.0) > val_truth

    sched = BarrierSchedule.geometric(1e-12, 1e-14, 2)
    settings = GNSettings(max_iterations=50, max_inner=25, obj_tol=1e-16, step_tol=1e-14)
    found = []
    for eta0, lam0 in ((1.0, 1.0), (0.8, 1.5), (1.3, 0.9)):
        x0 = np.concatenate([np.full(M, eta0), np.zeros(M), [np.log(lam0)]])
        st = gauss_newton_reconstruct(data, protocol16, mesh, lattice, disk_layout,
                                      w, sched, settings, x0=x0)
        found.append(st)
    best = min(found, key=lambda s: s.final_misfit)
    assert best.final_misfit <= 1e-12
    assert np.allclose(best.params.eta, truth.eta, atol=1e-4)
    assert best.params.lam == pytest.approx(truth.lam, abs=1e-4)


def test_isotropic_reconstruct_constant_data(disk_curve, disk_layout, protocol16):
    """Homogeneous-data oracle: constant conductivity data reconstructs to a
    constant within 1%, with the inactive (all-zero) schedule."""
    mesh = triangulate(disk_curve, disk_layout, 800)
    lattice = build_pixel_lattice(mesh, 60)
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.4, mesh.n_elements),
                                     disk_layout, protocol16, 0.0, None)
    w = RegWeights(alpha0=1e-8, alpha1=1e-4)
    state = isotropic_reconstruct(data, protocol16, mesh, lattice, disk_layout,
                                  w, BarrierSchedule.inactive(1))
    assert state.converged
    assert np.abs(state.gamma - 1.4).max() <= 0.014


def test_line_search_failure_flags_nonconverged(small_problem):
    """Voltages scale like 1/eta, so the Gauss-Newton linearization toward a
    much smaller conductivity overshoots into eta < 0; with backtracking and
    damping escalation disabled the driver must flag non-convergence."""
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(0.05, mesh.n_elements),
                                     layout, prot, 0.0, None)
    settings = GNSettings(max_backtracks=0, damping_escalations=0, eta_step_cap=1e9)
    state = gauss_newton_reconstruct(data, prot, mesh, lattice, layout,
                                     RegWeights(0, 0), BarrierSchedule.inactive(1),
                                     settings)
    assert not state.converged


def test_step_solve_rejects_indefinite_system():
    """A step system that is not positive definite raises instead of
    falling back to a least-squares step: once through an indefinite band
    block, once through a negative lam border."""
    J = np.zeros((4, 3))
    indefinite_band = inverse._StepSystem([np.array([[2.0, 1.0, -3.0]])], np.arange(3), J)
    g = np.array([0.1, -0.2, 0.3])
    with pytest.raises(ReconError, match="not positive definite"):
        inverse._trust_capped_step(indefinite_band, g, [(slice(0, 3), 1.0)], np.zeros(1))
    negative_border = inverse._StepSystem([np.array([[2.0]]), np.array([[1.0]])], np.arange(1),
                                          J, border=-3.0)
    caps = [(slice(0, 1), 1.0), (slice(1, 2), 1.0), (slice(2, 3), 1.0)]
    with pytest.raises(ReconError, match="not positive definite"):
        inverse._trust_capped_step(negative_border, g, caps, np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), M=st.integers(1, 25), N=st.integers(1, 70),
       anisotropic=st.booleans(), beta2=st.sampled_from([0.0, 0.4]))
# tiny theta penalty next to J^T J: C is badly conditioned although H is not
@example(seed=299, M=1, N=32, anisotropic=True, beta2=0.0)
def test_step_system_matches_dense_solve(seed, M, N, anisotropic, beta2):
    """The data-space step equals a dense solve of the explicit shifted
    H = penalty Hessians + barrier diagonal + lam curvature + 2 J^T J, on
    random lattices and Jacobians with N below and above the unknown count."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(M)))
    cells = rng.permutation(side * side)[:M]
    ij = np.column_stack(np.divmod(cells, side))
    step = ij[None, :, :] - ij[:, None, :]
    a, b = np.nonzero((step == [1, 0]).all(axis=2) | (step == [0, 1]).all(axis=2))
    graph = NeighborGraph(M=M, pairs=np.column_stack([a, b]))
    w = RegWeights(*rng.uniform(0, 1e-2, 4), beta2=beta2, nu=rng.uniform(0.5, 2.0))
    order = scipy.sparse.csgraph.reverse_cuthill_mckee(graph.laplacian(), symmetric_mode=True)
    hess = [inverse.penalty_eta_hess(graph, w.alpha0, w.alpha1),
            inverse.penalty_theta_hess(graph, w.beta0, w.beta1)][:2 if anisotropic else 1]
    bands = [inverse._banded(h, order) for h in hess]
    bar = rng.uniform(0, 1, M) * rng.choice([0.0, 1.0])
    bands[0][-1] += bar[order]
    border = 2.0 * w.beta2 / w.nu ** 2 if anisotropic else None
    n = 2 * M + 1 if anisotropic else M
    J = rng.normal(size=(N, n)) * rng.uniform(0.1, 10.0)
    system = inverse._StepSystem(bands, order, J, border)
    g = rng.normal(size=n)

    R = scipy.linalg.block_diag(*[h.toarray() for h in hess], *([[border]] if anisotropic else []))
    R[np.arange(M), np.arange(M)] += bar
    H = R + 2.0 * J.T @ J
    assert system.shape == (n, n)
    assert system.trace == pytest.approx(np.trace(H), rel=1e-12)
    # a second solve escalates one block's shift, as the trust caps do
    shifts = 10.0 ** rng.uniform(-8, 0, len(hess) + anisotropic)
    escalated = shifts.copy()
    escalated[rng.integers(len(shifts))] *= 1e3
    for block_shifts in (shifts, escalated):
        shifted = H + np.diag(np.repeat(block_shifts, [M] * len(hess) + [1] * anisotropic))
        expected = scipy.linalg.solve(shifted, -g, assume_a="pos")
        delta = system.solve(g, block_shifts)
        assert np.linalg.norm(delta - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("reconstruct", [gauss_newton_reconstruct, isotropic_reconstruct])
def test_reconstruct_rejects_mismatched_inputs(small_problem, reconstruct):
    """Inconsistent data fail at the start with a ReconError that names the
    mismatch, not inside the Gauss-Newton loop."""
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.0, mesh.n_elements),
                                     layout, prot, 0.0, None)
    nan_values = data.values.copy()
    nan_values[3] = np.nan
    bad = [(dataclasses.replace(data, values=data.values[:-1]), "measurements"),
           (dataclasses.replace(data, J=data.J + 1), "electrode counts"),
           (dataclasses.replace(data, values=nan_values), "non-finite")]
    for bad_data, message in bad:
        with pytest.raises(ReconError, match=message):
            reconstruct(bad_data, prot, mesh, lattice, layout, RegWeights(0, 0),
                        BarrierSchedule.inactive(1), GNSettings(max_iterations=1))


def test_recon_state_csv(small_problem):
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    truth = UniformAnisoParams(eta=np.full(M, 1.2), theta=np.zeros(M), lam=1.1)
    data = fem.simulate_measurements(mesh, gamma_hat(truth, lattice), layout, prot, 0.0, None)
    sched = BarrierSchedule.geometric(1e-10, 1e-12, 2)
    st = gauss_newton_reconstruct(data, prot, mesh, lattice, layout,
                                  RegWeights(1e-12, 1e-12), sched,
                                  GNSettings(max_iterations=8))
    text = recon_state_to_csv(st)
    lines = text.splitlines()
    assert lines[0].startswith("# mode=uniformly-anisotropic lambda=")
    assert lines[1] == "pixel,eta,theta"
    assert len(lines) == 2 + M
