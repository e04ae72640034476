import dataclasses
import json
import logging
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from anisoeit import fem, harness, inverse
from anisoeit.geometry import build_pixel_lattice, triangulate
from anisoeit.inverse import (BarrierSchedule, GNSettings, ReconError,
                              RegWeights, barrier, barrier_grad, forward_map,
                              forward_map_isotropic, gauss_newton_reconstruct,
                              isotropic_reconstruct, jacobian, jacobian_isotropic,
                              objective, penalty_eta, penalty_eta_grad,
                              penalty_theta, penalty_theta_grad, recon_state_to_csv)
from anisoeit.tensors import TensorError, TensorField, UniformAnisoParams, gamma_hat


TWO_PIXEL_PAIRS = np.array([[0, 1]])


# --- penalties --------------------------------------------------------------

def test_penalty_eta_constant_field(small_lattice):
    M = small_lattice.n_active
    val = penalty_eta(np.full(M, 3.0), small_lattice.neighbor_pairs(), alpha0=0.7, alpha1=5.0)
    assert val == pytest.approx(0.7 * M * 9.0, rel=1e-14)


def test_penalty_eta_two_pixels_hand_enumeration():
    # double sum counts the unordered pair twice: 2 * |1-3|^2 = 8
    val = penalty_eta(np.array([1.0, 3.0]), TWO_PIXEL_PAIRS, alpha0=0.0, alpha1=1.0)
    assert val == pytest.approx(8.0, abs=1e-15)


def test_penalty_eta_gradient_fd(small_lattice):
    rng = np.random.default_rng(0)
    pairs, M = small_lattice.neighbor_pairs(), small_lattice.n_active
    eta = rng.uniform(0.5, 2.0, M)
    g = penalty_eta_grad(eta, pairs, 0.3, 1.7)
    h = 1e-6
    for i in rng.choice(M, 8, replace=False):
        ep, em = eta.copy(), eta.copy()
        ep[i] += h
        em[i] -= h
        fd = (penalty_eta(ep, pairs, 0.3, 1.7) - penalty_eta(em, pairs, 0.3, 1.7)) / (2 * h)
        assert abs(g[i] - fd) <= 1e-8 * max(abs(fd), 1.0)


def test_penalty_theta_values():
    pairs = TWO_PIXEL_PAIRS
    assert penalty_theta(np.array([0.7, 0.7]), pairs, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    # antipodal unit vectors: 2 * |1 - (-1)|^2 = 8
    assert penalty_theta(np.array([0.0, np.pi]), pairs, 0.0, 1.0) == pytest.approx(8.0, abs=1e-12)
    t = np.array([0.3, -1.2])
    assert penalty_theta(t + 2 * np.pi, pairs, 0.0, 1.3) == pytest.approx(
        penalty_theta(t, pairs, 0.0, 1.3), abs=1e-12)


def test_penalty_theta_gradient_fd(small_lattice):
    rng = np.random.default_rng(1)
    pairs, M = small_lattice.neighbor_pairs(), small_lattice.n_active
    theta = rng.uniform(-3, 3, M)
    g = penalty_theta_grad(theta, pairs, 0.2, 0.9)
    h = 1e-6
    for i in rng.choice(M, 8, replace=False):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        fd = (penalty_theta(tp, pairs, 0.2, 0.9) - penalty_theta(tm, pairs, 0.2, 0.9)) / (2 * h)
        assert abs(g[i] - fd) <= 1e-7 * max(abs(fd), 1.0)


def test_penalty_lambda(small_problem):
    """The lam penalty beta2 (log lam + log^2 lam / nu^2), as the problem
    evaluates it in log lam: `_Problem.penalty` with the eta and theta
    weights at zero.  `UniformAnisoParams` rejects lam <= 0
    (`test_gamma_hat_rejects_bad_params`)."""
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.0, mesh.n_elements),
                                     layout, prot, 0.0, None)

    def penalty_lambda(lam, beta2, nu=1.0):
        problem = inverse._Problem(inverse.ANISOTROPIC, data, prot, mesh, lattice, layout,
                                   RegWeights(0.0, 0.0, beta2=beta2, nu=nu))
        free = np.concatenate([np.ones(M), np.zeros(M), [np.log(lam)]])
        return problem.penalty(problem.initial(free))

    assert penalty_lambda(1.0, beta2=3.0, nu=0.5) == 0.0
    assert penalty_lambda(2.7, beta2=0.0) == 0.0
    assert penalty_lambda(np.e, beta2=1.0, nu=1.0) == pytest.approx(2.0, rel=1e-14)
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


@pytest.mark.parametrize("xi", [[1e-5, np.nan], [np.inf, 1e-5]])
def test_barrier_schedule_rejects_non_finite(xi):
    with pytest.raises(ReconError, match="finite"):
        BarrierSchedule(xi=np.array(xi))


@pytest.mark.parametrize("weights", [dict(alpha0=np.nan), dict(beta1=np.inf),
                                     dict(beta2=1.0, nu=np.nan), dict(nu=np.inf)])
def test_reg_weights_reject_non_finite(weights):
    with pytest.raises(ReconError, match="finite"):
        RegWeights(**{"alpha0": 0.0, "alpha1": 0.0, **weights})


def loop_laplacian(pairs, M):
    L = np.zeros((M, M))
    for a, b in pairs:
        L[a, a] += 1.0
        L[b, b] += 1.0
        L[a, b] -= 1.0
        L[b, a] -= 1.0
    return L


def test_neighbor_graph_symmetric(small_lattice):
    """`penalty_hess` at weights (0, 1/4) is the graph Laplacian of the pairs."""
    pairs, M = small_lattice.neighbor_pairs(), small_lattice.n_active
    cases = [(pairs, M, loop_laplacian(pairs, M)),
             (TWO_PIXEL_PAIRS, 2, np.array([[1.0, -1.0], [-1.0, 1.0]]))]
    for pairs, M, expected in cases:
        L = inverse.penalty_hess(pairs, M, 0.0, 0.25)
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


def test_objective_at_isotropic_params_is_the_isotropic_objective(small_problem):
    """At theta = 0 and lam = 1 the theta and lam penalties add exact zeros,
    so `objective` equals the isotropic mode's objective bit for bit."""
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    gamma = np.random.default_rng(3).uniform(0.8, 1.4, M)
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.0, mesh.n_elements),
                                     layout, prot, 0.0, None)
    w = RegWeights(1e-3, 2e-2, 3e-3, 4e-2, beta2=0.5, nu=0.7)
    params = UniformAnisoParams(eta=gamma, theta=np.zeros(M), lam=1.0)
    iso = inverse._Problem(inverse.ISOTROPIC, data, prot, mesh, lattice, layout, w)
    assert (objective(params, data, prot, mesh, lattice, layout, w, 1e-4)
            == iso.value(iso.initial(gamma), 1e-4)[0])


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


def test_jacobian_column_locality(small_problem, element_products):
    """The eta column of pixel i is the adjoint integral over pixel i's
    elements only: removing those elements' contributions zeroes it.  In the
    Gram Jacobian, zeroing pixel i's rows of the gradient map zeroes its eta
    and theta columns and leaves every other pixel's columns bitwise equal."""
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    params = UniformAnisoParams(eta=np.ones(M), theta=np.zeros(M), lam=1.4)
    system = fem.assemble(mesh, gamma_hat(params, lattice), layout)
    u_nodal, _ = fem.solve_many(system, prot.patterns)
    P = element_products(system.operator, u_nodal, np.repeat(np.arange(prot.K), prot.L),
                         prot.retained_pairs.ravel())
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
    pixel_sum = scipy.sparse.csr_matrix((areas, (lattice.element_to_pixel, np.arange(T))),
                                        shape=(M, T))
    S_zeroed = (pixel_sum @ P_zeroed.reshape(T, 3 * N)).reshape(M, 3, N)
    assert np.linalg.norm(-np.einsum("cn,c->n", S_zeroed[i], D_eta_i)) == 0.0

    fold = inverse._Fold(prot)
    grad = inverse._pixel_gradients(mesh, lattice)
    rows = grad.shape[0] // M
    cut = grad.copy()
    cut.data[cut.indptr[i * rows]:cut.indptr[(i + 1) * rows]] = 0.0
    J_u = inverse._unique_jacobian(params, u_nodal, fold, grad)
    J_cut = inverse._unique_jacobian(params, u_nodal, fold, cut)
    assert np.linalg.norm(J_cut[:, [i, M + i]]) == 0.0
    others = np.delete(np.arange(2 * M), [i, M + i])
    assert np.array_equal(J_cut[:, others], J_u[:, others])


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
        g, _ = problem.linearize(x, xi)

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


@pytest.mark.parametrize("reconstruct", [gauss_newton_reconstruct, isotropic_reconstruct])
def test_run_log_entries_are_taken_at_the_accepted_iterate(small_problem, reconstruct):
    """Objective, misfit, penalty and barrier of every history entry belong to
    the accepted iterate, so they add up exactly; the state also records the
    misfit at the starting point (unit isotropic conductivity)."""
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    cent = lattice.centers
    gtruth = 1.0 + 0.8 * np.exp(-((cent[:, 0] - 0.3) ** 2 + cent[:, 1] ** 2) / 0.15)
    data = fem.simulate_measurements(
        mesh, TensorField.isotropic(gtruth[lattice.element_to_pixel]), layout, prot, 0.01, 11)
    w = RegWeights(alpha0=1e-8, alpha1=1e-4, beta0=1e-8, beta1=5e-6)
    state = reconstruct(data, prot, mesh, lattice, layout, w,
                        BarrierSchedule.geometric(1e-5, 1e-8, 3), GNSettings(max_iterations=6))
    assert len(state.history) == 6
    for row in state.history:
        assert row["objective"] == row["misfit"] + row["penalty"] + row["barrier"]
        assert row["penalty"] > 0 and row["barrier"] > 0
    assert (state.final_objective, state.final_misfit) == (state.history[-1]["objective"],
                                                           state.history[-1]["misfit"])
    unit = UniformAnisoParams(eta=np.ones(M), theta=np.zeros(M), lam=1.0)
    r = data.values - forward_map(unit, prot, mesh, lattice, layout)
    assert state.initial_misfit == float(r @ r)


@pytest.mark.parametrize("gn, reasons", [
    (GNSettings(max_inner=1, obj_tol=0.0, step_tol=0.0), ["max_inner"] * 3),
    (GNSettings(max_iterations=2, max_inner=5, obj_tol=0.0, step_tol=0.0),
     ["max_iterations"]),
    (GNSettings(obj_tol=1.0), ["obj_tol"] * 3),
    (GNSettings(obj_tol=0.0, step_tol=1e9), ["step_tol"] * 3),
])
def test_each_stage_records_why_it_stopped(small_problem, gn, reasons, caplog):
    """Every barrier stage that runs records its xi, its iteration count and
    why it stopped, in the state, the run log and one INFO record of the
    anisoeit logger; the counts add up to the history.  Zero tolerances
    never bind, since an accepted step lowers the objective, and a unit
    obj_tol or a huge step_tol binds at once."""
    caplog.set_level(logging.INFO, logger="anisoeit")
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.3, mesh.n_elements),
                                     layout, prot, 0.01, 11)
    schedule = BarrierSchedule.geometric(1e-5, 1e-8, 3)
    state = isotropic_reconstruct(data, prot, mesh, lattice, layout,
                                  RegWeights(alpha0=1e-8, alpha1=1e-4), schedule, gn)
    assert [row["stop_reason"] for row in state.stages] == reasons
    assert [row["stage"] for row in state.stages] == list(range(len(reasons)))
    assert [row["xi"] for row in state.stages] == list(schedule.xi[:len(reasons)])
    assert [row["iterations"] for row in state.stages] == [
        sum(1 for row in state.history if row["stage"] == k) for k in range(len(reasons))]
    assert json.loads(inverse.run_log_to_json(state))["stages"] == state.stages
    records = [r for r in caplog.records if r.name.startswith("anisoeit")]
    assert [r.args for r in records] == state.stages
    assert [r.getMessage().rsplit(" ", 1)[1] for r in records] == reasons


@pytest.mark.parametrize("mode", [inverse.ANISOTROPIC, inverse.ISOTROPIC])
def test_warm_gauss_newton_iteration_allocates_no_jacobian(mode):
    """On the case1 scene, a problem's second GN round (linearize, step
    system and trust-capped step at a new iterate whose fields the line
    search has solved) reuses the arrays of the first: its traced peak
    stays below the size of one (N, n_free) array."""
    cfg = harness.builtin_configs()["case1_ellipse"]
    scene = harness.build_scene(cfg)
    problem = inverse._Problem(mode, scene.data, scene.protocol, scene.mesh_recon,
                               scene.lattice, scene.layout_recon, cfg.weights)
    caps = list(zip(problem.blocks, (inverse._ETA_STEP_CAP, inverse._THETA_STEP_CAP,
                                     inverse._LOGLAM_STEP_CAP)))
    xi = 1e-5

    def gn_round(x):
        g, Jm = problem.linearize(x, xi)
        system = problem.step_system(x, xi, Jm)
        shifts = np.full(len(caps), inverse._DAMPING * system.trace)
        return inverse._trust_capped_step(system, g, caps, shifts)[0]

    x = problem.initial()
    x[:problem.n_free] += 0.5 * gn_round(x)
    problem.value(x, xi)
    tracemalloc.start()
    try:
        gn_round(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    jacobian_bytes = len(problem.fold.drive) * problem.n_free * 8
    assert peak < jacobian_bytes, f"traced peak {peak} B, Jacobian {jacobian_bytes} B"


@pytest.mark.parametrize("reconstruct", [gauss_newton_reconstruct, isotropic_reconstruct])
def test_history_records_gradient_and_decreases(small_problem, reconstruct, monkeypatch):
    """Every history entry records the norm of the gradient g it stepped
    from, a positive GN-predicted decrease, and the actual decrease, which
    meets the Armijo condition of the accepted step t delta and is the drop
    of the objective since the previous entry of the same stage."""
    mesh, lattice, layout, prot = small_problem
    cent = lattice.centers
    gtruth = 1.0 + 0.8 * np.exp(-((cent[:, 0] - 0.3) ** 2 + cent[:, 1] ** 2) / 0.15)
    data = fem.simulate_measurements(
        mesh, TensorField.isotropic(gtruth[lattice.element_to_pixel]), layout, prot, 0.01, 11)
    w = RegWeights(alpha0=1e-8, alpha1=1e-4, beta0=1e-8, beta1=5e-6)
    steps = []  # per linearization, the (g, delta) of each step solve
    linearize, capped_step = inverse._Problem.linearize, inverse._trust_capped_step

    def recording_linearize(problem, x, xi):
        steps.append([])
        return linearize(problem, x, xi)

    def recording_step(system, g, caps, shifts):
        out = capped_step(system, g, caps, shifts)
        steps[-1].append((g, out[0]))
        return out

    monkeypatch.setattr(inverse._Problem, "linearize", recording_linearize)
    monkeypatch.setattr(inverse, "_trust_capped_step", recording_step)
    state = reconstruct(data, prot, mesh, lattice, layout, w,
                        BarrierSchedule.geometric(1e-5, 1e-8, 3), GNSettings(max_iterations=8))
    assert len(state.history) == len(steps) == 8
    for k, (row, calls) in enumerate(zip(state.history, steps)):
        g, delta = calls[-1]  # the step the line search accepted
        assert row["grad_norm"] == float(np.linalg.norm(g))
        assert row["predicted_decrease"] > 0
        assert row["actual_decrease"] >= -inverse._ARMIJO * row["step"] * float(g @ delta)
        if k and state.history[k - 1]["stage"] == row["stage"]:
            assert row["actual_decrease"] == state.history[k - 1]["objective"] - row["objective"]


@pytest.mark.parametrize("reconstruct", [gauss_newton_reconstruct, isotropic_reconstruct])
def test_one_factorization_per_feasible_point(small_problem, reconstruct, monkeypatch):
    """The starting point and each feasible line-search trial are factored
    once: the accepted trial's drive fields serve the next Jacobian and the
    next stage start.  The run log's `solves` add up to the same count."""
    mesh, lattice, layout, prot = small_problem
    cent = lattice.centers
    gtruth = 1.0 + 0.8 * np.exp(-((cent[:, 0] - 0.3) ** 2 + cent[:, 1] ** 2) / 0.15)
    data = fem.simulate_measurements(
        mesh, TensorField.isotropic(gtruth[lattice.element_to_pixel]), layout, prot, 0.01, 11)
    w = RegWeights(alpha0=1e-8, alpha1=1e-4, beta0=1e-8, beta1=5e-6)
    factorizations, feasible = [], []
    pbtrf, is_feasible = fem.pbtrf, inverse._Problem.feasible

    def counting_pbtrf(band, **options):
        factorizations.append(band.shape)
        return pbtrf(band, **options)

    def counting_feasible(problem, x):
        feasible.append(is_feasible(problem, x))
        return feasible[-1]

    monkeypatch.setattr(fem, "pbtrf", counting_pbtrf)
    monkeypatch.setattr(inverse._Problem, "feasible", counting_feasible)
    state = reconstruct(data, prot, mesh, lattice, layout, w,
                        BarrierSchedule.geometric(1e-5, 1e-8, 3),
                        GNSettings(max_iterations=6, max_inner=2))
    assert len({row["stage"] for row in state.history}) == 3
    feasible_trials = sum(feasible[1:])  # the first check is of the starting point
    assert len(factorizations) == 1 + feasible_trials
    assert sum(row["solves"] for row in state.history) == len(factorizations)


@pytest.mark.parametrize("reconstruct", [gauss_newton_reconstruct, isotropic_reconstruct])
def test_run_log_counts_step_factorizations(small_problem, reconstruct, monkeypatch):
    """Each history entry's `step_factors` is the number of band-block
    factorizations its step made, escalations and line-search retries
    included: each solve factors at most every band block, and the first
    factors all of them.  Tight trust caps make the steps escalate."""
    mesh, lattice, layout, prot = small_problem
    cent = lattice.centers
    gtruth = 1.0 + 0.8 * np.exp(-((cent[:, 0] - 0.3) ** 2 + cent[:, 1] ** 2) / 0.15)
    data = fem.simulate_measurements(
        mesh, TensorField.isotropic(gtruth[lattice.element_to_pixel]), layout, prot, 0.01, 11)
    w = RegWeights(alpha0=1e-8, alpha1=1e-4, beta0=1e-8, beta1=5e-6)
    counts = []  # per linearization, the step's band factorizations
    pbtrf, linearize = inverse.pbtrf, inverse._Problem.linearize

    def counting_pbtrf(band, **options):
        counts[-1] += 1
        return pbtrf(band, **options)

    def counting_linearize(problem, x, xi):
        counts.append(0)
        return linearize(problem, x, xi)

    monkeypatch.setattr(inverse, "pbtrf", counting_pbtrf)
    monkeypatch.setattr(inverse._Problem, "linearize", counting_linearize)
    monkeypatch.setattr(inverse, "_ETA_STEP_CAP", 0.02)
    monkeypatch.setattr(inverse, "_THETA_STEP_CAP", 0.02)
    state = reconstruct(data, prot, mesh, lattice, layout, w,
                        BarrierSchedule.geometric(1e-5, 1e-8, 3), GNSettings(max_iterations=8))
    blocks = 2 if reconstruct is gauss_newton_reconstruct else 1
    assert [row["step_factors"] for row in state.history] == counts
    assert all(blocks <= row["step_factors"] <= blocks * (1 + row["escalations"])
               for row in state.history)
    assert all(row["step_factors"] > blocks for row in state.history)
    assert json.loads(inverse.run_log_to_json(state))["iterations"] == state.history


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
    # one result shape: gamma is eta of params frozen at theta = 0, lam = 1
    assert state.gamma is state.params.eta
    assert state.params.lam == 1.0 and not np.any(state.params.theta)
    assert recon_state_to_csv(state).splitlines()[:2] == ["# mode=isotropic", "pixel,gamma"]


def test_line_search_failure_flags_nonconverged(small_problem, monkeypatch):
    """Voltages scale like 1/eta, so the Gauss-Newton linearization toward a
    much smaller conductivity overshoots into eta < 0; with backtracking and
    damping escalation disabled the driver must flag non-convergence."""
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(0.05, mesh.n_elements),
                                     layout, prot, 0.0, None)
    monkeypatch.setattr(inverse, "_MAX_BACKTRACKS", 0)
    monkeypatch.setattr(inverse, "_DAMPING_RETRIES", 0)
    monkeypatch.setattr(inverse, "_ETA_STEP_CAP", 1e9)
    state = gauss_newton_reconstruct(data, prot, mesh, lattice, layout,
                                     RegWeights(0, 0), BarrierSchedule.inactive(1))
    assert not state.converged
    assert [row["stop_reason"] for row in state.stages] == ["line_search_failed"]


def test_rejected_step_is_resolved_with_more_damping(small_problem, monkeypatch):
    """With backtracking disabled, the steps toward a much smaller
    conductivity break the line search.  Each rejected step is re-solved
    from 1e4 times the shifts it was solved with, trust-cap escalations
    included, so a retry always damps more than the step that failed; the
    history counts one escalation per rejected step on top of the trust-cap
    escalations."""
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(0.05, mesh.n_elements),
                                     layout, prot, 0.0, None)
    monkeypatch.setattr(inverse, "_MAX_BACKTRACKS", 0)
    calls = []  # per linearization, (shifts in, escalations, shifts out) of each step solve
    linearize, capped_step = inverse._Problem.linearize, inverse._trust_capped_step

    def recording_linearize(problem, x, xi):
        calls.append([])
        return linearize(problem, x, xi)

    def recording_step(system, g, caps, shifts):
        delta, escalations, shifts_out = capped_step(system, g, caps, shifts)
        calls[-1].append((shifts.copy(), escalations, shifts_out))
        return delta, escalations, shifts_out

    monkeypatch.setattr(inverse._Problem, "linearize", recording_linearize)
    monkeypatch.setattr(inverse, "_trust_capped_step", recording_step)
    state = gauss_newton_reconstruct(data, prot, mesh, lattice, layout,
                                     RegWeights(0, 0), BarrierSchedule.inactive(1))
    retries = [(failed, retry) for steps in calls for failed, retry in zip(steps, steps[1:])]
    assert retries
    for (_, _, failed_shifts), (start, _, _) in retries:
        assert np.all(start >= 1e4 * failed_shifts)
    # here one retry rescues each rejected step, so no stage ends by a
    # line-search failure
    assert state.converged and all(len(steps) <= 2 for steps in calls)
    for row, steps in zip(state.history, calls):
        assert row["escalations"] == sum(esc for _, esc, _ in steps) + len(steps) - 1


def test_trust_cap_escalation_contract(monkeypatch):
    """Each escalation multiplies the shift of every block that breaks its
    trust cap by at least ten, and by its overshoot of the cap when that is
    larger, and leaves the other blocks alone; the step returned respects
    every cap and solves with the shifts returned.  A cap that every step
    breaks (a negative one) raises after 40 escalations."""
    rng = np.random.default_rng(5)
    M, N = 6, 9
    J = rng.normal(size=(N, 2 * M + 1))
    system = inverse._StepSystem([np.ones((1, M)), np.ones((1, M))], J, border=1.0)
    g = 1e3 * rng.normal(size=2 * M + 1)
    solves = []  # (shifts, delta) of every solve
    solve = system.solve

    def recording_solve(g, shifts):
        solves.append((shifts.copy(), solve(g, shifts)))
        return solves[-1][1]

    monkeypatch.setattr(system, "solve", recording_solve)
    blocks = [slice(0, M), slice(M, 2 * M), slice(2 * M, 2 * M + 1)]
    caps = list(zip(blocks, (1e-3, np.inf, 0.05)))
    delta, escalations, shifts = inverse._trust_capped_step(system, g, caps, np.full(3, 1e-6))
    assert escalations == len(solves) - 1 >= 2
    assert np.array_equal(solves[-1][0], shifts) and solves[-1][1] is delta
    assert all(np.abs(delta[b]).max() <= cap for b, cap in caps)
    overshoots = []
    for (before, step), (after, _) in zip(solves, solves[1:]):
        for k, (b, cap) in enumerate(caps):
            peak = np.abs(step[b]).max()
            if peak > cap:
                assert after[k] >= before[k] * max(10.0, peak / cap)
                overshoots.append(peak / cap)
            else:
                assert after[k] == before[k]
    assert max(overshoots) > 10.0 > min(overshoots)  # both factors are exercised

    solves.clear()
    always_binding = [(blocks[0], -1.0), (blocks[1], np.inf), (blocks[2], np.inf)]
    with pytest.raises(ReconError, match="after 40 damping escalations"):
        inverse._trust_capped_step(system, g, always_binding, np.full(3, 1e-6))
    assert len(solves) == 40
    for (before, _), (after, _) in zip(solves, solves[1:]):
        assert after[0] >= 10.0 * before[0]
        assert np.array_equal(after[1:], before[1:])


@pytest.mark.parametrize("xi", [0.0, 1e-5])
def test_tiny_eta_start_is_infeasible(small_problem, xi):
    """An eta whose cube underflows out of the normal floats would put inf
    or NaN into the barrier curvature (and, further down, a zero tensor
    determinant), so such a starting iterate is infeasible with or without
    the barrier; `_ETA_FLOOR`, whose cube is normal, is feasible."""
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.0, mesh.n_elements),
                                     layout, prot, 0.0, None)
    schedule = BarrierSchedule(np.array([xi]))
    x0 = np.ones(lattice.n_active)
    x0[7] = 1e-110
    with pytest.raises(ReconError, match="initial iterate is infeasible"):
        isotropic_reconstruct(data, prot, mesh, lattice, layout, RegWeights(1e-8, 1e-4),
                              schedule, GNSettings(max_iterations=1), x0=x0)
    floor = inverse._ETA_FLOOR
    tiny = np.finfo(float).tiny
    assert tiny <= floor ** 3 < tiny * (1 + 1e-12)  # normal, and tight to round-off
    problem = inverse._Problem(inverse.ISOTROPIC, data, prot, mesh, lattice, layout,
                               RegWeights(1e-8, 1e-4))
    x0[7] = floor
    assert problem.feasible(problem.initial(x0))
    x0[7] = np.nextafter(floor, 0)
    assert not problem.feasible(problem.initial(x0))


def test_step_solve_rejects_indefinite_system():
    """A step system that is not positive definite raises instead of
    falling back to a least-squares step: once through an indefinite band
    block, once through a negative lam border."""
    J = np.zeros((4, 3))
    indefinite_band = inverse._StepSystem([np.array([[2.0, 1.0, -3.0]])], J)
    g = np.array([0.1, -0.2, 0.3])
    with pytest.raises(ReconError, match="not positive definite"):
        inverse._trust_capped_step(indefinite_band, g, [(slice(0, 3), 1.0)], np.zeros(1))
    negative_border = inverse._StepSystem([np.array([[2.0]]), np.array([[1.0]])], J,
                                          border=-3.0)
    caps = [(slice(0, 1), 1.0), (slice(1, 2), 1.0), (slice(2, 3), 1.0)]
    with pytest.raises(ReconError, match="not positive definite"):
        inverse._trust_capped_step(negative_border, g, caps, np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), M=st.integers(1, 25), N=st.integers(1, 70),
       anisotropic=st.booleans(), beta2=st.sampled_from([0.0, 0.4]))
# tiny theta penalty next to J^T J: C is badly conditioned although H is not
@example(seed=299, M=1, N=32, anisotropic=True, beta2=0.0)
def test_step_system_matches_dense_solve(random_step_penalty, seed, M, N, anisotropic, beta2):
    """The data-space step equals a dense solve of the explicit shifted
    H = penalty Hessians + barrier diagonal + lam curvature + 2 J^T J, on
    random lattices (numbered at random, so of any bandwidth) and Jacobians
    with N below and above the unknown count."""
    rng = np.random.default_rng(seed)
    bands, border, R = random_step_penalty(rng, M, anisotropic, beta2)
    n = len(R)
    J = rng.normal(size=(N, n)) * rng.uniform(0.1, 10.0)
    system = inverse._StepSystem(bands, J, border)
    g = rng.normal(size=n)

    H = R + 2.0 * J.T @ J
    assert system.shape == (n, n)
    assert system.trace == pytest.approx(np.trace(H), rel=1e-12)
    # a second solve escalates one block's shift, as the trust caps do
    shifts = 10.0 ** rng.uniform(-8, 0, len(bands) + anisotropic)
    escalated = shifts.copy()
    escalated[rng.integers(len(shifts))] *= 1e3
    for block_shifts in (shifts, escalated):
        shifted = H + np.diag(np.repeat(block_shifts, [M] * len(bands) + [1] * anisotropic))
        expected = scipy.linalg.solve(shifted, -g, assume_a="pos")
        delta = system.solve(g, block_shifts)
        assert np.linalg.norm(delta - expected) <= 1e-9 * np.linalg.norm(expected)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), M=st.integers(1, 200), kd=st.integers(0, 40),
       N=st.integers(1, 130))
@example(seed=1, M=9, kd=3, N=5)  # M below one panel width
@example(seed=2, M=130, kd=24, N=104)  # M not a multiple of the width 48
@example(seed=3, M=50, kd=0, N=17)  # a diagonal factor: panels of the floor width
def test_blocked_whitening_matches_band_triangular_solve(seed, M, kd, N):
    """`_Panels` gives X U^-1 for the band Cholesky factor U of a random
    SPD band, the transpose of LAPACK's unblocked band solve U^-T X^T
    (`dtbtrs`), to a fixed relative tolerance.  The bands are diagonally
    dominant, so U is well conditioned and both backward-stable solves stay
    within a small multiple of (kd + 1) eps of the exact one."""
    kd = min(kd, M - 1)
    rng = np.random.default_rng(seed)
    band = np.zeros((kd + 1, M))
    for d in range(1, kd + 1):
        band[kd - d, d:] = rng.uniform(-1, 1, M - d)
    rows = np.abs(band[:-1]).sum(axis=0)  # entries above each diagonal entry
    for d in range(1, kd + 1):  # and the entries to its right
        rows[:M - d] += np.abs(band[kd - d, d:])
    band[-1] = rows + rng.uniform(0.1, 2.0, M)
    U, info = scipy.linalg.lapack.dpbtrf(band)
    assert info == 0
    storage = np.append(U.ravel(order="F"), 0.0)
    X = np.asfortranarray(rng.normal(size=(N, M)))
    expected, info = scipy.linalg.lapack.dtbtrs(U, X.T, trans="T")
    assert info == 0
    inverse._Panels(kd + 1, M).solve(storage, X)
    assert np.abs(X - expected.T).max() <= 1e-12 * np.abs(expected).max()


def test_escalation_refactors_only_the_escalated_blocks(monkeypatch):
    """In the setting of `test_trust_cap_escalation_contract`, the first
    solve factors every band block and each later solve exactly the blocks
    whose shift the escalation changed, with that shift on the diagonal;
    the system counts the factorizations it made."""
    rng = np.random.default_rng(5)
    M, N = 6, 9
    J = rng.normal(size=(N, 2 * M + 1))
    system = inverse._StepSystem([np.ones((1, M)), np.ones((1, M))], J, border=1.0)
    g = 1e3 * rng.normal(size=2 * M + 1)
    factored, solves = [], []  # diagonals factored; per solve, (shifts, diagonals factored)
    pbtrf, solve = inverse.pbtrf, system.solve

    def counting_pbtrf(band, **options):
        factored.append(band[-1].copy())
        return pbtrf(band, **options)

    def recording_solve(g, shifts):
        before = len(factored)
        delta = solve(g, shifts)
        solves.append((shifts.copy(), factored[before:]))
        return delta

    monkeypatch.setattr(inverse, "pbtrf", counting_pbtrf)
    monkeypatch.setattr(system, "solve", recording_solve)
    blocks = [slice(0, M), slice(M, 2 * M), slice(2 * M, 2 * M + 1)]
    caps = list(zip(blocks, (1e-3, np.inf, 0.05)))
    inverse._trust_capped_step(system, g, caps, np.full(3, 1e-6))
    assert len(solves) >= 3
    previous = np.full(3, np.nan)  # the first solve factors every block
    for shifts, diagonals in solves:
        changed = [k for k in range(2) if shifts[k] != previous[k]]
        assert len(diagonals) == len(changed)
        assert all(np.array_equal(d, np.full(M, 1.0 + shifts[k]))
                   for d, k in zip(diagonals, changed))
        previous = shifts
    assert any(len(diagonals) == 1 for _, diagonals in solves[1:])  # theta's cap never binds
    assert system.factorizations == len(factored)


def test_anisotropic_workspace_plans_one_panel_solve_per_band_shape(small_problem, monkeypatch):
    """The eta and theta bands of the anisotropic problem share one shape,
    so its step workspace builds one `_Panels` plan for both."""
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.0, mesh.n_elements),
                                     layout, prot, 0.0, None)
    problem = inverse._Problem(inverse.ANISOTROPIC, data, prot, mesh, lattice, layout,
                               RegWeights(1e-8, 1e-4, 1e-8, 5e-6))
    built, panels = [], inverse._Panels

    def counting_panels(rows, M):
        built.append((rows, M))
        return panels(rows, M)

    monkeypatch.setattr(inverse, "_Panels", counting_panels)
    assert len({band.shape for band in problem._pen_bands}) == 1 < len(problem._pen_bands)
    work = problem._work
    assert built == [problem._pen_bands[0].shape]
    assert list(work.step.panels) == [problem._pen_bands[0].shape]


def test_step_system_names_a_non_finite_input():
    """A non-finite Jacobian, gradient or Woodbury matrix, or a Woodbury
    pass that overflows, raises a ReconError that names it, not scipy's
    anonymous complaint about infs or NaNs."""
    rng = np.random.default_rng(8)
    M, N = 6, 9
    bands = [np.vstack([np.full((1, M), -0.25), np.full((1, M), 1.0)])]
    J = np.asfortranarray(rng.normal(size=(N, M)))
    J[4, 2] = np.nan
    with pytest.raises(ReconError, match=r"Jacobian is not finite \(row 4, unknown 2: nan\)"):
        inverse._StepSystem(bands, J)
    J[4, 2] = 0.5
    g = rng.normal(size=M)
    g[3] = np.inf
    with pytest.raises(ReconError, match=r"gradient is not finite \(unknown 3\)"):
        inverse._StepSystem(bands, J).solve(g, [1e-6])
    # finite entries whose Gram overflows
    with pytest.raises(ReconError, match="Woodbury matrix is not finite"):
        inverse._StepSystem(bands, 1e200 * J).solve(rng.normal(size=M), [1e-6])
    # a finite gradient whose whitened right-hand side overflows
    with pytest.raises(ReconError, match="the step overflows"):
        inverse._StepSystem(bands, J).solve(np.full(M, 1e308), [1e-6])


def test_forward_map_rejects_an_eigenvalue_ratio_beyond_the_guard(small_problem):
    """lam = 2e6 gives every pixel's tensor an eigenvalue ratio above
    `MAX_EIG_RATIO`: the forward map raises the tensor check's error."""
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    params = UniformAnisoParams(eta=np.ones(M), theta=np.zeros(M), lam=2e6)
    with pytest.raises(TensorError, match=r"eigenvalue ratio exceeds 1e\+06"):
        forward_map(params, prot, mesh, lattice, layout)


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


@pytest.mark.parametrize("reconstruct", [gauss_newton_reconstruct, isotropic_reconstruct])
def test_non_finite_objective_is_rejected_at_stage_start(small_problem, reconstruct):
    """Data of 1e160 are finite, but their squared norm overflows: the run
    raises a ReconError naming the misfit, instead of ending as converged
    with an infinite misfit and NaN decreases.  A barrier (xi = 1e300 over
    eta = 1e-10) or a penalty (theta = 1e200) that overflows at the start
    is named the same way."""
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.0, mesh.n_elements),
                                     layout, prot, 0.0, None)
    huge = dataclasses.replace(data, values=data.values * 1e160)
    schedule = BarrierSchedule.geometric(1e-5, 1e-8, 3)
    eta = np.ones(M)
    eta[0] = 1e-10
    anisotropic = reconstruct is gauss_newton_reconstruct
    runs = [(huge, None, schedule, "misfit"),
            (data, np.concatenate([eta, np.zeros(M), [0.0]]) if anisotropic else eta,
             BarrierSchedule.geometric(1e300, 1e290, 2), "barrier")]
    if anisotropic:
        runs.append((data, np.concatenate([np.ones(M), np.full(M, 1e200), [0.0]]), schedule,
                     "penalty"))
    for run_data, x0, run_schedule, term in runs:
        with pytest.raises(ReconError, match=f"{term} is not finite"):
            reconstruct(run_data, prot, mesh, lattice, layout, RegWeights(1e-8, 1e-4, 1e-8),
                        run_schedule, GNSettings(max_iterations=4), x0=x0)


@pytest.mark.parametrize("check, message", [
    (lambda run: BarrierSchedule(xi=np.full((2, 2), 1e-5)), "nonempty 1-d sequence"),
    (lambda run: BarrierSchedule.geometric(1e-8, 1e-5), "need start > end > 0"),
    (lambda run: run(gauss_newton_reconstruct, lambda M: np.ones(M)),
     r"uniformly-anisotropic iterate needs \d+ entries, got shape \(\d+,\)"),
    (lambda run: run(isotropic_reconstruct, lambda M: np.full(M, -1.0)),
     "initial iterate is infeasible"),
    (lambda run: GNSettings(max_inner=0), "max_inner must be an integer >= 1, got 0"),
    (lambda run: GNSettings(max_iterations=-3), "max_iterations must be an integer >= 1"),
    (lambda run: GNSettings(max_iterations=8.0), "max_iterations must be an integer"),
    (lambda run: GNSettings(max_inner=True), "max_inner must be an integer"),
    (lambda run: GNSettings(obj_tol=np.nan), "obj_tol must be finite and nonnegative"),
    (lambda run: GNSettings(step_tol=-1e-8), "step_tol must be finite and nonnegative"),
    (lambda run: GNSettings(step_tol=np.inf), "step_tol must be finite"),
], ids=["2-d schedule", "geometric start <= end", "x0 length", "infeasible x0",
        "max_inner 0", "max_iterations -3", "max_iterations 8.0", "max_inner True",
        "obj_tol nan", "step_tol -1e-8", "step_tol inf"])
def test_public_inputs_are_checked(small_problem, check, message):
    mesh, lattice, layout, prot = small_problem
    data = fem.simulate_measurements(mesh, TensorField.isotropic(1.0, mesh.n_elements),
                                     layout, prot, 0.0, None)

    def run(reconstruct, x0_of_M):
        return reconstruct(data, prot, mesh, lattice, layout, RegWeights(0, 0),
                           BarrierSchedule.inactive(1), GNSettings(max_iterations=1),
                           x0=x0_of_M(lattice.n_active))

    with pytest.raises(ReconError, match=message):
        check(run)


def test_recon_state_csv(small_problem):
    mesh, lattice, layout, prot = small_problem
    M = lattice.n_active
    truth = UniformAnisoParams(eta=np.full(M, 1.2), theta=np.zeros(M), lam=1.1)
    data = fem.simulate_measurements(mesh, gamma_hat(truth, lattice), layout, prot, 0.0, None)
    sched = BarrierSchedule.geometric(1e-10, 1e-12, 2)
    st = gauss_newton_reconstruct(data, prot, mesh, lattice, layout,
                                  RegWeights(1e-12, 1e-12), sched,
                                  GNSettings(max_iterations=8))
    assert st.gamma is None
    text = recon_state_to_csv(st)
    lines = text.splitlines()
    assert lines[0].startswith("# mode=uniformly-anisotropic lambda=")
    assert lines[1] == "pixel,eta,theta"
    assert len(lines) == 2 + M
