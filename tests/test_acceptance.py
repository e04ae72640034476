"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the heavy experiment fixtures are shared across criteria.
"""

import dataclasses

import numpy as np
import pytest

from anisoeit import fem, harness, inverse
from anisoeit.fem import adjacent_protocol, assemble, electrode_matrix, solve_current_drive
from anisoeit.geometry import (DomainSpec, build_boundary, build_pixel_lattice,
                               place_electrodes, triangulate)
from anisoeit.harness import (Inclusion, Phantom, builtin_configs,
                              isotropic_correct_variant, isotropic_mismodeled_variant,
                              run_experiment, verify_invariance, verify_locality)
from anisoeit.inverse import (BarrierSchedule, GNSettings, RegWeights, forward_map,
                              gauss_newton_reconstruct, jacobian)
from anisoeit.tensors import (TensorField, UniformAnisoParams, anisotropy,
                              beltrami_mu_field, det_sqrt, gamma_hat, gamma_hat_entries)


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# --- shared heavy fixtures ---------------------------------------------------

@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def case_results(out_root):
    """Anisotropic and isotropic-mismodeled runs for the three benchmark cases,
    plus the isotropic-correct reference for case 1."""
    results = {}
    for name, cfg in builtin_configs().items():
        aniso = run_experiment(cfg, out_root / name / "aniso")
        iso = run_experiment(isotropic_mismodeled_variant(cfg), out_root / name / "iso")
        results[name] = {"aniso": aniso, "iso": iso, "config": cfg}
    case1 = builtin_configs()["case1_ellipse"]
    results["case1_ellipse"]["iso_correct"] = run_experiment(
        isotropic_correct_variant(case1), out_root / "case1_ellipse" / "iso_correct")
    return results


# --- criterion 1: protocol arithmetic ----------------------------------------

def test_criterion_1_protocol_arithmetic():
    prot = adjacent_protocol(16)
    ok = (prot.K, prot.L, prot.N) == (16, 13, 208)
    _report(1, "protocol-arithmetic", ok, f"K={prot.K} L={prot.L} N={prot.N}")


# --- criterion 2: forward-model algebra --------------------------------------

def test_criterion_2_forward_model_algebra():
    curve = build_boundary(DomainSpec("disk", {}), 1024)
    layout = place_electrodes(curve, 16, 0.5)
    mesh = triangulate(curve, layout, 2190)
    system = assemble(mesh, TensorField.isotropic(1.0, mesh.n_elements), layout)

    G, _ = electrode_matrix(system)
    sym = np.abs(G - G.T).max() / np.abs(G).max()

    u0, U0 = solve_current_drive(system, np.zeros(16))
    zero_ok = np.abs(u0).max() == 0 and np.abs(U0).max() == 0

    pattern = np.zeros(16)
    pattern[0], pattern[5] = 1.0, -1.0
    _, U1 = solve_current_drive(system, pattern)
    _, Uc = solve_current_drive(system, 7.5 * pattern)
    lin = np.abs(Uc - 7.5 * U1).max() / np.abs(7.5 * U1).max()

    ok = sym < 1e-10 and zero_ok and lin < 1e-12
    _report(2, "forward-model-algebra", ok,
            f"symmetry={sym:.2e} zero={zero_ok} linearity={lin:.2e}")


# --- criterion 3: jacobian gate ------------------------------------------------

def test_criterion_3_jacobian_gate():
    curve = build_boundary(DomainSpec("disk", {}), 512)
    layout = place_electrodes(curve, 16, 0.5)
    mesh = triangulate(curve, layout, 500)
    lattice = build_pixel_lattice(mesh, 48)
    prot = adjacent_protocol(16)
    M = lattice.n_active
    rng = np.random.default_rng(2024)

    def fd_col(params, name, i, h):
        def f(d):
            eta, theta, lam = params.eta.copy(), params.theta.copy(), params.lam
            if name == "eta":
                eta[i] += d
            elif name == "theta":
                theta[i] += d
            else:
                lam += d
            return forward_map(UniformAnisoParams(eta=eta, theta=theta, lam=lam),
                               prot, mesh, lattice, layout)
        return (f(h) - f(-h)) / (2 * h)

    worst = 0.0
    for _ in range(5):
        params = UniformAnisoParams(eta=rng.uniform(0.6, 1.8, M),
                                    theta=rng.uniform(0, np.pi, M),
                                    lam=rng.uniform(1.3, 2.5))
        _, J = jacobian(params, prot, mesh, lattice, layout)
        for i in range(M):
            fd = fd_col(params, "eta", i, 1e-6 * max(1.0, params.eta[i]))
            worst = max(worst, np.linalg.norm(J[:, i] - fd) / np.linalg.norm(fd))
        for i in range(M):
            fd = fd_col(params, "theta", i, 1e-6)
            worst = max(worst, np.linalg.norm(J[:, M + i] - fd) / np.linalg.norm(fd))
        fd = fd_col(params, "lam", 0, 1e-6 * params.lam)
        worst = max(worst, np.linalg.norm(J[:, 2 * M] - fd) / np.linalg.norm(fd))

    params1 = UniformAnisoParams(eta=rng.uniform(0.6, 1.8, M),
                                 theta=rng.uniform(0, np.pi, M), lam=1.0)
    _, J1 = jacobian(params1, prot, mesh, lattice, layout)
    theta_ratio = np.linalg.norm(J1[:, M:2 * M]) / np.linalg.norm(J1)

    ok = worst < 1e-4 and theta_ratio < 1e-8
    _report(3, "jacobian-gate", ok,
            f"max_rel_col_err={worst:.2e} theta_ratio_at_lam1={theta_ratio:.2e}")


# --- criterion 4: coordinate invariance ------------------------------------------

def test_criterion_4_coordinate_invariance(out_root):
    report = verify_invariance(out_root / "invariance", c=0.3)
    m = report.metrics
    ok = report.success
    _report(4, "coordinate-invariance", ok,
            f"rel_diffs={[f'{d:.4f}' for d in m['relative_differences']]} "
            f"factors={[f'{f:.2f}' for f in m['refinement_factors']]}")


# --- criterion 5: parameterization identities --------------------------------------

def test_criterion_5_parameterization_identities():
    rng = np.random.default_rng(5)
    M = 64
    eta = rng.uniform(0.5, 2.0, M)
    theta = rng.uniform(-3, 3, M)
    lam = 3.1

    g = np.column_stack(gamma_hat_entries(eta, theta, lam))
    field = TensorField(g=g)
    det_err = np.abs(det_sqrt(field) - eta).max()

    K, Kmax = anisotropy(field)
    c_lam = (np.sqrt(lam) - 1) / (np.sqrt(lam) + 1)
    k_err = np.abs(K - c_lam).max()

    g_swap = np.column_stack(gamma_hat_entries(eta, theta + np.pi / 2, 1 / lam))
    swap_err = np.abs(g - g_swap).max()

    mu_err = 0.0
    for _ in range(100):
        A = rng.normal(size=(2, 2))
        spd = A @ A.T + 0.05 * np.eye(2)
        f1 = TensorField(g=np.array([[spd[0, 0], spd[0, 1], spd[1, 1]]]))
        K1, _ = anisotropy(f1)
        mu_err = max(mu_err, abs(abs(beltrami_mu_field(f1)[0]) - K1[0]))

    ok = det_err < 1e-12 and k_err < 1e-12 and swap_err < 1e-12 and mu_err < 1e-12
    _report(5, "parameterization-identities", ok,
            f"det_err={det_err:.1e} K_err={k_err:.1e} swap_err={swap_err:.1e} "
            f"mu_vs_K={mu_err:.1e}")


# --- criterion 6: inverse-crime sanity -----------------------------------------------

def test_criterion_6_inverse_crime():
    curve = build_boundary(DomainSpec("disk", {}), 1024)
    layout = place_electrodes(curve, 16, 0.5)
    mesh = triangulate(curve, layout, 800)
    lattice = build_pixel_lattice(mesh, 30)
    prot = adjacent_protocol(16)
    M = lattice.n_active
    cent = lattice.centers
    eta_true = 1.0 + 0.6 * np.exp(-((cent[:, 0] - 0.3) ** 2
                                    + (cent[:, 1] - 0.2) ** 2) / 0.18)
    truth = UniformAnisoParams(eta=eta_true, theta=np.full(M, 0.4), lam=1.3)
    data = fem.simulate_measurements(mesh, gamma_hat(truth, lattice), layout,
                                     prot, 0.0, None)
    weights = RegWeights(alpha0=1e-14, alpha1=1e-14, beta0=1e-14, beta1=1e-14)
    sched = BarrierSchedule.geometric(1e-10, 1e-14, 3)
    settings = GNSettings(max_iterations=60, max_inner=25, obj_tol=1e-16, step_tol=1e-13)
    state = gauss_newton_reconstruct(data, prot, mesh, lattice, layout,
                                     weights, sched, settings)
    start = UniformAnisoParams(eta=np.ones(M), theta=np.zeros(M), lam=1.0)
    init_misfit = float(np.sum(
        (data.values - forward_map(start, prot, mesh, lattice, layout)) ** 2))
    eta_err = np.linalg.norm(state.params.eta - eta_true) / np.linalg.norm(eta_true)
    ratio = state.final_misfit / init_misfit
    ok = state.converged and eta_err < 0.02 and ratio < 1e-8
    _report(6, "inverse-crime-sanity", ok,
            f"eta_rel_err={eta_err:.2e} misfit_ratio={ratio:.2e}")


# --- criterion 7: benchmark experiment replication ------------------------------------------

def test_criterion_7a_artifact_energy(case_results):
    lines = []
    ok = True
    for name, res in case_results.items():
        a = res["aniso"].metrics["artifact_energy"]
        i = res["iso"].metrics["artifact_energy"]
        ok = ok and res["aniso"].success and res["iso"].success and i > a
        lines.append(f"{name}: iso={i:.3f} aniso={a:.3f}")
    _report("7a", "boundary-artifact-energy", ok, "; ".join(lines))


def test_criterion_7b_inclusion_localization(case_results):
    lines = []
    ok = True
    for name, res in case_results.items():
        m = res["aniso"].metrics
        errs = list(m["centroid_errors"].values())
        good = m["blob_count"] == 2 and all(e < 0.2 for e in errs)
        ok = ok and good
        lines.append(f"{name}: blobs={m['blob_count']} errs={[f'{e:.3f}' for e in errs]}")
    _report("7b", "inclusion-localization", ok, "; ".join(lines))


def test_criterion_7c_lambda_plateau(case_results):
    m = case_results["case1_ellipse"]["aniso"].metrics
    plateau = m["lambda_plateau"]
    lam = m["lambda_final"]
    ok = plateau < 0.01 and abs(lam - 1.0) > 0.05
    _report("7c", "lambda-plateau", ok, f"lambda={lam:.4f} last3_var={plateau:.2e}")


def test_criterion_7_isotropic_correct_beats_mismodeled(case_results):
    res = case_results["case1_ellipse"]
    good = res["iso_correct"].metrics["final_misfit"] < res["iso"].metrics["final_misfit"]
    _report("7+", "correct-geometry-misfit", good,
            f"correct={res['iso_correct'].metrics['final_misfit']:.3e} "
            f"mismodeled={res['iso'].metrics['final_misfit']:.3e}")


# --- criterion 8: locality ------------------------------------------------------------

def test_criterion_8_locality(out_root):
    base = dataclasses.replace(builtin_configs()["case1_ellipse"],
                               phantom=Phantom(background=1.0, inclusions=()))
    pert = Inclusion(center=(0.5, 0.22), radius=0.25, amplitude=1.0)
    report = verify_locality(base, pert, out_root / "locality")
    m = report.metrics
    ok = report.success and m["anisotropic_fraction"] >= 0.6 \
        and m["isotropic_fraction"] < m["anisotropic_fraction"]
    _report(8, "locality", ok,
            f"aniso={m.get('anisotropic_fraction', float('nan')):.3f} "
            f"iso={m.get('isotropic_fraction', float('nan')):.3f}")


# --- criterion 9: determinism ------------------------------------------------------------

def test_criterion_9_determinism(out_root):
    cfg = builtin_configs()["case1_ellipse"]
    r1 = run_experiment(cfg, out_root / "det1")
    r2 = run_experiment(cfg, out_root / "det4")
    ok = r1.success and r2.success
    diffs = []
    for name in (f"{cfg.name}-{cfg.mode}_data.csv", f"{cfg.name}-{cfg.mode}_recon.csv",
                 f"{cfg.name}-{cfg.mode}_eta.csv", f"{cfg.name}-{cfg.mode}_theta.csv"):
        a = (out_root / "det1" / name).read_bytes()
        b = (out_root / "det4" / name).read_bytes()
        same = a == b
        ok = ok and same
        diffs.append(f"{name.rsplit('_', 1)[-1]}={'same' if same else 'DIFFER'}")
    _report(9, "determinism", ok, " ".join(diffs))


# --- supplementary: exported raster blob count (export_field_image contract) -----------

def test_exported_eta_raster_shows_two_inclusions(case_results, out_root):
    cfg = case_results["case1_ellipse"]["config"]
    pgm = out_root / "case1_ellipse" / "aniso" / f"{cfg.name}-{cfg.mode}_eta.pgm"
    img = harness.read_pgm(pgm).astype(float)
    img[img == 0] = np.nan  # background
    inside = np.count_nonzero(~np.isnan(img))
    blobs = harness.blob_analysis(img, lambda x, y: (x, y),
                                  min_size=max(2, round(0.02 * inside)))
    ok = len(blobs) == 2 and sorted(k for k, _, _ in blobs) == ["high", "low"]
    _report("7x", "raster-blob-count", ok,
            f"blobs={[(k, s) for k, _, s in blobs]}")
