import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisoeit import tensors as tn
from anisoeit.geometry import (DomainSpec, build_boundary, build_pixel_lattice, place_electrodes,
                               triangulate)
from anisoeit.tensors import (Diffeo, TensorField, TensorError,
                              UniformAnisoParams, anisotropy,
                              beltrami_mu_field, canonicalize, det_sqrt, gamma_hat,
                              gamma_hat_entries, params_from_field, push_forward,
                              push_forward_function)


def spd_entries(rng):
    A = rng.normal(size=(2, 2))
    G = A @ A.T + 0.05 * np.eye(2)
    return G[0, 0], G[0, 1], G[1, 1]


spd_strategy = st.builds(
    lambda a, b, c: (np.exp(a), np.tanh(b) * np.sqrt(np.exp(a) * np.exp(c)) * 0.999, np.exp(c)),
    st.floats(-2, 2), st.floats(-3, 3), st.floats(-2, 2))


# --- gamma_hat -----------------------------------------------------------

def test_gamma_hat_lambda_one_is_isotropic():
    g11, g12, g22 = gamma_hat_entries(np.full(5, 2.0), np.linspace(0, 3, 5), 1.0)
    assert np.allclose(g11, 2.0) and np.allclose(g22, 2.0) and np.allclose(g12, 0.0)


def test_gamma_hat_axis_aligned():
    g11, g12, g22 = gamma_hat_entries(np.array([1.0]), np.array([0.0]), 4.0)
    assert g11[0] == pytest.approx(2.0, abs=1e-15)
    assert g22[0] == pytest.approx(0.5, abs=1e-15)
    assert g12[0] == pytest.approx(0.0, abs=1e-15)


def test_gamma_hat_lambda_inversion_symmetry():
    rng = np.random.default_rng(1)
    eta = rng.uniform(0.5, 2.0, 40)
    theta = rng.uniform(-4, 4, 40)
    a = np.column_stack(gamma_hat_entries(eta, theta, 3.7))
    b = np.column_stack(gamma_hat_entries(eta, theta + np.pi / 2, 1 / 3.7))
    assert np.allclose(a, b, atol=1e-14)


def test_gamma_hat_eigenvalues_exact(small_lattice):
    M = small_lattice.n_active
    rng = np.random.default_rng(2)
    params = UniformAnisoParams(eta=rng.uniform(0.5, 2, M),
                                theta=rng.uniform(0, np.pi, M), lam=2.5)
    field = gamma_hat(params, small_lattice)
    lam1 = field.g[:, [0, 2]].sum(axis=1) / 2 + np.sqrt(
        ((field.g[:, 0] - field.g[:, 2]) / 2) ** 2 + field.g[:, 1] ** 2)
    eta_e = params.eta[small_lattice.element_to_pixel]
    assert np.allclose(lam1, eta_e * np.sqrt(2.5), rtol=1e-12)


def test_gamma_hat_rejects_bad_params():
    with pytest.raises(TensorError):
        UniformAnisoParams(eta=np.array([1.0, -1.0]), theta=np.zeros(2), lam=1.0)
    with pytest.raises(TensorError):
        UniformAnisoParams(eta=np.ones(2), theta=np.zeros(2), lam=0.0)


@pytest.mark.parametrize("eta, theta, lam, message", [
    ([1.0, np.nan], [0.0, 0.0], 1.0, r"eta\[1\] is not finite \(nan\)"),
    ([np.inf], [0.0], 1.0, r"eta\[0\] is not finite \(inf\)"),
    ([1.0], [np.inf], 1.0, r"theta\[0\] is not finite \(inf\)"),
    ([1.0], [0.0], np.inf, r"lam is not finite \(inf\)"),
])
def test_params_reject_non_finite_entries(eta, theta, lam, message):
    with pytest.raises(TensorError, match=message):
        UniformAnisoParams(eta=np.array(eta), theta=np.array(theta), lam=lam)


def test_tensor_field_rejects_non_finite_entries():
    """An infinite conductivity is named, without the RuntimeWarning its
    eigenvalue check would raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TensorError, match=r"element 1 tensor entry g11 is not finite \(inf\)"):
            TensorField(g=np.array([[1.0, 0.0, 1.0], [np.inf, 0.0, np.inf]]))
        with pytest.raises(TensorError, match=r"element 0 tensor entry g12 is not finite \(nan\)"):
            TensorField(g=np.array([[1.0, np.nan, 1.0]]))


def test_pixel_tensors_are_the_checked_pixel_triples(small_disk_mesh):
    """`pixel_tensors` gives each pixel's (g11, g12, g22), the rows that
    `gamma_hat` hands to the pixel's elements, and rejects an eigenvalue
    ratio beyond `MAX_EIG_RATIO` naming the pixel."""
    lattice = build_pixel_lattice(small_disk_mesh, 12)
    M = lattice.n_active
    rng = np.random.default_rng(2)
    params = UniformAnisoParams(eta=rng.uniform(0.5, 2.0, M), theta=rng.uniform(0, np.pi, M),
                                lam=3.0)
    g = tn.pixel_tensors(params, lattice)
    assert np.array_equal(g, np.column_stack(gamma_hat_entries(params.eta, params.theta, 3.0)))
    assert np.array_equal(gamma_hat(params, lattice).g, g[lattice.element_to_pixel])
    flat = UniformAnisoParams(eta=params.eta, theta=params.theta, lam=2e6)
    with pytest.raises(TensorError, match=r"pixel \d+ eigenvalue ratio exceeds 1e\+06"):
        tn.pixel_tensors(flat, lattice)


def test_isotropic_scalar_needs_element_count():
    with pytest.raises(TensorError, match="scalar isotropic value needs n_elements"):
        TensorField.isotropic(2.0)


def test_gamma_hat_injectivity_and_canonicalization(small_lattice):
    rng = np.random.default_rng(3)
    M = small_lattice.n_active
    params = UniformAnisoParams(eta=rng.uniform(0.5, 2, M),
                                theta=rng.uniform(0, np.pi, M), lam=1.8)
    field = gamma_hat(params, small_lattice)
    lam, theta, eta = params_from_field(field)
    e2p = small_lattice.element_to_pixel
    assert np.allclose(lam, 1.8, atol=1e-10)
    assert np.allclose(eta, params.eta[e2p], atol=1e-10)
    d = np.abs(np.mod(theta - params.theta[e2p] + np.pi / 2, np.pi) - np.pi / 2)
    assert np.all(d < 1e-10)
    # canonicalization resolves the lam <-> 1/lam swap
    low = UniformAnisoParams(eta=params.eta, theta=params.theta, lam=1 / 1.8)
    canon = canonicalize(low)
    assert canon.lam == pytest.approx(1.8, rel=1e-14)
    a = np.column_stack(gamma_hat_entries(low.eta, low.theta, low.lam))
    b = np.column_stack(gamma_hat_entries(canon.eta, canon.theta, canon.lam))
    assert np.allclose(a, b, atol=1e-13)


# --- anisotropy and Beltrami coefficient ---------------------------------

def test_anisotropy_isotropic_zero():
    field = TensorField.isotropic(3.0, 10)
    K, Kmax = anisotropy(field)
    assert np.allclose(K, 0.0) and Kmax == 0.0


def test_anisotropy_gamma_hat_constant(small_lattice):
    M = small_lattice.n_active
    params = UniformAnisoParams(eta=np.full(M, 1.3),
                                theta=np.linspace(0, 3, M), lam=4.0)
    K, Kmax = anisotropy(gamma_hat(params, small_lattice))
    assert np.allclose(K, 1 / 3, atol=1e-12)
    assert Kmax == pytest.approx(1 / 3, abs=1e-12)


def test_anisotropy_direct_formula():
    K, Kmax = anisotropy(TensorField(g=np.array([[9.0, 0.0, 1.0]])))
    assert Kmax == pytest.approx(0.5, abs=1e-14)


def beltrami_mu(g11, g12, g22) -> complex:
    """`beltrami_mu_field` of the one-element field (g11, g12, g22)."""
    return beltrami_mu_field(TensorField(g=np.array([[g11, g12, g22]], dtype=float)))[0]


def test_beltrami_identity_and_diag():
    assert beltrami_mu(1, 0, 1) == 0
    mu = beltrami_mu(2.0, 0.0, 0.5)
    assert mu == pytest.approx(-1 / 3, abs=1e-14)
    K, _ = anisotropy(TensorField(g=np.array([[2.0, 0.0, 0.5]])))
    assert abs(mu) == pytest.approx(K[0], abs=1e-14)


def test_beltrami_rotation_invariance():
    rng = np.random.default_rng(4)
    g11, g12, g22 = spd_entries(rng)
    base = abs(beltrami_mu(g11, g12, g22))
    G = np.array([[g11, g12], [g12, g22]])
    for alpha in np.linspace(0, np.pi, 8, endpoint=False):
        c, s = np.cos(alpha), np.sin(alpha)
        R = np.array([[c, s], [-s, c]])
        Gr = R @ G @ R.T
        mu = beltrami_mu(Gr[0, 0], Gr[0, 1], Gr[1, 1])
        assert abs(abs(mu) - base) < 1e-12


@settings(max_examples=200, deadline=None)
@given(spd_strategy)
def test_beltrami_modulus_equals_anisotropy(entries):
    g11, g12, g22 = entries
    field = TensorField(g=np.array([[g11, g12, g22]]))
    K, _ = anisotropy(field)
    mu = beltrami_mu_field(field)[0]
    assert abs(mu) < 1.0
    assert abs(abs(mu) - K[0]) < 1e-12


@settings(max_examples=200, deadline=None)
@given(spd_strategy)
def test_beltrami_zero_iff_isotropic(entries):
    g11, g12, g22 = entries
    field = TensorField(g=np.array([[g11, g12, g22]]))
    mu = beltrami_mu_field(field)[0]
    lam1 = (g11 + g22) / 2 + np.hypot((g11 - g22) / 2, g12)
    lam2 = (g11 + g22) / 2 - np.hypot((g11 - g22) / 2, g12)
    if abs(mu) < 1e-12:
        assert lam1 / lam2 - 1 < 1e-10
    if abs(lam1 / lam2 - 1) < 1e-14:
        assert abs(mu) < 1e-12


# --- det_sqrt -------------------------------------------------------------

def test_det_sqrt_of_gamma_hat_is_eta(small_lattice):
    M = small_lattice.n_active
    params = UniformAnisoParams(eta=np.full(M, 3.0),
                                theta=np.linspace(-1, 5, M), lam=7.0)
    d = det_sqrt(gamma_hat(params, small_lattice))
    assert np.allclose(d, 3.0, atol=1e-12)


def test_det_sqrt_isotropic():
    assert np.allclose(det_sqrt(TensorField.isotropic(2.5, 4)), 2.5)


# --- diffeomorphisms and push-forward -------------------------------------

@pytest.fixture(scope="module")
def two_meshes():
    curve_d = build_boundary(DomainSpec("disk", {}), 512)
    lay_d = place_electrodes(curve_d, 16, 0.5)
    mesh_d = triangulate(curve_d, lay_d, 400)
    curve_e = build_boundary(DomainSpec("ellipse", {"a": 1.25, "b": 0.8}), 512)
    lay_e = place_electrodes(curve_e, 16, 0.5)
    mesh_e = triangulate(curve_e, lay_e, 400)
    return mesh_d, mesh_e


def test_push_forward_identity(two_meshes):
    mesh_d, _ = two_meshes
    field = TensorField.isotropic(np.linspace(0.5, 2, mesh_d.n_elements))
    out = push_forward(field, mesh_d, Diffeo.identity(), mesh_d)
    assert np.allclose(out.g, field.g)


def test_push_forward_rigid_rotation_preserves_isotropy(two_meshes):
    mesh_d, _ = two_meshes
    c, s = np.cos(0.7), np.sin(0.7)
    rot = Diffeo.affine(np.array([[c, -s], [s, c]]))
    field = TensorField.isotropic(1.7, mesh_d.n_elements)
    out = push_forward(field, mesh_d, rot, mesh_d)
    assert np.allclose(out.g[:, 0], 1.7, atol=1e-12)
    assert np.allclose(out.g[:, 2], 1.7, atol=1e-12)
    assert np.allclose(out.g[:, 1], 0.0, atol=1e-12)


def test_push_forward_affine_hand_value(two_meshes):
    mesh_d, mesh_e = two_meshes
    # x -> (1.25 x, 0.8 y): J G J^T / det J = diag(1.25/0.8, 0.8/1.25)
    d = Diffeo.affine(np.diag([1.25, 0.8]))
    out = push_forward(TensorField.isotropic(1.0, mesh_d.n_elements), mesh_d, d, mesh_e)
    assert np.allclose(out.g[:, 0], 1.5625, atol=1e-12)
    assert np.allclose(out.g[:, 2], 0.64, atol=1e-12)
    assert np.allclose(out.g[:, 1], 0.0, atol=1e-12)


def test_push_forward_det_identity(two_meshes):
    mesh_d, _ = two_meshes

    def gamma_fn(pts):
        pts = np.atleast_2d(pts)
        return 1.0 + 0.5 * np.exp(-np.sum(pts ** 2, axis=1))

    diffeo = Diffeo.radial_boundary_preserving(0.3)
    out = push_forward_function(gamma_fn, diffeo, mesh_d)
    expected = gamma_fn(diffeo.inverse(mesh_d.centroids()))
    assert np.allclose(det_sqrt(out), expected, atol=1e-8)


def test_push_forward_p0_det_identity(two_meshes):
    # piecewise-constant source: det_sqrt equals the looked-up element value
    mesh_d, _ = two_meshes
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.5, 2.0, mesh_d.n_elements)
    field = TensorField.isotropic(vals)
    diffeo = Diffeo.radial_boundary_preserving(0.2)
    out = push_forward(field, mesh_d, diffeo, mesh_d)
    from anisoeit.geometry import locate_points
    src = locate_points(mesh_d, diffeo.inverse(mesh_d.centroids()))
    assert np.allclose(det_sqrt(out), vals[src], atol=1e-8)


def test_conformal_affine_preserves_isotropy(two_meshes):
    mesh_d, _ = two_meshes
    c, s = np.cos(0.4), np.sin(0.4)
    # scalar times rotation, expanding so preimages stay inside the source
    conformal = Diffeo.affine(1.3 * np.array([[c, -s], [s, c]]))
    out = push_forward(TensorField.isotropic(1.0, mesh_d.n_elements),
                       mesh_d, conformal, mesh_d)
    K, Kmax = anisotropy(out)
    assert Kmax < 1e-12


def test_push_forward_rejects_uncovered_destination(two_meshes):
    mesh_d, mesh_e = two_meshes
    # disk image does not cover the ellipse
    with pytest.raises(TensorError, match="outside the source mesh"):
        push_forward(TensorField.isotropic(1.0, mesh_d.n_elements),
                     mesh_d, Diffeo.identity(), mesh_e)


def test_radial_diffeo_validity():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.7, 0.7, (300, 2))
    d = Diffeo.radial_boundary_preserving(0.5)
    assert d.roundtrip_error(pts) < 1e-8
    J = d.jacobian(pts)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    assert np.all(det > 0)
    # boundary preserved
    circle = np.column_stack([np.cos(np.linspace(0, 6, 50)),
                              np.sin(np.linspace(0, 6, 50))])
    assert np.allclose(d.forward(circle), circle, atol=1e-12)
    with pytest.raises(TensorError):
        Diffeo.radial_boundary_preserving(0.8)
    for c in (np.nan, -np.inf):
        with pytest.raises(TensorError, match=rf"finite c .*got c={c!r}"):
            Diffeo.radial_boundary_preserving(c)


def test_tensor_validation():
    with pytest.raises(TensorError, match="element 0 tensor is not positive definite"):
        TensorField(g=np.array([[1.0, 2.0, 1.0]]))
    with pytest.raises(TensorError):
        TensorField(g=np.array([[1.0, 0.0, -1.0]]))
    with pytest.raises(TensorError, match="ratio"):
        TensorField(g=np.array([[1e7, 0.0, 1.0]]))


def test_field_csv_roundtrip():
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.5, 2.0, 20)
    text = tn.scalar_field_to_csv(vals)
    back = tn.scalar_field_from_csv(text)
    assert np.array_equal(vals, back)


def _diffeo(inverse=lambda x: np.atleast_2d(x), jacobian=np.eye(2)) -> Diffeo:
    """The identity map, with the given inverse and constant Jacobian."""
    return Diffeo(forward=lambda x: np.atleast_2d(x), inverse=inverse,
                  jacobian=lambda x: np.tile(jacobian, (len(np.atleast_2d(x)), 1, 1)))


@pytest.mark.parametrize("check, message", [
    (lambda mesh, lattice, field: TensorField(g=np.ones((4, 2))), r"shape \(T, 3\)"),
    (lambda mesh, lattice, field: UniformAnisoParams(eta=np.ones(3), theta=np.zeros(2), lam=1.0),
     "eta and theta must have equal length"),
    (lambda mesh, lattice, field: gamma_hat(UniformAnisoParams(
        eta=np.ones(lattice.n_active + 1), theta=np.zeros(lattice.n_active + 1), lam=1.0),
        lattice), r"parameter length \d+ does not match lattice size \d+"),
    (lambda mesh, lattice, field: Diffeo.affine([[1.0, 0.0], [0.0, -1.0]]),
     "affine map must be orientation preserving"),
    (lambda mesh, lattice, field: push_forward(
        TensorField.isotropic(1.0, mesh.n_elements + 1), mesh, Diffeo.identity(), mesh),
     "field does not match source mesh"),
    (lambda mesh, lattice, field: push_forward(
        field, mesh, _diffeo(inverse=lambda x: np.atleast_2d(x) + 0.1), mesh),
     "diffeo inverse is inconsistent with forward map"),
    (lambda mesh, lattice, field: push_forward(
        field, mesh, _diffeo(jacobian=np.diag([1.0, -1.0])), mesh),
     "diffeo is not orientation preserving on the preimages"),
], ids=["field shape", "eta/theta length", "lattice size", "affine orientation",
        "push-forward field size", "push-forward inverse", "push-forward orientation"])
def test_public_inputs_are_checked(small_disk_mesh, small_lattice, check, message):
    field = TensorField.isotropic(1.0, small_disk_mesh.n_elements)
    with pytest.raises(TensorError, match=message):
        check(small_disk_mesh, small_lattice, field)
