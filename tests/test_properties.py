"""Property tests on random small scenes: Fourier domains, 4 to 12 electrodes
with their own contact impedances, and random anisotropic conductivities."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from anisoeit import fem
from anisoeit.geometry import (DomainSpec, build_boundary, build_pixel_lattice,
                               place_electrodes, triangulate)
from anisoeit.inverse import forward_map, jacobian
from anisoeit.tensors import (TensorField, UniformAnisoParams, det_sqrt, gamma_hat,
                              gamma_hat_entries)

coefficients = st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=3)


@st.composite
def scenes(draw):
    """(mesh, lattice, layout, protocol) on a random Fourier domain with J
    electrodes of random contact impedance, about 300 elements and 20 pixels."""
    spec = DomainSpec("fourier", {"cos": draw(coefficients), "sin": draw(coefficients)})
    J = draw(st.integers(4, 12))
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


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), seed=seeds)
def test_electrode_matrix_is_reciprocal(scene, seed):
    """G is symmetric (CEM reciprocity) and kills constants (gauge) for a
    random SPD field with per-element anisotropy."""
    mesh, _, layout, _ = scene
    rng = np.random.default_rng(seed)
    T = mesh.n_elements
    g = gamma_hat_entries(np.exp(rng.uniform(-1, 1, T)), rng.uniform(0, np.pi, T),
                          np.exp(rng.uniform(-1, 1, T)))
    G, _ = fem.electrode_matrix(fem.assemble(mesh, TensorField(g=np.column_stack(g)), layout))
    assert np.abs(G - G.T).max() <= 1e-10 * np.abs(G).max()
    assert np.abs(G @ np.ones(layout.J)).max() <= 1e-10 * np.abs(G).max()


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_isotropic_field_is_det_sqrt_bitwise(small_lattice, data):
    """sqrt(det) of the theta = 0, lam = 1 tensor field is eta itself, bit
    for bit, so an isotropic result exports through the anisotropic path."""
    M = small_lattice.n_active
    eta = data.draw(arrays(float, M, elements=st.floats(1e-6, 1e6)))
    field = gamma_hat(UniformAnisoParams(eta=eta, theta=np.zeros(M), lam=1.0), small_lattice)
    assert np.array_equal(det_sqrt(field), eta[small_lattice.element_to_pixel])
