import numpy as np
import pytest
import scipy.linalg

from anisoeit import fem, inverse
from anisoeit.geometry import (DomainSpec, build_boundary, build_pixel_lattice,
                               place_electrodes, triangulate)


@pytest.fixture(scope="session")
def disk_curve():
    return build_boundary(DomainSpec("disk", {}), 1024)


@pytest.fixture(scope="session")
def disk_layout(disk_curve):
    return place_electrodes(disk_curve, 16, 0.5)


@pytest.fixture(scope="session")
def disk_mesh(disk_curve, disk_layout):
    return triangulate(disk_curve, disk_layout, 2190)


@pytest.fixture(scope="session")
def small_disk_mesh(disk_curve, disk_layout):
    return triangulate(disk_curve, disk_layout, 500)


@pytest.fixture(scope="session")
def small_lattice(small_disk_mesh):
    return build_pixel_lattice(small_disk_mesh, 48)


@pytest.fixture(scope="session")
def protocol16():
    return fem.adjacent_protocol(16)


def _random_step_penalty(rng, M: int, anisotropic: bool, beta2: float):
    """The penalty part of a random GN step system on M pixels: a random
    lattice (numbered at random, so of any bandwidth), random weights and a
    barrier diagonal that is zero half of the time.  Returns the step
    system's bands and lam border, and the dense R they stand for."""
    side = int(np.ceil(np.sqrt(M)))
    cells = rng.permutation(side * side)[:M]
    ij = np.column_stack(np.divmod(cells, side))
    step = ij[None, :, :] - ij[:, None, :]
    a, b = np.nonzero((step == [1, 0]).all(axis=2) | (step == [0, 1]).all(axis=2))
    pairs = np.column_stack([a, b])
    w = inverse.RegWeights(*rng.uniform(0, 1e-2, 4), beta2=beta2, nu=rng.uniform(0.5, 2.0))
    hess = [inverse.penalty_hess(pairs, M, w.alpha0, w.alpha1),
            inverse.penalty_hess(pairs, M, w.beta0, w.beta1)][:2 if anisotropic else 1]
    bands = [inverse._banded(h) for h in hess]
    bar = rng.uniform(0, 1, M) * rng.choice([0.0, 1.0])
    bands[0][-1] += bar
    border = 2.0 * w.beta2 / w.nu ** 2 if anisotropic else None
    R = scipy.linalg.block_diag(*[h.toarray() for h in hess], *([[border]] if anisotropic else []))
    R[np.arange(M), np.arange(M)] += bar
    return bands, border, R


@pytest.fixture(scope="session")
def random_step_penalty():
    """`_random_step_penalty`, shared by the step-system tests."""
    return _random_step_penalty


def _element_products(operator, u_nodal: np.ndarray, drive: np.ndarray,
                      adjoint: np.ndarray) -> np.ndarray:
    """Per-element adjoint products (T, 3, N) of the measurements with the
    given drive and adjoint pattern indices, from the drive fields u_nodal
    (K, n).  For the drive field u and the adjoint field w of measurement n,
    P[e, :, n] = (d1u d1w, d1u d2w + d2u d1w, d2u d2w) on element e, with
    grad(phi_i) = (b_i, c_i) / (2 area) on the element."""
    ue = u_nodal.T[operator.triangles]
    scale = (2.0 * operator.areas)[:, None]
    gx = np.einsum("tik,ti->tk", ue, operator.b) / scale
    gy = np.einsum("tik,ti->tk", ue, operator.c) / scale
    xd, xa, yd, ya = gx[:, drive], gx[:, adjoint], gy[:, drive], gy[:, adjoint]
    return np.stack([xd * xa, xd * ya + yd * xa, yd * ya], axis=1)


def _elementwise_jacobian(params, u_nodal: np.ndarray, mesh, lattice, drive: np.ndarray,
                          adjoint: np.ndarray) -> np.ndarray:
    """Jacobian rows (N, 2M + 1) of the measurements (drive, adjoint) as
    element-by-element sums: the area-weighted `_element_products` summed
    per pixel and contracted with the tensor derivatives of each family."""
    operator = mesh.cem_operator
    P = operator.areas[:, None, None] * _element_products(operator, u_nodal, drive, adjoint)
    S = np.zeros((lattice.n_active, 3, len(drive)))
    np.add.at(S, lattice.element_to_pixel, P)
    D_eta, D_theta, D_lam = inverse._aniso_derivative_tensors(params)
    return -np.hstack([np.einsum("icn,ic->ni", S, D_eta), np.einsum("icn,ic->ni", S, D_theta),
                       np.einsum("icn,ic->n", S, D_lam)[:, None]])


@pytest.fixture(scope="session")
def element_products():
    """`_element_products`, the element-wise reference for the Jacobian."""
    return _element_products


@pytest.fixture(scope="session")
def elementwise_jacobian():
    """`_elementwise_jacobian`, the element-wise reference Jacobian."""
    return _elementwise_jacobian
