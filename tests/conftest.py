import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from anisoeit import fem, inverse
from anisoeit.geometry import (DomainSpec, build_boundary, build_pixel_lattice,
                               place_electrodes, triangulate)

# every run draws the same examples and keeps no failure database (which
# derandomize implies), so two runs of one tree agree; the tests' own
# settings keep their example counts and deadlines
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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


def _node_order(operator, A):
    """The factor-order matrix A (sparse or dense) of `operator` permuted
    back to node order: entry (order[i], order[j]) is A[i, j]."""
    rank = np.argsort(operator.order)
    return A[rank][:, rank]


@pytest.fixture(scope="session")
def node_order():
    """`_node_order`, for tests that read the CEM matrix by node."""
    return _node_order


def _cem_energy(mesh, g: np.ndarray, z: np.ndarray, u: np.ndarray, U: np.ndarray) -> float:
    """sum_e area_e grad(u)' gamma_e grad(u) + sum_j (1/z_j) int_{e_j}
    (u - U_j)^2 ds for nodal u and electrode U, with the contact term
    evaluated edge by edge."""
    p = mesh.nodes[mesh.triangles]
    edges1, edges2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * np.abs(edges1[:, 0] * edges2[:, 1] - edges1[:, 1] * edges2[:, 0])
    ue = u[mesh.triangles]
    jumps = np.stack([ue[:, 1] - ue[:, 0], ue[:, 2] - ue[:, 0]], axis=1)
    grads = np.linalg.solve(np.stack([edges1, edges2], axis=1), jumps[..., None])[..., 0]
    bulk = np.sum(areas * (g[:, 0] * grads[:, 0] ** 2 + 2 * g[:, 1] * grads[:, 0] * grads[:, 1]
                           + g[:, 2] * grads[:, 1] ** 2))
    contact = 0.0
    for edge in mesh.boundary_edges:
        if edge.electrode is None:
            continue
        j, (na, nb) = edge.electrode, edge.nodes
        ell = np.linalg.norm(mesh.nodes[na] - mesh.nodes[nb])
        da, db = u[na] - U[j], u[nb] - U[j]
        contact += ell * (da * da + da * db + db * db) / 3.0 / z[j]
    return bulk + contact


@pytest.fixture(scope="session")
def cem_energy():
    """`_cem_energy`, the edge-by-edge reference for v'Av."""
    return _cem_energy


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


def _step_system(bands, J, border=None):
    """`inverse._StepSystem` over the band blocks `bands` and the Jacobian
    J, writing into a `_StepWork` of its own."""
    return inverse._StepSystem(bands, J, inverse._StepWork(len(J), bands), border)


@pytest.fixture(scope="session")
def step_system():
    """`_step_system`, shared by the step-system tests."""
    return _step_system


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
