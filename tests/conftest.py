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
    graph = inverse.NeighborGraph(M=M, pairs=np.column_stack([a, b]))
    w = inverse.RegWeights(*rng.uniform(0, 1e-2, 4), beta2=beta2, nu=rng.uniform(0.5, 2.0))
    hess = [inverse.penalty_hess(graph, w.alpha0, w.alpha1),
            inverse.penalty_hess(graph, w.beta0, w.beta1)][:2 if anisotropic else 1]
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
