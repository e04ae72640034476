"""Regularized reconstruction of conductivity from electrode data.

Minimizes  ||V - U(params)||^2 + penalties + barrier  by damped
Gauss-Newton with Armijo backtracking, sweeping a decreasing interior-point
schedule that keeps eta strictly positive.  The anisotropy scale lam is
optimized in log parameterization so no barrier is needed for it; results
are reported with the canonical lam >= 1.

There is one reconstruction problem, over the unknowns (eta, theta, log lam).
The isotropic baseline is that problem with theta = 0 and lam = 1 frozen:
the tensor is then eta * I, so eta is the isotropic conductivity gamma and
only the M entries of eta move.  Both modes evaluate the objective through
one path.

The GN loop does not call `forward_map` or `jacobian`.  The problem solves
the drive fields once per distinct iterate (`_solve_drives`) and keeps the
last solved set, so the accepted line-search trial serves the next
Jacobian and the next stage start; the Jacobian is then formed from those
fields (`_unique_jacobian`) for the reciprocal-unique measurements only
(`_Fold`); under the adjacent protocol the drive fields are the adjoint
fields too.  It is a per-pixel Gram of the drive gradients: a sparse map
built once per problem (`_pixel_gradients`) takes the drive fields to
their area-weighted element gradients grouped by pixel, and each free
tensor family contracts them with its 2 x 2 derivative tensor in one
batched matrix product over the pixels, so the isotropic mode forms the
eta columns alone.  The problem allocates these arrays, the Jacobian and
the step's arrays once (`_Workspace`) and overwrites them on every
iteration.

The GN step is solved in data space (`_StepSystem`): the penalty Hessians
stay sparse and are stored once per problem as LAPACK bands in lattice
order (pixels are numbered ix-major, so the bandwidth is at most `grid_n`);
with the barrier curvature and a per-block shift they factor by banded
Cholesky, each factor whitens its block of Jacobian columns in BLAS-3
panels read straight from J (`_Panels`), and the Woodbury identity leaves
one N x N Cholesky factorization over the N reciprocal-unique
measurements.  The lam column enters as a scalar border.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dpbtrf as pbtrf
from scipy.sparse import _sparsetools

from anisoeit.geometry import ElectrodeLayout, Mesh, PixelLattice, _finite, _integer
from anisoeit.tensors import UniformAnisoParams, canonicalize, gamma_hat, gamma_hat_entries
from anisoeit import fem


# one INFO record per finished barrier stage; silent unless a handler is
# attached (the CLI's -v/--verbose attaches one to the "anisoeit" logger)
_log = logging.getLogger(__name__)


class ReconError(ValueError):
    """Invalid reconstruction configuration or infeasible state."""


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegWeights:
    """Penalty weights: (alpha0, alpha1) for eta, (beta0, beta1) for theta,
    (beta2, nu) for lam."""

    alpha0: float
    alpha1: float
    beta0: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    nu: float = 1.0

    def __post_init__(self):
        vals = (self.alpha0, self.alpha1, self.beta0, self.beta1, self.beta2)
        if not all(0 <= v < np.inf for v in vals):
            raise ReconError("penalty weights must be finite and nonnegative")
        if not 0 < self.nu < np.inf:
            raise ReconError("nu must be finite and positive")


@dataclass(frozen=True)
class BarrierSchedule:
    """Finite decreasing sequence of interior-point parameters.

    A strictly decreasing positive sequence activates the barrier; the
    all-zero schedule is the documented inactive mode (plain Gauss-Newton
    stages with no positivity forcing beyond line-search feasibility).
    """

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim != 1 or len(xi) == 0:
            raise ReconError("schedule must be a nonempty 1-d sequence")
        if np.all(xi == 0):
            return
        if not (np.all(np.isfinite(xi) & (xi > 0)) and np.all(np.diff(xi) < 0)):
            raise ReconError("schedule must be finite, strictly decreasing and positive")

    @staticmethod
    def geometric(start: float, end: float, stages: int = 8) -> "BarrierSchedule":
        if not (start > end > 0):
            raise ReconError("need start > end > 0")
        return BarrierSchedule(xi=np.geomspace(start, end, stages))

    @staticmethod
    def inactive(stages: int = 1) -> "BarrierSchedule":
        return BarrierSchedule(xi=np.zeros(stages))


@dataclass
class GNSettings:
    max_iterations: int = 60      # global Gauss-Newton cap
    max_inner: int = 10           # iterations per barrier stage
    obj_tol: float = 1e-6
    step_tol: float = 1e-8

    def __post_init__(self):
        for name in ("max_iterations", "max_inner"):
            value = getattr(self, name)
            if not (_integer(value) and value >= 1):
                raise ReconError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("obj_tol", "step_tol"):
            value = getattr(self, name)
            if not (_finite(value) and value >= 0):
                raise ReconError(f"{name} must be finite and nonnegative, got {value!r}")


_ARMIJO = 1e-4                # sufficient-decrease fraction of the line search
_SHRINK = 0.5                 # backtracking factor
_MAX_BACKTRACKS = 30          # step halvings per line search
_DAMPING = 1e-12              # Levenberg shift as a fraction of trace
_DAMPING_RETRIES = 2          # x1e4 damping retries after a failed line search
_ETA_STEP_CAP = 1.0           # trust caps on the eta, theta and log-lam blocks
_THETA_STEP_CAP = np.pi / 4
_LOGLAM_STEP_CAP = 0.7
_ETA_FLOOR = np.finfo(float).tiny ** (1 / 3)  # least feasible eta: its cube is a normal float


ANISOTROPIC, ISOTROPIC = "uniformly-anisotropic", "isotropic"


@dataclass
class ReconState:
    """Final iterate plus the full optimization record; `params` is the
    canonical (eta, theta, lam) in both modes, with theta = 0 and lam = 1 in
    the isotropic mode, where eta is the conductivity gamma.  `stages` holds
    one {stage, xi, iterations, stop_reason} entry per barrier stage run.
    The stop reason is `obj_tol` or `step_tol` when the relative objective
    drop or the step fell below its tolerance, `max_inner` when the stage
    used its iterations, `max_iterations` when the run reached its global
    cap, and `line_search_failed` when no damping made the line search
    accept a step."""

    mode: str
    params: UniformAnisoParams
    history: list
    stages: list
    lambda_trace: list
    converged: bool
    final_objective: float
    final_misfit: float
    initial_misfit: float  # misfit at the starting point

    @property
    def gamma(self) -> Optional[np.ndarray]:
        """`params.eta` in the isotropic mode, else None."""
        return self.params.eta if self.mode == ISOTROPIC else None


# ---------------------------------------------------------------------------
# penalty functionals (double sums count each unordered pair twice)
# ---------------------------------------------------------------------------

def penalty_eta(eta: np.ndarray, pairs: np.ndarray, alpha0: float, alpha1: float) -> float:
    a, b = pairs[:, 0], pairs[:, 1]
    diff2 = np.sum((eta[a] - eta[b]) ** 2) if len(pairs) else 0.0
    return float(alpha0 * np.sum(eta ** 2) + 2.0 * alpha1 * diff2)


def penalty_eta_grad(eta: np.ndarray, pairs: np.ndarray, alpha0: float,
                     alpha1: float) -> np.ndarray:
    g = 2.0 * alpha0 * eta
    if len(pairs):
        a, b = pairs[:, 0], pairs[:, 1]
        d = eta[a] - eta[b]
        np.add.at(g, a, 4.0 * alpha1 * d)
        np.add.at(g, b, -4.0 * alpha1 * d)
    return g


def penalty_theta(theta: np.ndarray, pairs: np.ndarray, beta0: float, beta1: float) -> float:
    a, b = pairs[:, 0], pairs[:, 1]
    diff = np.sum(2.0 - 2.0 * np.cos(theta[a] - theta[b])) if len(pairs) else 0.0
    return float(beta0 * np.sum(theta ** 2) + 2.0 * beta1 * diff)


def penalty_theta_grad(theta: np.ndarray, pairs: np.ndarray, beta0: float,
                       beta1: float) -> np.ndarray:
    g = 2.0 * beta0 * theta
    if len(pairs):
        a, b = pairs[:, 0], pairs[:, 1]
        s = np.sin(theta[a] - theta[b])
        np.add.at(g, a, 4.0 * beta1 * s)
        np.add.at(g, b, -4.0 * beta1 * s)
    return g


def penalty_hess(pairs: np.ndarray, M: int, w0: float, w1: float) -> scipy.sparse.csr_matrix:
    """Hessian of `penalty_eta` on M pixels with weights (w0, w1) = (alpha0,
    alpha1); with (beta0, beta1), the small-angle PSD surrogate of the
    Hessian of `penalty_theta`.  The smoothness part is 4 w1 times the graph
    Laplacian of the unordered neighbor `pairs`."""
    a, b = pairs[:, 0], pairs[:, 1]
    ones = np.ones(len(a))
    entries = np.concatenate([ones, ones, -ones, -ones])
    rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
    laplacian = scipy.sparse.csr_matrix((entries, (rows, cols)), shape=(M, M))
    return 2.0 * w0 * scipy.sparse.identity(M, format="csr") + 4.0 * w1 * laplacian


def barrier(eta: np.ndarray, xi: float) -> float:
    """Interior-point term xi * sum(1/eta_i); caller must keep eta > 0."""
    if np.any(eta <= 0):
        raise ReconError("barrier is infeasible: eta has nonpositive entries")
    return float(xi * np.sum(1.0 / eta))


def barrier_grad(eta: np.ndarray, xi: float) -> np.ndarray:
    return -xi / eta ** 2


def barrier_hess_diag(eta: np.ndarray, xi: float) -> np.ndarray:
    return 2.0 * xi / eta ** 3


# ---------------------------------------------------------------------------
# forward map and adjoint Jacobian
# ---------------------------------------------------------------------------

class _Fold:
    """The measurements of a protocol grouped by their unordered (drive,
    adjoint) pair of drive patterns.

    A measurement's adjoint field is driven by its pair-difference row, and
    the row of pair m is pattern m, so measurement (k, l) has adjoint
    `retained_pairs[k, l]`.  Its Jacobian row is built from products of the
    drive and adjoint fields, which commute, so rows with the same unordered
    pair are bitwise equal (CEM reciprocity; Somersalo, Cheney and Isaacson
    1992); every row has one such twin.  `drive` and `adjoint` give the pair of each unique
    row, `twin` (N,) the unique row of each measurement and `root_weight`
    the square root of each unique row's multiplicity w, so
    J^T r = J_u^T (twin sums of r) and J^T J = (sqrt(w) J_u)^T (sqrt(w) J_u).
    """

    def __init__(self, protocol: fem.MeasurementProtocol):
        drive = np.repeat(np.arange(protocol.K), protocol.L)
        adjoint = protocol.retained_pairs.ravel()
        key = np.minimum(drive, adjoint) * protocol.K + np.maximum(drive, adjoint)
        _, first, self.twin, counts = np.unique(key, return_index=True, return_inverse=True,
                                                return_counts=True)
        self.drive, self.adjoint = drive[first], adjoint[first]
        self.root_weight = np.sqrt(counts)

    def residual_sums(self, r: np.ndarray) -> np.ndarray:
        """The per-measurement vector r summed over each unique row's twins."""
        return np.bincount(self.twin, r, minlength=len(self.drive))


def _solve_drives(params: UniformAnisoParams, protocol: fem.MeasurementProtocol,
                  mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout):
    """Nodal potentials (K, n) of every drive pattern and the stacked
    predicted measurements, from one factorization."""
    system = fem.assemble(mesh, gamma_hat(params, lattice), layout)
    u_nodal, U = fem.solve_many(system, protocol.patterns)
    return u_nodal, protocol.measure(U)


def _pixel_gradients(mesh: Mesh, lattice: PixelLattice) -> scipy.sparse.csr_matrix:
    """Sparse map from nodal potentials (n, K) to the element gradients of
    every pixel, weighted by sqrt(area) and padded to a common width w.

    Row 2wm + wc + j holds component c (x, then y) on slot j of pixel m,
    the pixel's j-th element in mesh order; w is the largest element count
    of any pixel, and the slots a pixel does not fill are empty rows.  On an
    element grad(phi_i) = (b_i, c_i) / (2 area), so with A_m the 2w rows of
    pixel m, (A_m^T T A_m)[d, a] = sum_e area_e grad(u_d)^T T grad(u_a) over
    the pixel's elements e for any 2 x 2 tensor T.
    """
    op = mesh.cem_operator
    e2p = lattice.element_to_pixel
    counts = np.bincount(e2p, minlength=lattice.n_active)
    w = int(counts.max())
    order = np.argsort(e2p, kind="stable")
    slot = np.empty(len(e2p), dtype=np.int64)
    slot[order] = np.arange(len(e2p)) - (np.cumsum(counts) - counts)[e2p[order]]
    rows = (2 * w * e2p + slot)[:, None, None] + w * np.arange(2)[:, None]
    rows, cols = np.broadcast_arrays(rows, op.triangles[:, None, :])
    vals = np.stack([op.b, op.c], axis=1) * (0.5 / np.sqrt(op.areas))[:, None, None]
    return scipy.sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                                   shape=(2 * w * lattice.n_active, mesh.n_nodes))


def _aniso_derivative_tensors(params: UniformAnisoParams, families: int = 3):
    """Per-pixel tensor derivatives wrt eta_i, theta_i and lam, each (M, 3)
    in the (g11, g12, g22) component order of `TensorField`; only the first
    `families` of the three are formed and returned."""
    eta, theta, lam = params.eta, params.theta, params.lam
    tensors = [np.stack(gamma_hat_entries(1.0, theta, lam), axis=1)]
    if families > 1:
        p, q = np.sqrt(lam), 1.0 / np.sqrt(lam)
        c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
        tensors.append(np.stack([eta * (q - p) * s2, eta * (q - p) * c2,
                                 -eta * (q - p) * s2], axis=1))
    if families > 2:
        c, s = np.cos(theta), np.sin(theta)
        dp, dq = 0.5 / np.sqrt(lam), -0.5 * lam ** -1.5
        tensors.append(np.stack([eta * (dp * c ** 2 + dq * s ** 2), eta * (dq - dp) * c * s,
                                 eta * (dp * s ** 2 + dq * c ** 2)], axis=1))
    return tensors


def forward_map(params: UniformAnisoParams, protocol: fem.MeasurementProtocol,
                mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout) -> np.ndarray:
    """Stacked predicted measurements U(eta, theta, lam)."""
    return _solve_drives(params, protocol, mesh, lattice, layout)[1]


class _Workspace:
    """The arrays of one problem's linearization, allocated once for its
    shapes and overwritten by every call, so that a warm GN iteration
    allocates no array of Jacobian size: the drive fields uT (n, K), their
    pixel gradients A (2wM, K) and its per-pixel transpose At (M, K, 2w),
    the tensor products TA, the per-pixel Gram (M, K, K), the Jacobian J
    (N, n_free) and the arrays of a `_StepSystem` over the penalty `bands`.
    J is F-ordered: each unknown's column is contiguous, so J^T r is a dot
    product per column and each band block's columns J_k are one
    contiguous (N, M) array."""

    def __init__(self, grad: scipy.sparse.csr_matrix, K: int, M: int, N: int, families: int,
                 bands=()):
        rows, n_nodes = grad.shape
        self.uT, self.A = np.empty((n_nodes, K)), np.empty((rows, K))
        self.At, self.TA = np.empty((M, K, rows // M)), np.empty((M, 2, rows // (2 * M) * K))
        self.gram = np.empty((M, K, K))
        self.J = np.empty((N, min(families, 2) * M + (families > 2)), order="F")
        self.step = _StepWork(N, bands)


class _StepWork:
    """The arrays a `_StepSystem` over N measurements and the band blocks
    of `bands` (LAPACK upper band storage, (kd + 1, M) each) writes: per
    block the band of its factor U_k, as the flat F-ordered storage plus
    one last entry that stays zero; its whitened Zt_k = J_k U_k^-1 as an
    F-ordered (N, M) array; and the N x N Gram Zt_k Zt_k^T, whose lower
    triangle alone is written, so its upper one stays zero.  Per distinct
    band shape, the `_Panels` that whiten through it; and the Woodbury
    matrix C (N, N), F-ordered, factored in place."""

    def __init__(self, N: int, bands):
        self.factor = [np.zeros(band.size + 1) for band in bands]
        self.Zt = [np.empty((N, band.shape[1]), order="F") for band in bands]
        self.gram = [np.zeros((N, N), order="F") for _ in bands]
        self.panels = {band.shape: _Panels(*band.shape) for band in bands}
        self.C = np.empty((N, N), order="F")


class _Panels:
    """The right-hand triangular solve X <- X U^-1 for an upper band factor
    U of order M and half-bandwidth kd, blocked into panels of
    max(2 kd, 16) columns so that it runs at BLAS level 3 (Dongarra, Du
    Croz, Duff and Hammarling, ACM TOMS 16, 1990).

    Panel [p0, p1) of X first subtracts X[:, p0 - kd:p0] G, where G holds
    the entries of U[p0 - kd:p0, p0:p0 + kd] (all of U above the panel
    that lies in the band), with one dgemm, then solves against its upper
    triangle T = U[p0:p1, p0:p1] with one dtrsm.  Every G and T is read
    from the flat storage of the band through one index planned here into
    one buffer; an entry outside the band reads the storage's last entry,
    which is zero."""

    def __init__(self, rows: int, M: int):
        kd, width = rows - 1, max(2 * (rows - 1), 16)

        def flat(i, j):
            """Flat F-order positions of U[i, j] in the band storage."""
            i, j = np.meshgrid(i, j, indexing="ij")
            inside = (i <= j) & (j - i <= kd)
            return np.where(inside, j * rows + kd + i - j, rows * M).ravel(order="F")

        starts, index, shapes = range(0, M, width), [], []
        for p0 in starts:
            panel = np.arange(p0, min(p0 + width, M))
            for i, j in ((np.arange(max(p0 - kd, 0), p0), panel[:kd]), (panel, panel)):
                index.append(flat(i, j))
                shapes.append((len(i), len(j)))
        self._index = np.concatenate(index)
        self._buffer = np.empty(len(self._index))
        parts = np.split(self._buffer, np.cumsum([len(part) for part in index[:-1]]))
        blocks = [part.reshape(shape, order="F") for part, shape in zip(parts, shapes)]
        self._panels = list(zip(starts, blocks[::2], blocks[1::2]))

    def solve(self, storage: np.ndarray, X: np.ndarray):
        """X <- X U^-1 in place, for an F-ordered (N, M) X and the factor U
        in `storage`, the flat band storage with its zero last entry."""
        # the index is in range; mode "raise" would buffer the output
        np.take(storage, self._index, out=self._buffer, mode="clip")
        for p0, G, T in self._panels:
            if G.size:
                scipy.linalg.blas.dgemm(-1.0, X[:, p0 - len(G):p0], G, 1.0,
                                        X[:, p0:p0 + G.shape[1]], overwrite_c=1)
            scipy.linalg.blas.dtrsm(1.0, T, X[:, p0:p0 + len(T)], side=1, overwrite_b=1)


def _unique_jacobian(params: UniformAnisoParams, u_nodal: np.ndarray, fold: _Fold,
                     grad: scipy.sparse.csr_matrix, families: int = 3,
                     work: Optional[_Workspace] = None) -> np.ndarray:
    """The reciprocal-unique rows of `jacobian` over the first `families`
    unknown families of (eta, theta, lam), from the drive fields `u_nodal`
    (K, n) at params and the map `grad` of `_pixel_gradients`; written into
    `work.J` (a fresh workspace by default), which is returned.

    With A_m the weighted gradients (2w, K) of the drive fields on pixel m
    and T_m the 2 x 2 derivative of pixel m's tensor along a family, the
    derivative of measurement (drive d, adjoint a) is -(A_m^T T_m A_m)[d, a]:
    one batched Gram over the pixels per family, read at the unique pairs.
    The lam family moves every pixel, so its Gram is summed over them.
    """
    K, M = len(u_nodal), params.M
    w = work or _Workspace(grad, K, M, len(fold.drive), families)
    # grad @ u_nodal.T, by the routine scipy's product calls, written into w.A
    np.copyto(w.uT, u_nodal.T)
    w.A.fill(0.0)
    _sparsetools.csr_matvecs(*grad.shape, K, grad.indptr, grad.indices, grad.data,
                             w.uT.reshape(-1), w.A.reshape(-1))
    A = w.A.reshape(M, 2, -1)  # per pixel: component, then (slot, drive)
    # a contiguous copy: the batched product is about 3x slower on the view
    np.copyto(w.At, A.reshape(M, -1, K).transpose(0, 2, 1))
    pairs = fold.drive * K + fold.adjoint
    for f, D in enumerate(_aniso_derivative_tensors(params, families)):
        np.matmul(-D[:, [0, 1, 1, 2]].reshape(M, 2, 2), A, out=w.TA)
        TA = w.TA.reshape(M, -1, K)
        if f < 2:  # eta or theta: one column per pixel
            np.matmul(w.At, TA, out=w.gram)
            # the pairs are in range; mode "raise" would buffer the output
            np.take(w.gram.reshape(M, K * K), pairs, axis=1, out=w.J[:, f * M:(f + 1) * M].T,
                    mode="clip")
        else:  # lam: one column
            w.J[:, -1] = (w.A.T @ TA.reshape(-1, K)).take(pairs)
    return w.J


def jacobian(params: UniformAnisoParams, protocol: fem.MeasurementProtocol,
             mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout):
    """Adjoint-state Jacobian of the forward map wrt (eta, theta, lam).

    Returns (U_pred, J) with J of shape (N, 2M + 1); columns are ordered
    eta_1..eta_M, theta_1..theta_M, lam.  Reciprocal twin rows are formed
    once and are bitwise equal.
    """
    u_nodal, U_pred = _solve_drives(params, protocol, mesh, lattice, layout)
    fold = _Fold(protocol)
    grad = _pixel_gradients(mesh, lattice)
    return U_pred, _unique_jacobian(params, u_nodal, fold, grad)[fold.twin]


def _isotropic_params(gamma: np.ndarray) -> UniformAnisoParams:
    gamma = np.asarray(gamma, dtype=float)
    return UniformAnisoParams(eta=gamma, theta=np.zeros_like(gamma), lam=1.0)


def forward_map_isotropic(gamma: np.ndarray, protocol: fem.MeasurementProtocol,
                          mesh: Mesh, lattice: PixelLattice,
                          layout: ElectrodeLayout) -> np.ndarray:
    """`forward_map` of the isotropic field gamma (theta = 0, lam = 1)."""
    return forward_map(_isotropic_params(gamma), protocol, mesh, lattice, layout)


def jacobian_isotropic(gamma: np.ndarray, protocol: fem.MeasurementProtocol,
                       mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout):
    """(U_pred, J): the eta columns of `jacobian` at theta = 0, lam = 1."""
    U_pred, J = jacobian(_isotropic_params(gamma), protocol, mesh, lattice, layout)
    return U_pred, J[:, :lattice.n_active]


# ---------------------------------------------------------------------------
# the reconstruction problem and its objective
# ---------------------------------------------------------------------------

class _Problem:
    """Unknowns x = (eta_1..eta_M, theta_1..theta_M, log lam) of one mode.

    Only the leading `n_free` entries of x move: all 2M + 1 in the
    uniformly anisotropic mode, eta alone in the isotropic mode, where
    theta = 0 and log lam = 0 stay frozen.  Gradients, Hessians and trust
    blocks cover the free entries only.

    The drive fields of the last solved iterate are kept, so each distinct
    iterate costs one factorization; `solves` counts them.
    """

    def __init__(self, mode, data: fem.DataVector, protocol: fem.MeasurementProtocol,
                 mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout,
                 weights: RegWeights):
        if data.N != protocol.N:
            raise ReconError(f"data has {data.N} measurements but the protocol "
                             f"expects {protocol.N}")
        if not data.J == protocol.J == layout.J:
            raise ReconError(f"electrode counts disagree: data J={data.J}, "
                             f"protocol J={protocol.J}, layout J={layout.J}")
        if not np.all(np.isfinite(data.values)):
            raise ReconError("data values contain non-finite entries")
        self.mode, self.data, self.weights = mode, data, weights
        self.model = (protocol, mesh, lattice, layout)
        self.pairs = lattice.neighbor_pairs()
        M = self.M = lattice.n_active
        blocks = [slice(0, M), slice(M, 2 * M), slice(2 * M, 2 * M + 1)]
        self.blocks = blocks if mode == ANISOTROPIC else blocks[:1]
        self.n_free = self.blocks[-1].stop
        band_weights = [(weights.alpha0, weights.alpha1), (weights.beta0, weights.beta1)]
        self._pen_bands = [_banded(penalty_hess(self.pairs, M, *w))
                           for w in band_weights[:len(self.blocks)]]
        # nu is never squared: nu ** 2 overflows for nu above about 1e154
        self._lam_curvature = 2.0 * weights.beta2 / weights.nu / weights.nu
        self.fold = _Fold(protocol)
        self.solves, self._last = 0, (None,)

    def initial(self, free=None) -> np.ndarray:
        """Unit isotropic conductivity, with the free entries set to `free`."""
        M = self.M
        x = np.concatenate([np.ones(M), np.zeros(M), [0.0]])
        if free is not None:
            free = np.asarray(free, dtype=float)
            if free.shape != (self.n_free,):
                raise ReconError(f"{self.mode} iterate needs {self.n_free} entries, "
                                 f"got shape {free.shape}")
            x[:self.n_free] = free
        return x

    def unpack(self, x) -> UniformAnisoParams:
        M = self.M
        return UniformAnisoParams(eta=x[:M], theta=x[M:2 * M], lam=float(np.exp(x[2 * M])))

    def feasible(self, x) -> bool:
        """eta >= `_ETA_FLOOR`: below it the barrier curvature's eta^3 (and
        further down the tensor determinant eta^2) is subnormal or zero."""
        return bool(np.all(x[:self.M] >= _ETA_FLOOR))

    def value(self, x, xi: float):
        """(objective, misfit, penalty, barrier) at a feasible x; the
        objective is the sum of the other three."""
        r = self.data.values - self._fields(x)[1]
        # a term that overflows is inf: the line search rejects such a trial
        # and `_run_gauss_newton` rejects such a stage start
        with np.errstate(over="ignore"):
            misfit, pen, bar = float(r @ r), self.penalty(x), barrier(x[:self.M], xi)
        return misfit + pen + bar, misfit, pen, bar

    def _fields(self, x):
        """(u_nodal, U_pred) at x, solved only if x is not the last solved iterate."""
        if not np.array_equal(self._last[0], x):
            self._last = (x.copy(), *_solve_drives(self.unpack(x), *self.model))
            self.solves += 1
        return self._last[1:]

    @cached_property
    def _grad(self) -> scipy.sparse.csr_matrix:
        """`_pixel_gradients` of the model, built at the first linearization."""
        return _pixel_gradients(*self.model[1:3])

    @cached_property
    def _work(self) -> _Workspace:
        """The workspace every linearization and step system reuses."""
        return _Workspace(self._grad, self.model[0].K, self.M, len(self.fold.drive),
                          len(self.blocks), self._pen_bands)

    def linearize(self, x, xi: float):
        """(g, Js) at x: the objective gradient over the free unknowns, and
        the reciprocal-unique Jacobian rows scaled by sqrt(multiplicity), so
        that 2 Js^T Js is the Gauss-Newton term 2 J^T J.  Js is the
        workspace's J, overwritten by the next call."""
        params = self.unpack(x)
        u_nodal, U_pred = self._fields(x)
        J = _unique_jacobian(params, u_nodal, self.fold, self._grad, len(self.blocks), self._work)
        if self.mode == ANISOTROPIC:
            J[:, -1] *= params.lam  # chain rule to the internal log-lam variable
        g = -2.0 * (J.T @ self.fold.residual_sums(self.data.values - U_pred)) + self.penalty_grad(x)
        g[:self.M] += barrier_grad(x[:self.M], xi)
        J *= self.fold.root_weight[:, None]
        return g, J

    def penalty(self, x) -> float:
        M, w = self.M, self.weights
        eta, theta, ll = x[:M], x[M:2 * M], x[2 * M]
        return (penalty_eta(eta, self.pairs, w.alpha0, w.alpha1)
                + penalty_theta(theta, self.pairs, w.beta0, w.beta1)
                + w.beta2 * (ll + (ll / w.nu) ** 2))

    def penalty_grad(self, x) -> np.ndarray:
        """The penalty gradient over the free unknowns."""
        M, w = self.M, self.weights
        grad = penalty_eta_grad(x[:M], self.pairs, w.alpha0, w.alpha1)
        if self.mode != ANISOTROPIC:
            return grad
        ll = x[2 * M]
        return np.concatenate([grad, penalty_theta_grad(x[M:2 * M], self.pairs, w.beta0, w.beta1),
                               [w.beta2 * (1.0 + 2.0 * (ll / w.nu) / w.nu)]])

    def step_system(self, x, xi: float, Jm) -> _StepSystem:
        """The GN step system at x: penalty bands plus the barrier curvature
        on the eta diagonal, the weighted Jacobian rows `Jm` of `linearize`,
        and in the anisotropic mode the lam curvature as a scalar border."""
        eta_band = self._pen_bands[0].copy()
        eta_band[-1] += barrier_hess_diag(x[:self.M], xi)
        border = self._lam_curvature if self.mode == ANISOTROPIC else None
        return _StepSystem([eta_band] + self._pen_bands[1:], Jm, border, self._work.step)


def objective(state: UniformAnisoParams, data: fem.DataVector,
              protocol: fem.MeasurementProtocol, mesh: Mesh, lattice: PixelLattice,
              layout: ElectrodeLayout, weights: RegWeights, xi: float) -> float:
    """Augmented objective at the anisotropic parameters ``state``: misfit +
    penalties + interior-point barrier.  At theta = 0 and lam = 1 it is the
    isotropic mode's objective, since the theta and lam penalties vanish."""
    problem = _Problem(ANISOTROPIC, data, protocol, mesh, lattice, layout, weights)
    free = np.concatenate([state.eta, state.theta, [np.log(state.lam)]])
    return problem.value(problem.initial(free), xi)[0]


# ---------------------------------------------------------------------------
# Gauss-Newton driver
# ---------------------------------------------------------------------------

def _banded(matrix: scipy.sparse.spmatrix) -> np.ndarray:
    """LAPACK upper band storage of the symmetric `matrix`: entry (i, j),
    i <= j, sits at [bw + i - j, j], so row -1 is the diagonal."""
    upper = scipy.sparse.triu(matrix, format="coo")
    bw = int(np.max(upper.col - upper.row, initial=0))
    band = np.zeros((bw + 1, matrix.shape[0]))
    band[bw + upper.row - upper.col, upper.col] = upper.data
    return band


class _StepSystem:
    """The GN step system H = R + 2 J^T J over the free unknowns, solved in
    data space without forming H.

    R is block diagonal: one M x M band per eta/theta block (LAPACK upper
    band storage) plus a per-block shift,
    and, in the anisotropic mode, the lam curvature `border` plus its shift.
    Each band block factors as R_k = U_k^T U_k (`pbtrf`) and whitens its
    Jacobian columns, Zt_k = J_k U_k^-1, in BLAS-3 panels (`_Panels`)
    straight from J's contiguous column block, so the band part
    B = R_z + 2 J_z^T J_z of H inverts through the N x N matrix
    C = I/2 + sum_k Zt_k Zt_k^T (Woodbury):
    B^-1 v = U^-1 (w - Zt^T C^-1 Zt w) with w = U^-T v.  A block is
    factored again only when its shift changes; `factorizations` counts
    the band factorizations made.  The lam column j is a scalar border
    rather than part of R, because its curvature is often only the tiny
    damping shift; its Schur complement is border + shift + j^T C^-1 j,
    which is positive whenever C is.
    """

    def __init__(self, bands, J, border=None, work: Optional[_StepWork] = None):
        self.bands, self.border = bands, border
        M = bands[0].shape[1]
        self._work = work or _StepWork(J.shape[0], bands)
        self._J = J
        self._blocks = [slice(k * M, (k + 1) * M) for k in range(len(bands))]
        self._j = J[:, -1] if border is not None else None
        n = J.shape[1]
        self.shape = (n, n)
        # ||J||_F^2 over a view of the contiguous J, by einsum: BLAS's dot
        # splits the sum over its threads, so its rounding hangs on their count
        flat = J.ravel(order="K")
        self.trace = (2.0 * float(np.einsum("i,i->", flat, flat))
                      + sum(float(b[-1].sum()) for b in bands) + (border or 0.0))
        # per band block: (shift, U, Zt, Zt Zt^T); the Gram holds only its
        # lower triangle, the one the lower Cholesky factor of C reads
        self._factors = [None] * len(bands)
        self.factorizations = 0

    def _factor(self, k: int, shift: float):
        cached = self._factors[k]
        if cached is None or cached[0] != shift:
            self._factors[k] = None  # its storage is overwritten below
            work, band = self._work, self.bands[k]
            storage = work.factor[k]
            # F-ordered and contiguous, so the factor overwrites it in place
            U = storage[:-1].reshape(band.shape, order="F")
            np.copyto(U, band)
            U[-1] += shift
            _, info = pbtrf(U, overwrite_ab=1)
            self.factorizations += 1
            if info != 0:
                raise ReconError(f"GN step system is not positive definite "
                                 f"(block {k}, leading minor {info})")
            Zt, gram = work.Zt[k], work.gram[k]
            np.copyto(Zt, self._J[:, self._blocks[k]])
            work.panels[band.shape].solve(storage, Zt)
            scipy.linalg.blas.dsyrk(1.0, Zt, lower=1, c=gram, overwrite_c=1)
            self._factors[k] = cached = (shift, U, Zt, gram)
        return cached[1:]

    def solve(self, g: np.ndarray, shifts) -> np.ndarray:
        """The step delta solving (H + block shifts) delta = -g, with one
        step of iterative refinement: when R is tiny next to J^T J, C is
        far worse conditioned than H and the Woodbury solve alone loses
        digits."""
        factors = [self._factor(k, shifts[k]) for k in range(len(self.bands))]
        C = self._work.C
        np.copyto(C, factors[0][2])
        for _, _, G in factors[1:]:
            C += G
        C[np.diag_indices(len(C))] += 0.5
        C = scipy.linalg.cho_factor(C, lower=True, overwrite_a=True)
        lam = None  # (C^-1 j, Schur complement) of the lam border
        if self._j is not None:
            Cj = scipy.linalg.cho_solve(C, self._j)
            schur = self.border + shifts[-1] + self._j @ Cj
            if not schur > 0:
                raise ReconError(f"GN step system is not positive definite "
                                 f"(lam Schur complement {schur:.3e})")
            lam = (Cj, schur)
        delta = self._inverse(factors, C, lam, -g)
        return delta + self._inverse(factors, C, lam, -g - self._product(shifts, delta))

    def _inverse(self, factors, C, lam, v: np.ndarray) -> np.ndarray:
        """x solving (H + block shifts) x = v through the Woodbury factors."""
        w = [_band_solve(U, v[b], "T") for b, (U, _, _) in zip(self._blocks, factors)]
        Ztw = sum(Zt @ wk for (_, Zt, _), wk in zip(factors, w))
        x = np.empty_like(v)
        if lam is not None:
            Cj, schur = lam
            x[-1] = (v[-1] - Cj @ Ztw) / schur
            Ztw = Ztw + x[-1] * self._j
        p = scipy.linalg.cho_solve(C, Ztw)
        for b, (U, Zt, _), wk in zip(self._blocks, factors, w):
            x[b] = _band_solve(U, wk - Zt.T @ p, "N")
        return x

    def _product(self, shifts, d: np.ndarray) -> np.ndarray:
        """(H + block shifts) d from the bands, the border and J, without H."""
        J, blocks = self._J, [d[b] for b in self._blocks]
        Jd = sum(J[:, b] @ dk for b, dk in zip(self._blocks, blocks))
        out = np.empty_like(d)
        if self._j is not None:
            Jd = Jd + self._j * d[-1]
            out[-1] = (self.border + shifts[-1]) * d[-1] + 2.0 * (self._j @ Jd)
        for k, (b, band, dk) in enumerate(zip(self._blocks, self.bands, blocks)):
            out[b] = (scipy.linalg.blas.dsbmv(len(band) - 1, 1.0, band, dk)
                      + shifts[k] * dk + 2.0 * (J[:, b].T @ Jd))
        return out


def _band_solve(U: np.ndarray, rhs: np.ndarray, trans: str) -> np.ndarray:
    """U^-1 rhs (trans "N") or U^-T rhs (trans "T") for an upper band factor U."""
    x, _info = scipy.linalg.lapack.dtbtrs(U, rhs.reshape(len(rhs), -1), trans=trans)
    return x.reshape(rhs.shape)


def _trust_capped_step(system: _StepSystem, g, block_caps, shifts):
    """Newton step with per-block Levenberg shifts, each escalation scaling
    a block that breaks its trust cap by max(10, its overshoot), until each
    block respects its cap; returns (delta, escalations, the shifts that
    delta solves with).

    Damping a block inflates its diagonal, which keeps the system SPD, so
    the returned step is always a descent direction; near a minimizer the
    raw step is small, no cap binds, and plain Gauss-Newton speed returns.
    Raises ReconError when a shifted system is not positive definite or the
    caps still bind after 40 escalations.
    """
    shifts = shifts.copy()
    for escalations in range(40):
        delta = system.solve(g, shifts)
        binding = False
        for k, (sl, cap) in enumerate(block_caps):
            peak = np.abs(delta[sl]).max()
            if peak > cap:
                shifts[k] *= max(10.0, peak / cap)
                binding = True
        if not binding:
            return delta, escalations, shifts
    raise ReconError("GN step still breaks its trust caps after 40 damping escalations")


def _run_gauss_newton(problem: _Problem, schedule: BarrierSchedule,
                      settings: GNSettings, x0=None) -> ReconState:
    """Barrier-staged damped GN over the free unknowns; `x0` holds their
    starting values (default: unit isotropic conductivity).  Each history
    entry's `solves` counts the factorizations since the previous entry
    (the first includes the starting point's) and `step_factors` the band
    block factorizations of its step system, escalations and line-search
    retries included; `grad_norm` is the norm of
    the objective gradient g at the iterate the step left, and
    `predicted_decrease` and `actual_decrease` are the objective decrease of
    the accepted step t delta under the GN model and in fact.  Each stage
    entry records why the stage stopped and is also logged at INFO, the
    entry itself as the record's args.  Raises ReconError when the misfit,
    penalty or barrier at a stage start is not finite."""
    x = problem.initial(x0)
    if not problem.feasible(x):
        raise ReconError("initial iterate is infeasible")
    n = problem.n_free
    caps = list(zip(problem.blocks, (_ETA_STEP_CAP, _THETA_STEP_CAP, _LOGLAM_STEP_CAP)))
    history, stages = [], []
    trace = [float(np.exp(x[-1]))]
    solves = 0

    for stage, xi in enumerate(schedule.xi):
        xi = float(xi)
        obj, misfit, pen, bar = problem.value(x, xi)
        for name, term in (("misfit", misfit), ("penalty", pen), ("barrier", bar)):
            if not np.isfinite(term):
                raise ReconError(f"{name} is not finite ({term}) at the start of barrier "
                                 f"stage {stage} (xi={xi:.3g})")
        if stage == 0:
            initial_misfit = misfit
        first, stop_reason = len(history), None
        for _ in range(min(settings.max_inner, settings.max_iterations - first)):
            g, Jm = problem.linearize(x, xi)
            system = problem.step_system(x, xi, Jm)

            backtracks = escalations = 0
            shifts = np.full(len(problem.blocks), _DAMPING * system.trace)
            for _ in range(_DAMPING_RETRIES + 1):
                delta, cap_escalations, shifts = _trust_capped_step(system, g, caps, shifts)
                escalations += cap_escalations
                slope = float(g @ delta)
                t = 1.0
                for _ in range(_MAX_BACKTRACKS + 1):
                    xt = x.copy()
                    xt[:n] += t * delta
                    if problem.feasible(xt):
                        obj_t, misfit_t, pen_t, bar_t = problem.value(xt, xi)
                        if obj_t <= obj + _ARMIJO * t * slope:
                            break
                    backtracks += 1
                    t *= _SHRINK
                else:  # rejected: re-solve with more damping than the step had
                    escalations += 1
                    shifts = 1e4 * shifts
                    continue
                break
            else:
                stop_reason = "line_search_failed"
                break

            step_norm = float(np.linalg.norm(t * delta))
            # (H + S) delta = -g with S the block shifts, so delta^T H delta
            # = -g.delta - sum_k s_k |delta_k|^2 and the GN model predicts
            # the decrease -t g.delta - t^2/2 delta^T H delta
            curvature = -slope - sum(s_k * float(delta[b] @ delta[b])
                                     for s_k, b in zip(shifts, problem.blocks))
            x = xt
            lam = float(np.exp(x[-1]))
            history.append({
                "iteration": len(history) + 1, "stage": stage, "xi": xi,
                "objective": obj_t, "misfit": misfit_t,
                "penalty": pen_t, "barrier": bar_t,
                "lambda": lam, "step": t,
                "backtracks": backtracks, "escalations": escalations,
                "solves": problem.solves - solves,
                "step_factors": system.factorizations,
                "grad_norm": float(np.linalg.norm(g)),
                "predicted_decrease": -t * slope - 0.5 * t * t * curvature,
                "actual_decrease": obj - obj_t,
            })
            solves = problem.solves
            trace.append(lam)
            rel_drop = (obj - obj_t) / max(abs(obj), 1e-300)
            obj, misfit = obj_t, misfit_t
            if rel_drop < settings.obj_tol:
                stop_reason = "obj_tol"
                break
            if step_norm < settings.step_tol:
                stop_reason = "step_tol"
                break
        if stop_reason is None:  # a budget ran out; the global one also ends the run
            stop_reason = ("max_iterations" if len(history) >= settings.max_iterations
                           else "max_inner")
        stages.append({"stage": stage, "xi": xi, "iterations": len(history) - first,
                       "stop_reason": stop_reason})
        _log.info("barrier stage %(stage)d (xi=%(xi).3g): %(iterations)d iterations, "
                  "stopped by %(stop_reason)s", stages[-1])
        if stop_reason == "line_search_failed" or len(history) >= settings.max_iterations:
            break

    # converged: no line-search failure, which could only end the last stage
    return ReconState(problem.mode, canonicalize(problem.unpack(x)), history, stages, trace,
                      stop_reason != "line_search_failed", obj, misfit, initial_misfit)


def gauss_newton_reconstruct(data: fem.DataVector, protocol: fem.MeasurementProtocol,
                             mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout,
                             weights: RegWeights, schedule: BarrierSchedule,
                             settings: GNSettings = None, x0=None) -> ReconState:
    """Reconstruct (eta, theta, lam) starting from isotropic unit conductivity.

    ``x0``, if given, is the starting (eta, theta, log lam) vector."""
    problem = _Problem(ANISOTROPIC, data, protocol, mesh, lattice, layout, weights)
    return _run_gauss_newton(problem, schedule, settings or GNSettings(), x0)


def isotropic_reconstruct(data: fem.DataVector, protocol: fem.MeasurementProtocol,
                          mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout,
                          weights: RegWeights, schedule: BarrierSchedule,
                          settings: GNSettings = None, x0=None) -> ReconState:
    """Baseline reconstruction of an isotropic pixel conductivity vector.

    This is the anisotropic problem with theta = 0 and lam = 1 frozen, so
    only eta (= gamma) moves and each GN step is an M x M solve; the result's
    ``params`` keep theta = 0 and lam = 1, and ``state.gamma`` is their eta.
    ``x0``, if given, is the starting gamma.
    """
    problem = _Problem(ISOTROPIC, data, protocol, mesh, lattice, layout, weights)
    return _run_gauss_newton(problem, schedule, settings or GNSettings(), x0)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def recon_state_to_csv(state: ReconState) -> str:
    """Per-pixel eta and theta under a lambda header; gamma alone if isotropic."""
    p = state.params
    if state.mode == ANISOTROPIC:
        header, columns = f" lambda={p.lam:.17g}", {"eta": p.eta, "theta": p.theta}
    else:
        header, columns = "", {"gamma": p.eta}
    buf = io.StringIO()
    buf.write(f"# mode={state.mode}{header}\npixel,{','.join(columns)}\n")
    for i, row in enumerate(zip(*columns.values())):
        buf.write(f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()


def run_log_to_json(state: ReconState) -> str:
    return json.dumps({
        "mode": state.mode,
        "converged": state.converged,
        "final_objective": state.final_objective,
        "final_misfit": state.final_misfit,
        "lambda_trace": list(state.lambda_trace),
        "stages": state.stages,
        "iterations": state.history,
    }, indent=1)
