"""Regularized reconstruction of conductivity from electrode data.

Minimizes  ||V - U(params)||^2 + penalties + barrier  by damped
Gauss-Newton with Armijo backtracking, sweeping a decreasing interior-point
schedule that keeps eta strictly positive.  The anisotropy scale lam is
optimized in log parameterization so no barrier is needed for it; results
are reported with the canonical lam >= 1.

There is one reconstruction problem, over the unknowns (eta, theta, log lam).
The isotropic baseline is that problem with theta = 0 and lam = 1 frozen:
the tensor is then eta * I, so eta is the isotropic conductivity gamma and
only the M entries of eta move.  Both modes predict through `forward_map`
and `jacobian` and evaluate the objective through one path.

The GN step is solved in data space (`_StepSystem`): the penalty Hessians
stay sparse and are stored once per problem as LAPACK bands under a reverse
Cuthill-McKee order of the pixel lattice; with the barrier curvature and a
per-block shift they factor by banded Cholesky, and the Woodbury identity
leaves one N x N Cholesky factorization over the measurements.  The lam
column enters as a scalar border.  No dense (2M+1) x (2M+1) matrix is formed.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from anisoeit.geometry import ElectrodeLayout, Mesh, PixelLattice
from anisoeit.tensors import UniformAnisoParams, canonicalize, gamma_hat
from anisoeit import fem


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
        if any(v < 0 for v in vals):
            raise ReconError("penalty weights must be nonnegative")
        if self.beta2 > 0 and not self.nu > 0:
            raise ReconError("nu must be positive when beta2 > 0")


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
        if np.any(xi <= 0) or np.any(np.diff(xi) >= 0):
            raise ReconError("schedule must be strictly decreasing and positive")

    @staticmethod
    def geometric(start: float, end: float, stages: int = 8) -> "BarrierSchedule":
        if not (start > end > 0):
            raise ReconError("need start > end > 0")
        return BarrierSchedule(xi=np.geomspace(start, end, stages))

    @staticmethod
    def inactive(stages: int = 1) -> "BarrierSchedule":
        return BarrierSchedule(xi=np.zeros(stages))


@dataclass(frozen=True)
class NeighborGraph:
    """4-neighborhood of active lattice pixels; pairs are unordered."""

    M: int
    pairs: np.ndarray  # (P, 2)

    @staticmethod
    def from_lattice(lattice: PixelLattice) -> "NeighborGraph":
        return NeighborGraph(M=lattice.n_active, pairs=lattice.neighbor_pairs())

    def laplacian(self) -> scipy.sparse.csr_matrix:
        a, b = self.pairs[:, 0], self.pairs[:, 1]
        ones = np.ones(len(a))
        entries = np.concatenate([ones, ones, -ones, -ones])
        rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
        return scipy.sparse.csr_matrix((entries, (rows, cols)), shape=(self.M, self.M))


@dataclass
class GNSettings:
    max_iterations: int = 60      # global Gauss-Newton cap
    max_inner: int = 10           # iterations per barrier stage
    armijo: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 30
    obj_tol: float = 1e-6
    step_tol: float = 1e-8
    damping: float = 1e-12        # Levenberg shift as a fraction of trace
    eta_step_cap: float = 1.0     # per-block trust caps on the GN step
    theta_step_cap: float = np.pi / 4
    loglam_step_cap: float = 0.7
    damping_escalations: int = 2  # x1e4 damping retries after a failed search


@dataclass
class ReconState:
    """Final iterate plus the full optimization record."""

    mode: str
    params: Optional[UniformAnisoParams]  # anisotropic mode
    gamma: Optional[np.ndarray]           # isotropic mode
    history: list
    lambda_trace: list
    converged: bool
    final_objective: float
    final_misfit: float


# ---------------------------------------------------------------------------
# penalty functionals (double sums count each unordered pair twice)
# ---------------------------------------------------------------------------

def penalty_eta(eta: np.ndarray, graph: NeighborGraph, alpha0: float, alpha1: float) -> float:
    a, b = graph.pairs[:, 0], graph.pairs[:, 1]
    diff2 = np.sum((eta[a] - eta[b]) ** 2) if len(graph.pairs) else 0.0
    return float(alpha0 * np.sum(eta ** 2) + 2.0 * alpha1 * diff2)


def penalty_eta_grad(eta: np.ndarray, graph: NeighborGraph, alpha0: float, alpha1: float) -> np.ndarray:
    g = 2.0 * alpha0 * eta
    if len(graph.pairs):
        a, b = graph.pairs[:, 0], graph.pairs[:, 1]
        d = eta[a] - eta[b]
        np.add.at(g, a, 4.0 * alpha1 * d)
        np.add.at(g, b, -4.0 * alpha1 * d)
    return g


def penalty_eta_hess(graph: NeighborGraph, alpha0: float,
                     alpha1: float) -> scipy.sparse.csr_matrix:
    identity = scipy.sparse.identity(graph.M, format="csr")
    return 2.0 * alpha0 * identity + 4.0 * alpha1 * graph.laplacian()


def penalty_theta(theta: np.ndarray, graph: NeighborGraph, beta0: float, beta1: float) -> float:
    a, b = graph.pairs[:, 0], graph.pairs[:, 1]
    diff = np.sum(2.0 - 2.0 * np.cos(theta[a] - theta[b])) if len(graph.pairs) else 0.0
    return float(beta0 * np.sum(theta ** 2) + 2.0 * beta1 * diff)


def penalty_theta_grad(theta: np.ndarray, graph: NeighborGraph, beta0: float, beta1: float) -> np.ndarray:
    g = 2.0 * beta0 * theta
    if len(graph.pairs):
        a, b = graph.pairs[:, 0], graph.pairs[:, 1]
        s = np.sin(theta[a] - theta[b])
        np.add.at(g, a, 4.0 * beta1 * s)
        np.add.at(g, b, -4.0 * beta1 * s)
    return g


def penalty_theta_hess(graph: NeighborGraph, beta0: float,
                       beta1: float) -> scipy.sparse.csr_matrix:
    # small-angle PSD surrogate of the circular difference term
    identity = scipy.sparse.identity(graph.M, format="csr")
    return 2.0 * beta0 * identity + 4.0 * beta1 * graph.laplacian()


def penalty_lambda(lam: float, beta2: float, nu: float = 1.0) -> float:
    if not lam > 0:
        raise ReconError("lam must be positive")
    ln = np.log(lam)
    return float(beta2 * (ln + ln ** 2 / nu ** 2))


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

def _adjoint_drives(protocol: fem.MeasurementProtocol) -> np.ndarray:
    """Index of the drive pattern equal to each measurement's pair-difference row.

    The adjoint field of a measurement is the potential driven by its
    pair-difference row as a current pattern, so when every row is one of
    the drive patterns the drive solutions are the adjoint fields too.
    """
    rows = protocol.projectors.reshape(protocol.N, protocol.J)
    match = np.all(rows[:, None, :] == protocol.patterns[None, :, :], axis=2)
    missing = np.flatnonzero(~match.any(axis=1))
    if len(missing):
        k, row = divmod(int(missing[0]), protocol.L)
        raise fem.ModelError(
            f"measurement {row} of pattern {k} (pair {protocol.retained_pairs[k, row]}) "
            "is not one of the drive patterns, so its adjoint field is not a drive solution")
    return match.argmax(axis=1)


def _element_products(system: fem.CEMSystem, protocol: fem.MeasurementProtocol,
                      pixel_sum: scipy.sparse.spmatrix):
    """Forward data and summed per-element adjoint products of every measurement.

    Returns (U_pred, S) with S = pixel_sum @ P of shape (rows, 3, N). For the
    drive field u and the adjoint field w of measurement n, P[e, :, n] holds
    (d1u d1w, d1u d2w + d2u d1w, d2u d2w) on element e, so the (negative)
    derivative of measurement n along a tensor perturbation (dg11, dg12,
    dg22) on element e is area_e * P[e, :, n] . dg.  Each (T, N) component
    of P is summed as soon as it is formed.
    """
    drive = np.repeat(np.arange(protocol.K), protocol.L)
    adjoint = _adjoint_drives(protocol)
    u_nodal, U = fem.solve_many(system, protocol.patterns)
    U_pred = np.einsum("klj,kj->kl", protocol.projectors, U).ravel()
    gx, gy = system.operator.gradients(u_nodal.T)
    S = np.empty((pixel_sum.shape[0], 3, protocol.N))
    S[:, 0] = pixel_sum @ (gx[:, drive] * gx[:, adjoint])
    S[:, 1] = pixel_sum @ (gx[:, drive] * gy[:, adjoint] + gy[:, drive] * gx[:, adjoint])
    S[:, 2] = pixel_sum @ (gy[:, drive] * gy[:, adjoint])
    return U_pred, S


def _pixel_sum(lattice: PixelLattice, areas: np.ndarray) -> scipy.sparse.csr_matrix:
    """Sparse M x T matrix summing area-weighted element values to pixels."""
    T = len(areas)
    return scipy.sparse.csr_matrix((areas, (lattice.element_to_pixel, np.arange(T))),
                                   shape=(lattice.n_active, T))


def _aniso_derivative_tensors(params: UniformAnisoParams):
    """Per-pixel tensor derivatives wrt eta_i, theta_i and lam, each (M, 3)
    in the (g11, g12, g22) component order of `TensorField`."""
    eta, theta, lam = params.eta, params.theta, params.lam
    p, q = np.sqrt(lam), 1.0 / np.sqrt(lam)
    c, s = np.cos(theta), np.sin(theta)
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    D_eta = np.stack([p * c ** 2 + q * s ** 2, (q - p) * c * s, p * s ** 2 + q * c ** 2], axis=1)
    D_theta = np.stack([eta * (q - p) * s2, eta * (q - p) * c2, -eta * (q - p) * s2], axis=1)
    dp, dq = 0.5 / np.sqrt(lam), -0.5 * lam ** -1.5
    D_lam = np.stack([eta * (dp * c ** 2 + dq * s ** 2), eta * (dq - dp) * c * s,
                      eta * (dp * s ** 2 + dq * c ** 2)], axis=1)
    return D_eta, D_theta, D_lam


def forward_map(params: UniformAnisoParams, protocol: fem.MeasurementProtocol,
                mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout) -> np.ndarray:
    """Stacked predicted measurements U(eta, theta, lam)."""
    return fem.predict(mesh, gamma_hat(params, lattice), layout, protocol)


def jacobian(params: UniformAnisoParams, protocol: fem.MeasurementProtocol,
             mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout):
    """Adjoint-state Jacobian of the forward map wrt (eta, theta, lam).

    Returns (U_pred, J) with J of shape (N, 2M + 1); columns are ordered
    eta_1..eta_M, theta_1..theta_M, lam.
    """
    system = fem.assemble(mesh, gamma_hat(params, lattice), layout)
    U_pred, S = _element_products(system, protocol, _pixel_sum(lattice, system.operator.areas))
    D_eta, D_theta, D_lam = _aniso_derivative_tensors(params)
    J_eta = -np.einsum("icn,ic->ni", S, D_eta)
    J_theta = -np.einsum("icn,ic->ni", S, D_theta)
    J_lam = -np.einsum("icn,ic->n", S, D_lam)
    return U_pred, np.hstack([J_eta, J_theta, J_lam[:, None]])


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

ANISOTROPIC, ISOTROPIC = "uniformly-anisotropic", "isotropic"


class _Problem:
    """Unknowns x = (eta_1..eta_M, theta_1..theta_M, log lam) of one mode.

    Only the leading `n_free` entries of x move: all 2M + 1 in the
    uniformly anisotropic mode, eta alone in the isotropic mode, where
    theta = 0 and log lam = 0 stay frozen.  Gradients, Hessians and trust
    blocks cover the free entries only.
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
        self.graph = NeighborGraph.from_lattice(lattice)
        M = self.M = lattice.n_active
        blocks = [slice(0, M), slice(M, 2 * M), slice(2 * M, 2 * M + 1)]
        self.blocks = blocks if mode == ANISOTROPIC else blocks[:1]
        self.n_free = self.blocks[-1].stop
        self.order = scipy.sparse.csgraph.reverse_cuthill_mckee(
            self.graph.laplacian(), symmetric_mode=True)
        pen_hess = [penalty_eta_hess(self.graph, weights.alpha0, weights.alpha1),
                    penalty_theta_hess(self.graph, weights.beta0, weights.beta1)]
        self._pen_bands = [_banded(h, self.order) for h in pen_hess[:len(self.blocks)]]
        self._lam_curvature = 2.0 * weights.beta2 / weights.nu ** 2

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
        return bool(np.all(x[:self.M] > 0))

    def value(self, x, xi: float):
        """(objective, misfit) at a feasible x."""
        r = self.data.values - forward_map(self.unpack(x), *self.model)
        misfit = float(r @ r)
        return misfit + self.penalty(x)[0] + barrier(x[:self.M], xi), misfit

    def predict_and_jacobian(self, x):
        params = self.unpack(x)
        U, J = jacobian(params, *self.model)
        J[:, -1] *= params.lam  # chain rule to the internal log-lam variable
        return U, J[:, :self.n_free]

    def penalty(self, x):
        M, w = self.M, self.weights
        eta, theta, ll = x[:M], x[M:2 * M], x[2 * M]
        val = (penalty_eta(eta, self.graph, w.alpha0, w.alpha1)
               + penalty_theta(theta, self.graph, w.beta0, w.beta1)
               + w.beta2 * (ll + ll ** 2 / w.nu ** 2))
        grad = np.concatenate([
            penalty_eta_grad(eta, self.graph, w.alpha0, w.alpha1),
            penalty_theta_grad(theta, self.graph, w.beta0, w.beta1),
            [w.beta2 * (1.0 + 2.0 * ll / w.nu ** 2)]])
        return val, grad[:self.n_free]

    def step_system(self, x, xi: float, Jm) -> _StepSystem:
        """The GN step system at x: penalty bands plus the barrier curvature
        on the eta diagonal, the free Jacobian columns `Jm`, and in the
        anisotropic mode the lam curvature as a scalar border."""
        eta_band = self._pen_bands[0].copy()
        eta_band[-1] += barrier_hess_diag(x[:self.M], xi)[self.order]
        border = self._lam_curvature if self.mode == ANISOTROPIC else None
        return _StepSystem([eta_band] + self._pen_bands[1:], self.order, Jm, border)

    def lam_of(self, x) -> float:
        return float(np.exp(x[2 * self.M]))

    def block_caps(self, settings: GNSettings):
        caps = (settings.eta_step_cap, settings.theta_step_cap, settings.loglam_step_cap)
        return list(zip(self.blocks, caps))

    def to_state(self, x, history, trace, converged, obj, misfit) -> ReconState:
        if self.mode == ANISOTROPIC:
            params, gamma = canonicalize(self.unpack(x)), None
        else:
            params, gamma = None, x[:self.M].copy()
        return ReconState(mode=self.mode, params=params, gamma=gamma, history=history,
                          lambda_trace=trace, converged=converged,
                          final_objective=obj, final_misfit=misfit)


def objective(state, data: fem.DataVector, protocol: fem.MeasurementProtocol,
              mesh: Mesh, lattice: PixelLattice, layout: ElectrodeLayout,
              weights: RegWeights, xi: float) -> float:
    """Augmented objective: misfit + penalties + interior-point barrier.

    ``state`` is a UniformAnisoParams (anisotropic model) or a positive
    vector of pixel conductivities (isotropic model).
    """
    if isinstance(state, UniformAnisoParams):
        mode, free = ANISOTROPIC, np.concatenate([state.eta, state.theta, [np.log(state.lam)]])
    else:
        mode, free = ISOTROPIC, state
    problem = _Problem(mode, data, protocol, mesh, lattice, layout, weights)
    x = problem.initial(free)
    if not problem.feasible(x):
        raise ReconError("infeasible state")
    return problem.value(x, xi)[0]


# ---------------------------------------------------------------------------
# Gauss-Newton driver
# ---------------------------------------------------------------------------

def _banded(matrix: scipy.sparse.spmatrix, order: np.ndarray) -> np.ndarray:
    """LAPACK upper band storage of the symmetric `matrix` permuted to `order`:
    entry (i, j), i <= j, sits at [bw + i - j, j], so row -1 is the diagonal."""
    upper = scipy.sparse.triu(matrix.tocsr()[order][:, order], format="coo")
    bw = int(np.max(upper.col - upper.row, initial=0))
    band = np.zeros((bw + 1, matrix.shape[0]))
    band[bw + upper.row - upper.col, upper.col] = upper.data
    return band


class _StepSystem:
    """The GN step system H = R + 2 J^T J over the free unknowns, solved in
    data space without forming H.

    R is block diagonal: one M x M band per eta/theta block (LAPACK upper
    band storage under the lattice order `order`) plus a per-block shift,
    and, in the anisotropic mode, the lam curvature `border` plus its shift.
    Each band block factors as R_k = U_k^T U_k and whitens its Jacobian
    columns, Z_k = U_k^-T J_k^T, so the band part B = R_z + 2 J_z^T J_z of H
    inverts through the N x N matrix C = I/2 + sum_k Z_k^T Z_k (Woodbury):
    B^-1 v = U^-1 (w - Z C^-1 Z^T w) with w = U^-T v.  The lam column j is a
    scalar border rather than part of R, because its curvature is often
    only the tiny damping shift; its Schur complement is
    border + shift + j^T C^-1 j, which is positive whenever C is.
    """

    def __init__(self, bands, order, J, border=None):
        self.bands, self.order, self.border = bands, order, border
        M = len(order)
        self._Jt = [J[:, k * M + order].T for k in range(len(bands))]  # J_k^T in band order
        self._j = J[:, -1] if border is not None else None
        n = J.shape[1]
        self.shape = (n, n)
        self.trace = (2.0 * float(np.sum(J * J)) + sum(float(b[-1].sum()) for b in bands)
                      + (border or 0.0))
        self._factors = [None] * len(bands)  # per band block: (shift, U, Z, Z^T Z)

    def _factor(self, k: int, shift: float):
        cached = self._factors[k]
        if cached is None or cached[0] != shift:
            band = self.bands[k].copy()
            band[-1] += shift
            U, info = scipy.linalg.lapack.dpbtrf(band)
            if info != 0:
                raise ReconError(f"GN step system is not positive definite "
                                 f"(block {k}, leading minor {info})")
            Z = _band_solve(U, self._Jt[k], "T")
            self._factors[k] = cached = (shift, U, Z, Z.T @ Z)
        return cached[1:]

    def solve(self, g: np.ndarray, shifts) -> np.ndarray:
        """The step delta solving (H + block shifts) delta = -g, with one
        step of iterative refinement: when R is tiny next to J^T J, C is
        far worse conditioned than H and the Woodbury solve alone loses
        digits."""
        factors = [self._factor(k, shifts[k]) for k in range(len(self.bands))]
        C = 0.5 * np.eye(self._Jt[0].shape[1]) + sum(G for _, _, G in factors)
        C = scipy.linalg.cho_factor(C, lower=True)
        delta = self._inverse(factors, C, shifts, -g)
        return delta + self._inverse(factors, C, shifts, -g - self._product(shifts, delta))

    def _inverse(self, factors, C, shifts, v: np.ndarray) -> np.ndarray:
        """x solving (H + block shifts) x = v through the Woodbury factors."""
        M, order = len(self.order), self.order
        w = [_band_solve(U, v[k * M + order], "T") for k, (U, _, _) in enumerate(factors)]
        Ztw = sum(Z.T @ wk for (_, Z, _), wk in zip(factors, w))
        x = np.empty_like(v)
        if self._j is not None:
            Cj = scipy.linalg.cho_solve(C, self._j)
            schur = self.border + shifts[-1] + self._j @ Cj
            if not schur > 0:
                raise ReconError(f"GN step system is not positive definite "
                                 f"(lam Schur complement {schur:.3e})")
            x[-1] = (v[-1] - Cj @ Ztw) / schur
            Ztw = Ztw + x[-1] * self._j
        p = scipy.linalg.cho_solve(C, Ztw)
        for k, ((U, Z, _), wk) in enumerate(zip(factors, w)):
            x[k * M + order] = _band_solve(U, wk - Z @ p, "N")
        return x

    def _product(self, shifts, d: np.ndarray) -> np.ndarray:
        """(H + block shifts) d from the bands, the border and J, without H."""
        M, order = len(self.order), self.order
        blocks = [d[k * M + order] for k in range(len(self.bands))]
        Jd = sum(Jt.T @ dk for Jt, dk in zip(self._Jt, blocks))
        out = np.empty_like(d)
        if self._j is not None:
            Jd = Jd + self._j * d[-1]
            out[-1] = (self.border + shifts[-1]) * d[-1] + 2.0 * (self._j @ Jd)
        for k, (band, Jt, dk) in enumerate(zip(self.bands, self._Jt, blocks)):
            out[k * M + order] = (scipy.linalg.blas.dsbmv(len(band) - 1, 1.0, band, dk)
                                  + shifts[k] * dk + 2.0 * (Jt @ Jd))
        return out


def _band_solve(U: np.ndarray, rhs: np.ndarray, trans: str) -> np.ndarray:
    """U^-1 rhs (trans "N") or U^-T rhs (trans "T") for an upper band factor U."""
    x, _info = scipy.linalg.lapack.dtbtrs(U, rhs.reshape(len(rhs), -1), trans=trans)
    return x.reshape(rhs.shape)


def _trust_capped_step(system: _StepSystem, g, block_caps, shifts):
    """Newton step with per-block Levenberg shifts escalated until each
    block respects its trust cap; returns (delta, escalations).

    Damping a block inflates its diagonal, which keeps the system SPD, so
    the returned step is always a descent direction; near a minimizer the
    raw step is small, no cap binds, and plain Gauss-Newton speed returns.
    Raises ReconError when a shifted system is not positive definite or the
    caps still bind after 40 escalations.
    """
    shifts = shifts.copy()
    for escalations in range(40):
        delta = system.solve(g, shifts)
        violated = False
        for k, (sl, cap) in enumerate(block_caps):
            if len(delta[sl]) and np.abs(delta[sl]).max() > cap:
                scale = np.abs(delta[sl]).max() / cap
                shifts[k] = max(shifts[k] * 10.0, shifts[k] * scale,
                                1e-14 * system.trace)
                violated = True
        if not violated:
            return delta, escalations
    raise ReconError("GN step still breaks its trust caps after 40 damping escalations")


def _run_gauss_newton(problem: _Problem, schedule: BarrierSchedule,
                      settings: GNSettings, x0=None) -> ReconState:
    """Barrier-staged damped GN over the free unknowns; `x0` holds their
    starting values (default: unit isotropic conductivity)."""
    x = problem.initial(x0)
    if not problem.feasible(x):
        raise ReconError("initial iterate is infeasible")
    M, n, y = problem.M, problem.n_free, problem.data.values
    history = []
    trace = [problem.lam_of(x)]
    total = 0
    converged = True

    for stage, xi in enumerate(schedule.xi):
        xi = float(xi)
        obj, misfit = problem.value(x, xi)
        for _ in range(settings.max_inner):
            if total >= settings.max_iterations:
                break
            U, Jm = problem.predict_and_jacobian(x)
            r = y - U
            misfit = float(r @ r)
            pen_val, pen_grad = problem.penalty(x)
            bar_val = barrier(x[:M], xi)
            obj = misfit + pen_val + bar_val

            system = problem.step_system(x, xi, Jm)
            g = -2.0 * (Jm.T @ r) + pen_grad
            g[:M] += barrier_grad(x[:M], xi)

            accepted = False
            backtracks = escalations = 0
            base = settings.damping * system.trace
            shifts = np.full(len(problem.blocks), base)
            for _esc in range(settings.damping_escalations + 1):
                delta, cap_escalations = _trust_capped_step(
                    system, g, problem.block_caps(settings), shifts)
                escalations += cap_escalations
                slope = float(g @ delta)

                t = 1.0
                for _bt in range(settings.max_backtracks + 1):
                    xt = x.copy()
                    xt[:n] += t * delta
                    if problem.feasible(xt):
                        obj_t, misfit_t = problem.value(xt, xi)
                        if obj_t <= obj + settings.armijo * t * slope:
                            accepted = True
                            break
                    backtracks += 1
                    t *= settings.shrink
                if accepted:
                    break
                escalations += 1
                shifts = np.maximum(shifts, 1e-14 * system.trace) * 1e4
            if not accepted:
                converged = False
                break

            step_norm = float(np.linalg.norm(t * delta))
            x = xt
            total += 1
            history.append({
                "iteration": total, "stage": stage, "xi": xi,
                "objective": obj_t, "misfit": misfit_t,
                "penalty": pen_val, "barrier": bar_val,
                "lambda": problem.lam_of(x), "step": t,
                "backtracks": backtracks, "escalations": escalations,
            })
            trace.append(problem.lam_of(x))
            rel_drop = (obj - obj_t) / max(abs(obj), 1e-300)
            obj, misfit = obj_t, misfit_t
            if rel_drop < settings.obj_tol or step_norm < settings.step_tol:
                break
        if not converged or total >= settings.max_iterations:
            break

    return problem.to_state(x, history, trace, converged, obj, misfit)


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
    only eta (= gamma) moves and each GN step is an M x M solve; the result
    is reported as ``state.gamma``.  ``x0``, if given, is the starting gamma.
    """
    problem = _Problem(ISOTROPIC, data, protocol, mesh, lattice, layout, weights)
    return _run_gauss_newton(problem, schedule, settings or GNSettings(), x0)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def recon_state_to_csv(state: ReconState) -> str:
    buf = io.StringIO()
    if state.mode == "uniformly-anisotropic":
        buf.write(f"# mode={state.mode} lambda={state.params.lam:.17g}\n")
        buf.write("pixel,eta,theta\n")
        for i, (e, t) in enumerate(zip(state.params.eta, state.params.theta)):
            buf.write(f"{i},{e:.17g},{t:.17g}\n")
    else:
        buf.write(f"# mode={state.mode}\n")
        buf.write("pixel,gamma\n")
        for i, gv in enumerate(state.gamma):
            buf.write(f"{i},{gv:.17g}\n")
    return buf.getvalue()


def run_log_to_json(state: ReconState) -> str:
    return json.dumps({
        "mode": state.mode,
        "converged": state.converged,
        "final_objective": state.final_objective,
        "final_misfit": state.final_misfit,
        "lambda_trace": list(state.lambda_trace),
        "iterations": state.history,
    }, indent=1)
