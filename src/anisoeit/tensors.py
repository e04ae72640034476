"""Symmetric positive-definite conductivity tensors and their operations.

The central object is the uniformly anisotropic field
eta(x) * R_theta(x) * diag(sqrt(lam), 1/sqrt(lam)) * R_theta(x)^{-1}
with constant lam, built per mesh element through the pixel lattice.
Tensors are stored per element as the triple (g11, g12, g22).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from anisoeit.geometry import Mesh, PixelLattice, locate_points


class TensorError(ValueError):
    """Violation of positive-definiteness or parameter constraints."""


MAX_EIG_RATIO = 1e6  # numerical ellipticity guard for TensorField


@dataclass(frozen=True)
class TensorField:
    """Per-element SPD tensors over a mesh; columns of g are g11, g12, g22."""

    g: np.ndarray  # (T, 3)

    def __post_init__(self):
        g = self.g
        if g.ndim != 2 or g.shape[1] != 3:
            raise TensorError("tensor field must have shape (T, 3)")
        bad = np.flatnonzero(~np.isfinite(g.ravel()))
        if len(bad):
            e, c = divmod(int(bad[0]), 3)
            raise TensorError(f"element {e} tensor entry g{('11', '12', '22')[c]} "
                              f"is not finite ({g[e, c]})")
        det = g[:, 0] * g[:, 2] - g[:, 1] ** 2
        if not (np.all(g[:, 0] > 0) and np.all(det > 0)):
            bad = int(np.argmin(np.minimum(g[:, 0], det)))
            raise TensorError(f"element {bad} tensor is not positive definite")
        lam1, lam2 = _eigenvalues(g)
        if np.any(lam1 / lam2 > MAX_EIG_RATIO):
            bad = int(np.argmax(lam1 / lam2))
            raise TensorError(f"element {bad} eigenvalue ratio exceeds {MAX_EIG_RATIO:g}")

    @property
    def n_elements(self) -> int:
        return self.g.shape[0]

    @staticmethod
    def isotropic(values: Union[float, np.ndarray], n_elements: int = None) -> "TensorField":
        v = np.asarray(values, dtype=float)
        if v.ndim == 0:
            v = np.full(n_elements, float(v))
        g = np.column_stack([v, np.zeros_like(v), v])
        return TensorField(g=g)


@dataclass(frozen=True)
class UniformAnisoParams:
    """Unknowns of the inverse problem: pixel fields eta, theta and scalar lam."""

    eta: np.ndarray    # (M,) positive
    theta: np.ndarray  # (M,) radians, meaningful modulo pi
    lam: float         # positive scalar

    def __post_init__(self):
        for name in ("eta", "theta"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if len(bad):
                raise TensorError(f"{name}[{bad[0]}] is not finite "
                                  f"({getattr(self, name)[bad[0]]})")
        if not np.isfinite(self.lam):
            raise TensorError(f"lam is not finite ({self.lam})")
        if np.any(self.eta <= 0):
            raise TensorError("eta must be strictly positive")
        if not self.lam > 0:
            raise TensorError("lam must be strictly positive")
        if self.eta.shape != self.theta.shape:
            raise TensorError("eta and theta must have equal length")

    @property
    def M(self) -> int:
        return self.eta.shape[0]


def _eigenvalues(g: np.ndarray):
    mean = 0.5 * (g[:, 0] + g[:, 2])
    disc = np.sqrt((0.5 * (g[:, 0] - g[:, 2])) ** 2 + g[:, 1] ** 2)
    return mean + disc, mean - disc


# ---------------------------------------------------------------------------
# the uniformly anisotropic parameterization
# ---------------------------------------------------------------------------

def gamma_hat_entries(eta, theta, lam):
    """Tensor entries of eta * R_theta diag(sqrt(lam), 1/sqrt(lam)) R_theta^{-1}.

    R_theta = [[cos, sin], [-sin, cos]].  Eigenvalues are exactly
    eta*sqrt(lam) and eta/sqrt(lam).
    """
    p = np.sqrt(lam)
    q = 1.0 / p
    c, s = np.cos(theta), np.sin(theta)
    g11 = eta * (p * c ** 2 + q * s ** 2)
    g22 = eta * (p * s ** 2 + q * c ** 2)
    g12 = eta * (q - p) * c * s
    return g11, g12, g22


def gamma_hat(params: UniformAnisoParams, lattice: PixelLattice) -> TensorField:
    """Realize the pixel parameters as a per-element tensor field."""
    if params.M != lattice.n_active:
        raise TensorError(
            f"parameter length {params.M} does not match lattice size {lattice.n_active}")
    e2p = lattice.element_to_pixel
    g11, g12, g22 = gamma_hat_entries(params.eta[e2p], params.theta[e2p], params.lam)
    return TensorField(g=np.column_stack([g11, g12, g22]))


def det_sqrt(f: TensorField) -> np.ndarray:
    """Per-element sqrt(det); equals eta exactly for gamma_hat fields."""
    return np.sqrt(f.g[:, 0] * f.g[:, 2] - f.g[:, 1] ** 2)


def anisotropy(f: TensorField):
    """Pointwise anisotropy (sqrt(L)-1)/(sqrt(L)+1) and its max over elements."""
    lam1, lam2 = _eigenvalues(f.g)
    root = np.sqrt(lam1 / lam2)
    K = (root - 1.0) / (root + 1.0)
    return K, float(K.max())


def beltrami_mu_field(f: TensorField) -> np.ndarray:
    """Per-element complex dilatation of the isotropizing map.

    Always strictly inside the unit disk; its modulus equals the pointwise
    anisotropy of the tensor.
    """
    g = f.g
    denom = g[:, 0] + g[:, 2] + 2.0 * np.sqrt(g[:, 0] * g[:, 2] - g[:, 1] ** 2)
    return ((-g[:, 0] + g[:, 2]) - 2j * g[:, 1]) / denom


def params_from_field(f: TensorField):
    """Recover (lam, theta mod pi, eta) from a uniformly anisotropic field.

    The lam <-> 1/lam ambiguity is resolved to the canonical lam >= 1
    representative.  Per-element values are returned; callers working on a
    lattice average over each pixel's elements.
    """
    g = f.g
    lam1, lam2 = _eigenvalues(g)
    eta = np.sqrt(lam1 * lam2)
    lam = lam1 / lam2
    # eigenvector of lam1: rotate e1 by the tensor angle; gamma_hat uses R e1 = (cos, -sin)
    half = 0.5 * np.arctan2(-2.0 * g[:, 1], g[:, 0] - g[:, 2])
    theta = np.mod(half, np.pi)
    return lam, theta, eta


def canonicalize(params: UniformAnisoParams) -> UniformAnisoParams:
    """Canonical representative with lam >= 1 and theta folded into [0, pi)."""
    if params.lam >= 1.0:
        return UniformAnisoParams(eta=params.eta.copy(),
                                  theta=np.mod(params.theta, np.pi),
                                  lam=float(params.lam))
    return UniformAnisoParams(eta=params.eta.copy(),
                              theta=np.mod(params.theta + np.pi / 2, np.pi),
                              lam=float(1.0 / params.lam))


# ---------------------------------------------------------------------------
# diffeomorphisms and push-forward
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diffeo:
    """Analytic planar diffeomorphism with Jacobian and inverse evaluators."""

    forward: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]   # (n, 2, 2)
    inverse: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def identity() -> "Diffeo":
        return Diffeo(forward=lambda x: np.array(x, dtype=float, copy=True),
                      jacobian=lambda x: np.tile(np.eye(2), (len(np.atleast_2d(x)), 1, 1)),
                      inverse=lambda x: np.array(x, dtype=float, copy=True))

    @staticmethod
    def affine(A, b=(0.0, 0.0)) -> "Diffeo":
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.linalg.det(A) <= 0:
            raise TensorError("affine map must be orientation preserving")
        Ainv = np.linalg.inv(A)
        return Diffeo(forward=lambda x: np.atleast_2d(x) @ A.T + b,
                      jacobian=lambda x: np.tile(A, (len(np.atleast_2d(x)), 1, 1)),
                      inverse=lambda x: (np.atleast_2d(x) - b) @ Ainv.T)

    @staticmethod
    def radial_boundary_preserving(c: float) -> "Diffeo":
        """F(r, phi) = (r + c r (1 - r), phi) on the unit disk; F = id on the circle.

        Orientation preserving for |c| <= 0.5 (radial derivative 1 + c - 2cr > 0).
        """
        if not abs(c) <= 0.5:  # also rejects nan
            raise TensorError(f"radial map requires a finite c with |c| <= 0.5, got c={c!r}")

        def fwd(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            r = np.linalg.norm(x, axis=1)
            return x * (1.0 + c * (1.0 - r))[:, None]

        def jac(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            r = np.linalg.norm(x, axis=1)
            out = np.zeros((len(x), 2, 2))
            phi = 1.0 + c * (1.0 - r)
            out[:, 0, 0] = out[:, 1, 1] = phi
            safe = np.where(r > 1e-300, r, 1.0)
            outer = (x[:, :, None] * x[:, None, :]) / safe[:, None, None]
            out -= c * outer
            return out

        def inv(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            rho = np.linalg.norm(x, axis=1)
            if c == 0:
                return x.copy()
            disc = (1.0 + c) ** 2 - 4.0 * c * rho
            r = ((1.0 + c) - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * c)
            scale = np.where(rho > 1e-300, r / np.where(rho > 1e-300, rho, 1.0), 1.0)
            return x * scale[:, None]

        return Diffeo(forward=fwd, jacobian=jac, inverse=inv)

    def roundtrip_error(self, pts: np.ndarray) -> float:
        pts = np.atleast_2d(pts)
        return float(np.max(np.linalg.norm(self.forward(self.inverse(pts)) - pts, axis=1)))


def _apply_jacobian(J: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Entries of J G J^T / |det J| for stacked Jacobians and tensor triples."""
    G = np.empty((len(g), 2, 2))
    G[:, 0, 0] = g[:, 0]
    G[:, 0, 1] = G[:, 1, 0] = g[:, 1]
    G[:, 1, 1] = g[:, 2]
    out = np.einsum("nab,nbc,ndc->nad", J, G, J)
    det = np.abs(J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0])
    out /= det[:, None, None]
    return np.column_stack([out[:, 0, 0], out[:, 0, 1], out[:, 1, 1]])


def push_forward(field: TensorField, mesh_src: Mesh, diffeo: Diffeo,
                 mesh_dst: Mesh) -> TensorField:
    """Transform a per-element field under a diffeomorphism.

    The destination value at each centroid x is
    F'(y) g(y) F'(y)^T / |det F'(y)| with y = F^{-1}(x), g looked up in the
    source element containing y.
    """
    if field.n_elements != mesh_src.n_elements:
        raise TensorError("field does not match source mesh")
    x = mesh_dst.centroids()
    if diffeo.roundtrip_error(x) > 1e-8:
        raise TensorError("diffeo inverse is inconsistent with forward map")
    y = diffeo.inverse(x)
    src = locate_points(mesh_src, y, tol=1e-7)
    if np.any(src < 0):
        bad = int(np.where(src < 0)[0][0])
        raise TensorError(
            f"preimage of destination centroid {bad} at {tuple(y[bad])} "
            "lies outside the source mesh")
    J = diffeo.jacobian(y)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(det <= 0):
        raise TensorError("diffeo is not orientation preserving on the preimages")
    return TensorField(g=_apply_jacobian(J, field.g[src]))


def push_forward_function(gamma_fn: Callable[[np.ndarray], np.ndarray],
                          diffeo: Diffeo, mesh_dst: Mesh) -> TensorField:
    """Push forward an analytically known isotropic conductivity.

    Avoids the piecewise-constant source lookup of :func:`push_forward`;
    used where representation error must not pollute a convergence study.
    """
    x = mesh_dst.centroids()
    y = diffeo.inverse(x)
    vals = np.asarray(gamma_fn(y), dtype=float)
    J = diffeo.jacobian(y)
    g = np.column_stack([vals, np.zeros_like(vals), vals])
    return TensorField(g=_apply_jacobian(J, g))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def scalar_field_to_csv(values: np.ndarray) -> str:
    buf = io.StringIO()
    buf.write("element,value\n")
    for i, v in enumerate(values):
        buf.write(f"{i},{v:.17g}\n")
    return buf.getvalue()


def scalar_field_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines()[1:] if ln]
    return np.array([float(ln.split(",")[1]) for ln in lines])
