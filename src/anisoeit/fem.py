"""Complete-electrode-model forward solver with P1 potentials, P0 tensors.

The weak form couples nodal potentials u with electrode potentials U:

    B((u,U),(v,W)) = int_Omega grad(u) . gamma grad(v) dx
                   + sum_j (1/z_j) int_{e_j} (u - U_j)(v - W_j) ds

driven by electrode currents, with the gauge sum_j U_j = 0 imposed through
a Lagrange multiplier so all electrodes are treated identically.  The
bordered matrix is linear in the per-element (g11, g12, g22) and the
per-electrode 1/z_j; a `CEMOperator`, built once per mesh and kept as
`Mesh.cem_operator`, holds all the geometry-only work, so assembling for a
conductivity is one sparse mat-vec.  The operator keeps one sparsity
pattern, in SuperLU's factor order and sorted from one key per matrix
entry, so the mat-vec gives the matrix that is factored.

A drive is zero on every node row, so the node block can be eliminated
in electrode space.  Callers that need the nodal potentials factor the SPD
node block A_uu by a LAPACK band Cholesky in reverse Cuthill-McKee order
(`NodeBand`, planned once per mesh), form the J x J Schur complement
S = A_UU - A_uU^T A_uu^-1 A_uU, solve for U with the gauge border, and
back-substitute u = -A_uu^-1 A_uU U.  The plan's buffers are filled by one
sparse mat-vec, either from the per-element inputs of an assembled system
(`solve_many` with `nodes=True`) or straight from per-pixel tensors
(`solve_pixels`, behind every Gauss-Newton trial), through a map that
composes `data_map` with the expansion of each pixel to its elements.

Callers that need only the electrode potentials (`predict`,
`electrode_matrix`) factor the bordered matrix by SuperLU in the
operator's order: the nodes in multiple-minimum-degree order (Liu 1985),
then the electrode potentials with the multiplier before the last one.
Under that order every pivot is diagonal and a drive's forward
substitution leaves the node rows zero, so the electrode potentials solve
with the factor's trailing (J + 1) x (J + 1) block alone.
The measurement protocol is the adjacent pair drive, held as J alone; its
measured pair rows are drive patterns, which the inverse solver relies on.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgesv as gesv
from scipy.linalg.lapack import dgetrs as getrs
from scipy.linalg.lapack import dpbtrf as pbtrf
from scipy.linalg.lapack import dtbtrs as tbtrs
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import spilu, splu

from anisoeit.geometry import ElectrodeLayout, Mesh, PixelLattice, _integer
from anisoeit.tensors import TensorField


class ModelError(ValueError):
    """Invalid forward-model input (incompatible pattern, bad tensor, ...)."""


def _csc_pattern(keys: np.ndarray, size: int):
    """(indices, indptr) of the sorted unique entry keys col * size + row."""
    indptr = np.cumsum(np.bincount(keys // size + 1, minlength=size + 1))
    return (keys % size).astype(np.int32), indptr.astype(np.int32)


class CEMOperator:
    """The conductivity-independent part of the CEM system on one mesh.

    `order` is the factor order: the nodes in SuperLU's `MMD_AT_PLUS_A`
    column order of their coupling pattern (as `spilu` reports it, with
    every entry dropped), then U_0 .. U_{J-2}, the multiplier and U_{J-1},
    and `rank` its inverse.  The (u, U) block is singular along (1, 1), so
    a multiplier after every electrode would meet a round-off zero pivot;
    with this tail every pivot before the multiplier is a Cholesky pivot of
    an SPD block and the multiplier pivot is -1^T S^-1 1 < 0, S the Schur
    complement on U_0 .. U_{J-2}.

    The one CSC pattern (`indices`, `indptr`) is that of the bordered
    matrix permuted symmetrically to `order`, and its data array is
    `data_map @ [g.ravel(), 1/z, 1]`: element e's (g11, g12, g22) are inputs
    3e..3e+2, 1/z_j is input 3T + j and the constant last input carries the
    gauge border: an element's three inputs share the pattern slot of each
    of its 9 entries.  On an element, grad(phi_i) = (b_i, c_i) / (2 area).

    `node_band`, the plan of the full-field solve, is built at the first
    full-field solve (`solve_many` with `nodes=True` or `solve_pixels`)
    and kept for every later conductivity.
    """

    def __init__(self, mesh: Mesh):
        tri = self.triangles = mesh.triangles
        p = mesh.nodes[tri]
        x, y = p[..., 0], p[..., 1]
        b = self.b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = self.c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        areas = self.areas = 0.5 * (x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])
        ea, eb, ej = np.array([(*e.nodes, e.electrode) for e in mesh.boundary_edges
                               if e.electrode is not None], dtype=int).reshape(-1, 3).T
        n, T, J = mesh.n_nodes, mesh.n_elements, int(ej.max(initial=-1)) + 1
        bare = np.flatnonzero(np.bincount(ej, minlength=J) == 0)
        if len(bare):
            raise ModelError(f"electrode {bare[0]} has no boundary edges on this mesh")
        self.n_nodes, self.J = n, J
        size = self.size = n + J + 1

        # the nodes in SuperLU's minimum-degree order of their couplings.  A
        # contact term couples the two nodes of a triangle edge, so the
        # couplings are the triangles' node pairs.  SuperLU picks its column
        # order from the pattern before any numeric work and in symmetric mode
        # does not postorder it, so an incomplete factor that drops every
        # entry reports the order the full factor would use.  The module's
        # `splu` stays the factor of each conductivity alone: the operator is
        # built at the mesh's first solve, and perfbench wraps `fem.splu`.
        i, j = np.nonzero(~np.eye(3, dtype=bool))
        pattern = (sp.csc_matrix((np.full(6 * T, -1.0), (tri[:, i].ravel(), tri[:, j].ravel())),
                                 shape=(n, n))
                   + sp.identity(n, format="csc") * (6.0 * T + 1.0))
        perm_c = spilu(pattern, drop_tol=np.inf, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)).perm_c
        del pattern
        tail = n + np.arange(J + 1)
        tail[-2:] = tail[-2:][::-1]  # U_0 .. U_{J-2}, multiplier, U_{J-1}
        self.order = np.concatenate([np.argsort(perm_c), tail])
        rank = self.rank = np.empty(size, dtype=np.int64)
        rank[self.order] = np.arange(size)

        # one key per matrix entry: an element's 9 (i, j), each electrode
        # edge's 9, then the gauge border; position maps each to its slot in
        # the sorted pattern, and an element entry's slot serves its three
        # tensor components
        i, j = np.divmod(np.arange(9), 3)
        U, Us, gauge = n + ej, n + np.arange(J), np.full(J, n + J)  # gauge: sum_j U_j = 0
        rows = np.concatenate([tri[:, i].ravel(),
                               np.stack([ea, ea, eb, eb, ea, eb, U, U, U], axis=1).ravel(),
                               gauge, Us])
        cols = np.concatenate([tri[:, j].ravel(),
                               np.stack([ea, eb, ea, eb, U, U, ea, eb, U], axis=1).ravel(),
                               Us, gauge])
        keys, position = np.unique(rank[cols] * size + rank[rows], return_inverse=True)
        del rows, cols
        self.indices, self.indptr = _csc_pattern(keys, size)
        # int32 indices, which the CSR conversion below keeps without a copy
        position = np.concatenate([np.repeat(position[:9 * T], 3), position[9 * T:]],
                                  dtype=np.int32)

        # stiffness entry (i, j) of an element: (b_i b_j, b_i c_j + c_i b_j, c_i c_j) / (4 area)
        stiff = np.stack([b[:, i] * b[:, j], b[:, i] * c[:, j] + c[:, i] * b[:, j],
                          c[:, i] * c[:, j]], axis=2) / (4.0 * areas)[:, None, None]
        # edge mass (ell/6) [[2,1],[1,2]] and trace couplings, exact for P1
        ell = np.linalg.norm(mesh.nodes[ea] - mesh.nodes[eb], axis=1)
        edge = np.outer(ell, [1 / 3, 1 / 6, 1 / 6, 1 / 3, -1 / 2, -1 / 2, -1 / 2, -1 / 2, 1])
        coef = np.concatenate([stiff.ravel(), edge.ravel(), np.ones(2 * J)])
        del stiff
        inputs = np.concatenate([np.arange(3 * T, dtype=np.int32).reshape(T, 1, 3)
                                 .repeat(9, axis=1).ravel(),
                                 np.repeat(3 * T + ej, 9), np.full(2 * J, 3 * T + J)],
                                dtype=np.int32)
        self.data_map = sp.csr_matrix((coef, (position, inputs)),
                                      shape=(len(keys), 3 * T + J + 1))

    def matrix(self, g: np.ndarray, inv_z: np.ndarray) -> sp.csc_matrix:
        """The bordered CEM matrix, in factor order, for per-element tensors
        g (T, 3) and per-electrode 1/z (J,)."""
        data = self.data_map @ _inputs(g, inv_z)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.size, self.size))

    @cached_property
    def node_band(self) -> NodeBand:
        return NodeBand(self)


class NodeBand:
    """The plan of the full-field solve on one mesh, in one F-ordered
    buffer: the node block A_uu as the LAPACK upper band of its reverse
    Cuthill-McKee order (Cuthill and McKee 1969) with half-bandwidth `kd`
    (`band`), the coupling A_uU (n x J, rows in that order; `coupling`),
    the electrode block A_UU bordered by the gauge multiplier ((J + 1) x
    (J + 1); `bordered`) and the band's diagonal, which the pivot test
    reads after the factor has overwritten the band (`diagonal`).  `rank`
    maps a node to its band row.

    A solve fills the buffer with one sparse mat-vec of a fill map: a row
    per buffer entry and a column per input, stored by column, so the map
    holds an index per entry and none per buffer row.  `element_map` takes
    the operator's inputs [g.ravel(), 1/z, 1], as `data_map` does;
    `pixel_map(lattice)` takes [g11, g12, g22 per pixel, 1/z, 1] and is
    `element_map` composed with the expansion of each pixel to its
    elements.  Both are built at first use; the pixel map is kept for the
    last lattice, checked by identity.  Every solve overwrites the buffer
    in place; nothing it returns aliases it, and one plan serves one solve
    at a time.
    """

    def __init__(self, op: CEMOperator):
        # csgraph is imported here, so a process that only simulates never loads it
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        n, J = self.n_nodes, self.J = op.n_nodes, op.J
        rows = op.order[op.indices]
        cols = op.order[np.repeat(np.arange(op.size), np.diff(op.indptr))]
        node = (rows < n) & (cols < n)
        rcm = reverse_cuthill_mckee(
            sp.csr_matrix((np.ones(np.count_nonzero(node)), (rows[node], cols[node])),
                          shape=(n, n)), symmetric_mode=True)
        rank = self.rank = np.empty(n, dtype=np.intp)
        rank[rcm] = np.arange(n)
        slots, r, c = np.flatnonzero(node), rank[rows[node]], rank[cols[node]]
        kd = self.kd = int(np.abs(r - c).max(initial=0))
        start = np.cumsum([0, (kd + 1) * n, n * J, (J + 1) ** 2, n])
        buffer = self._buffer = np.zeros(start[-1])
        self.band = buffer[:start[1]].reshape((kd + 1, n), order="F")
        self.coupling = buffer[start[1]:start[2]].reshape((n, J), order="F")
        self.bordered = buffer[start[2]:start[3]].reshape((J + 1, J + 1), order="F")
        self.diagonal = buffer[start[3]:]
        # the buffer entry each CSC slot goes to: A_uu[r, c], r <= c, at
        # band[kd + r - c, c]; its diagonal again in `diagonal`; A_Uu[j, c]
        # at coupling[c, j]; and every entry of the electrode and gauge rows
        # and columns in `bordered`
        upper, diagonal = r <= c, r == c
        coupling = (cols < n) & (n <= rows) & (rows < n + J)
        block = (n <= rows) & (n <= cols)
        src = np.concatenate([slots[upper], slots[diagonal], np.flatnonzero(coupling),
                              np.flatnonzero(block)])
        dst = np.concatenate([(kd + r - c + (kd + 1) * c)[upper], start[3] + r[diagonal],
                              start[1] + rank[cols[coupling]] + n * (rows[coupling] - n),
                              start[2] + rows[block] - n + (J + 1) * (cols[block] - n)])
        self._select = sp.coo_matrix((np.ones(len(src)), (dst, src)),
                                     shape=(len(buffer), len(op.indices)))
        self._data_map = op.data_map
        self._pixels = (None, None)  # (lattice, its fill map)

    @cached_property
    def element_map(self) -> sp.csc_matrix:
        return (self._select @ self._data_map).tocsc()

    def pixel_map(self, lattice: PixelLattice) -> sp.csc_matrix:
        if self._pixels[0] is not lattice:
            e2p, M, J = lattice.element_to_pixel, lattice.n_active, self.J
            T = (self._data_map.shape[1] - J - 1) // 3
            if len(e2p) != T:
                raise ModelError(f"lattice maps {len(e2p)} elements but the mesh has {T}")
            cols = np.concatenate([(3 * e2p[:, None] + np.arange(3)).ravel(),
                                   3 * M + np.arange(J + 1)])
            expand = sp.csr_matrix((np.ones(len(cols)), (np.arange(len(cols)), cols)),
                                   shape=(len(cols), 3 * M + J + 1))
            self._pixels = (lattice, (self._select @ (self._data_map @ expand)).tocsc())
        return self._pixels[1]

    def fill(self, fill_map: sp.csc_matrix, inputs: np.ndarray):
        """Overwrite the buffer with `fill_map @ inputs`."""
        if inputs.shape != (fill_map.shape[1],):
            raise ModelError(f"the fill map takes {fill_map.shape[1]} inputs, "
                             f"got shape {inputs.shape}")
        self._buffer.fill(0.0)
        _sparsetools.csc_matvec(*fill_map.shape, fill_map.indptr, fill_map.indices,
                                fill_map.data, inputs, self._buffer)

    def solve(self, fill_map: sp.csc_matrix, inputs: np.ndarray, patterns: np.ndarray):
        """Nodal (K, n) and electrode (K, J) potentials of the zero-sum
        patterns (K, J) for the system that `fill_map` makes of `inputs`.

        With A_uu = R^T R: W = R^-T A_uU, S = A_UU - W^T W, then U from the
        (J + 1) x (J + 1) system of S bordered by the gauge multiplier, by LU
        with partial pivoting (`dgesv`), and u = -R^-1 W U."""
        n, J = self.n_nodes, self.J
        self.fill(fill_map, inputs)
        factor, info = pbtrf(self.band, overwrite_ab=1)
        if info == 0:  # a pivot at round-off level of its diagonal is no pivot either
            small = np.flatnonzero(factor[-1] ** 2 <= n * np.finfo(float).eps * self.diagonal)
            info = small[0] + 1 if len(small) else 0
        if info > 0:
            raise ModelError(f"the node block is singular to working precision: band "
                             f"Cholesky pivot {info} of {n} (node "
                             f"{np.flatnonzero(self.rank == info - 1)[0]}) is not positive")
        W, _ = tbtrs(factor, self.coupling, trans="T", overwrite_b=1)
        self.bordered[:J, :J] -= W.T @ W
        rhs = np.zeros((J + 1, len(patterns)), order="F")
        rhs[:J] = patterns.T
        _, _, x, info = gesv(self.bordered, rhs, overwrite_a=1, overwrite_b=1)
        if info > 0:
            raise ModelError(f"the bordered electrode system is singular: LU pivot {info} "
                             f"of {J + 1} is zero")
        U = x[:J]
        u, _ = tbtrs(factor, dgemm(-1.0, W, U), overwrite_b=1)
        return u[self.rank].T, U.T


def _inputs(g: np.ndarray, inv_z: np.ndarray) -> np.ndarray:
    """The operator's input vector [g.ravel(), 1/z, 1]: tensor triples, then
    the per-electrode 1/z, then the constant of the gauge border."""
    return np.concatenate([g.ravel(), inv_z, [1.0]])


def _inverse_impedances(layout: ElectrodeLayout, op: CEMOperator) -> np.ndarray:
    """1/z of the layout's electrodes, checked against the operator's."""
    if layout.J != op.J:
        raise ModelError(f"layout has {layout.J} electrodes but the mesh tags {op.J}")
    if not np.all(np.isfinite(layout.contact_impedances) & (layout.contact_impedances > 0)):
        raise ModelError("contact impedances must be finite and positive")
    return 1.0 / layout.contact_impedances


@dataclass
class CEMSystem:
    """The gauge-constrained CEM system over (u, U, multiplier) of the
    per-element tensors g (T, 3) and the per-electrode 1/z (J,): its
    `matrix`, in the operator's factor order, is formed at first use.

    A full-field solve fills the operator's band plan from g and 1/z and
    does not form `matrix`.  `factor` serves the electrode-only solves
    (`solve_many` with `nodes=False`); it is formed at the first of them,
    once per system, with diagonal pivots: SuperLU in symmetric mode, with
    no column ordering of its own and a zero pivot threshold, so it leaves
    a diagonal only when it is an exact zero (the order makes every
    diagonal pivot sound).  A right-hand side that is zero on every node
    row then leaves the forward substitution zero there, so the electrode
    potentials of a drive solve with the trailing (J + 1) x (J + 1) blocks
    of L and U alone (`_tail_lu`)."""

    g: np.ndarray
    inv_z: np.ndarray
    operator: CEMOperator

    @cached_property
    def matrix(self) -> sp.csc_matrix:
        return self.operator.matrix(self.g, self.inv_z)

    @cached_property
    def factor(self):
        return splu(self.matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))

    @cached_property
    def _tail_lu(self) -> np.ndarray:
        """The trailing blocks of L (strictly below the diagonal) and U in
        one dense array, as LAPACK getrf leaves them; read straight from the
        CSC arrays, once per factor."""
        f, m = self.factor, self.operator.J + 1
        for name in ("perm_r", "perm_c"):
            moved = np.flatnonzero(getattr(f, name) != np.arange(f.shape[0]))
            if len(moved):
                raise ModelError(f"the factor moved pivot {moved[0]} ({name}); "
                                 "the electrode solve needs diagonal pivots")
        start = f.shape[0] - m
        lu = np.zeros((m, m), order="F")
        for part in (f.L, f.U):  # U last: its diagonal replaces L's unit one
            first = part.indptr[start]
            rows = part.indices[first:] - start
            cols = np.repeat(np.arange(m), np.diff(part.indptr[start:]))
            keep = rows >= 0  # U's trailing columns also reach the leading rows
            lu[rows[keep], cols[keep]] = part.data[first:][keep]
        return lu


def assemble(mesh: Mesh, fld: TensorField, layout: ElectrodeLayout) -> CEMSystem:
    """The bordered CEM system of a tensor field.

    The field is SPD by construction (`TensorField` validates every element).
    """
    op = mesh.cem_operator
    if fld.n_elements != mesh.n_elements:
        raise ModelError("tensor field does not match mesh")
    return CEMSystem(g=fld.g, inv_z=_inverse_impedances(layout, op), operator=op)


def solve_current_drive(system: CEMSystem, pattern: np.ndarray):
    """Nodal and electrode potentials for one zero-sum current pattern.

    Each call factors the node block afresh, since a `CEMSystem` keeps no
    full-field factor: solve several patterns on one system in one
    `solve_many` call, which factors once for all of them."""
    u, U = solve_many(system, np.asarray(pattern, dtype=float)[None])
    return u[0], U[0]


def solve_many(system: CEMSystem, patterns: np.ndarray, nodes: bool = True):
    """Nodal (K, n) and electrode (K, J) potentials for stacked current
    patterns (K, J).  Each pattern must be finite and sum to zero
    (Kirchhoff).  With `nodes=True` the node block is eliminated in
    electrode space by the operator's band Cholesky plan
    (`CEMOperator.node_band`, filled through its `element_map`), one
    factorization per call.  With `nodes=False` the nodal potentials are
    None and the electrode potentials come from the SuperLU factor's
    trailing block alone (`CEMSystem._tail_lu`): the patterns go straight
    into its electrode rows, read back by `rank`, with no sweep over the
    node rows."""
    patterns = np.atleast_2d(np.asarray(patterns, dtype=float))
    op = system.operator
    n, J = op.n_nodes, op.J
    if patterns.ndim != 2 or patterns.shape[1] != J:
        raise ModelError(f"patterns must have shape (K, {J}), got {patterns.shape}")
    bad = np.flatnonzero(~np.isfinite(patterns).all(axis=1))
    if len(bad):
        raise ModelError(f"current pattern {bad[0]} has a non-finite entry")
    scale = np.maximum(np.abs(patterns).max(axis=1), 1.0)
    unbalanced = np.flatnonzero(np.abs(patterns.sum(axis=1)) > 1e-12 * scale)
    if len(unbalanced):
        raise ModelError(f"current pattern {unbalanced[0]} must sum to zero (Kirchhoff)")
    if nodes:
        plan = op.node_band
        return plan.solve(plan.element_map, _inputs(system.g, system.inv_z), patterns)
    electrodes = op.rank[n:n + J] - n  # rows of the trailing block
    rhs = np.zeros((J + 1, len(patterns)))
    rhs[electrodes] = patterns.T
    y, _ = getrs(system._tail_lu, np.arange(J + 1, dtype=np.int32), rhs)
    return None, y[electrodes].T


def solve_pixels(mesh: Mesh, lattice: PixelLattice, g: np.ndarray, layout: ElectrodeLayout,
                 protocol: MeasurementProtocol):
    """Nodal (K, n) and electrode (K, J) potentials of the protocol's drive
    patterns for the pixel tensors g (M, 3) on `lattice`, each element
    carrying its pixel's tensor: `solve_many` of that field, with the band
    plan filled straight from the pixels (`NodeBand.pixel_map`) and no
    per-element field or matrix formed.  g is trusted to be SPD
    (`tensors.pixel_tensors` checks it)."""
    op = mesh.cem_operator
    inputs = _inputs(g, _inverse_impedances(layout, op))
    plan = op.node_band
    return plan.solve(plan.pixel_map(lattice), inputs, protocol.patterns)


def electrode_matrix(system: CEMSystem):
    """Both directions of the electrode measurement map on zero-mean vectors.

    Returns (G, E): G maps mean-zero currents to mean-zero electrode
    voltages (symmetric by reciprocity); E is its pseudo-inverse, the
    voltage-to-current map.
    """
    J = system.operator.J
    Q = np.eye(J) - np.ones((J, J)) / J
    _, U = solve_many(system, Q, nodes=False)
    G = U.T  # column k = potentials for pattern Q e_k
    E = np.linalg.pinv(G)
    return G, E


# ---------------------------------------------------------------------------
# measurement protocol and data simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementProtocol:
    """The adjacent pair drive on J >= 4 electrodes.  Pattern k injects +1
    at electrode k and -1 at k+1 (cyclic); its L = J - 3 measurements are
    U_m - U_{m+1} over the pairs m touching neither driven electrode, in
    increasing order (`retained_pairs`).  The row of pair m is pattern m, so
    the drive solutions are also the adjoint fields (see `inverse._Fold`).
    `patterns`, `retained_pairs` and the index arrays of `measure` are
    formed once per protocol and kept read-only."""

    J: int

    def __post_init__(self):
        if not (_integer(self.J) and self.J >= 4):
            raise ModelError(f"adjacent protocol needs an integer J >= 4, got {self.J!r}")

    @property
    def K(self) -> int:
        return self.J

    @property
    def L(self) -> int:
        return self.J - 3

    @property
    def N(self) -> int:
        return self.K * self.L

    @cached_property
    def patterns(self) -> np.ndarray:
        """(K, J) current patterns, each summing to zero; read-only."""
        eye = np.eye(self.J)
        return _read_only(eye - np.roll(eye, 1, axis=1))

    @cached_property
    def retained_pairs(self) -> np.ndarray:
        """(K, L) pair index m of each measurement, sorted per pattern; read-only."""
        return _read_only(np.sort((np.arange(self.J)[:, None] + np.arange(2, self.J - 1))
                                  % self.J, axis=1))

    @cached_property
    def _terminals(self):
        """The row k and the electrodes m and m + 1 of each measurement, as
        index arrays into the (K, J) potentials."""
        m = self.retained_pairs
        return _read_only(np.arange(self.K)[:, None]), m, _read_only((m + 1) % self.J)

    def measure(self, U: np.ndarray) -> np.ndarray:
        """Stacked measurements (N,) from the electrode potentials (K, J) of
        the K patterns: U[k, m] - U[k, m + 1] over the retained pairs m."""
        k, m, m_next = self._terminals
        return (U[k, m] - U[k, m_next]).ravel()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def adjacent_protocol(J: int) -> MeasurementProtocol:
    """The adjacent pair drive on J electrodes (see `MeasurementProtocol`)."""
    return MeasurementProtocol(J)


@dataclass(frozen=True)
class DataVector:
    """Stacked voltage measurements with their noise provenance."""

    values: np.ndarray       # (N,)
    noise_fraction: float
    seed: Optional[int]
    J: int
    K: int
    L: int
    contact_impedances: np.ndarray

    @property
    def N(self) -> int:
        return self.values.shape[0]


def predict(mesh: Mesh, fld: TensorField, layout: ElectrodeLayout,
            protocol: MeasurementProtocol) -> np.ndarray:
    """Clean stacked measurement vector for a conductivity field."""
    system = assemble(mesh, fld, layout)
    _, U = solve_many(system, protocol.patterns, nodes=False)
    return protocol.measure(U)


def add_noise(clean: np.ndarray, noise_fraction: float, seed: Optional[int]) -> np.ndarray:
    """Gaussian noise scaled to the clean max, from one RNG stream seeded
    by None or an integer >= 0.

    noise std = noise_fraction * max_m |clean V_m|; noise_fraction 0 skips
    the draw entirely so repeated calls are bitwise identical.
    """
    if not (np.isfinite(noise_fraction) and noise_fraction >= 0):
        raise ModelError(f"noise_fraction must be finite and nonnegative, got {noise_fraction}")
    if not (seed is None or (_integer(seed) and seed >= 0)):
        raise ModelError(f"noise seed must be None or an integer >= 0, got {seed!r}")
    if noise_fraction == 0:
        return clean
    sigma = noise_fraction * np.abs(clean).max()
    return clean + np.random.default_rng(seed).normal(0.0, sigma, clean.shape)


def simulate_measurements(mesh: Mesh, fld: TensorField, layout: ElectrodeLayout,
                          protocol: MeasurementProtocol, noise_fraction: float,
                          seed: Optional[int]) -> DataVector:
    """Simulate one EIT experiment: `predict` plus `add_noise`."""
    values = add_noise(predict(mesh, fld, layout, protocol), noise_fraction, seed)
    return DataVector(values=values, noise_fraction=float(noise_fraction),
                      seed=seed, J=protocol.J, K=protocol.K, L=protocol.L,
                      contact_impedances=layout.contact_impedances.copy())


def data_vector_to_csv(data: DataVector) -> str:
    buf = io.StringIO()
    z = ";".join(f"{v:.17g}" for v in data.contact_impedances)
    buf.write(f"# J={data.J} K={data.K} L={data.L} N={data.N} "
              f"noise_fraction={data.noise_fraction:.17g} seed={data.seed} z={z}\n")
    buf.write("pattern,index,value\n")
    for m, v in enumerate(data.values):
        buf.write(f"{m // data.L},{m % data.L},{v:.17g}\n")
    return buf.getvalue()


def data_vector_from_csv(text: str) -> DataVector:
    lines = text.strip().splitlines()
    meta = {}
    for token in lines[0].lstrip("# ").split():
        key, _, val = token.partition("=")
        meta[key] = val
    values = np.array([float(ln.split(",")[2]) for ln in lines[2:] if ln])
    seed = None if meta["seed"] == "None" else int(meta["seed"])
    return DataVector(values=values, noise_fraction=float(meta["noise_fraction"]),
                      seed=seed, J=int(meta["J"]), K=int(meta["K"]), L=int(meta["L"]),
                      contact_impedances=np.array([float(v) for v in meta["z"].split(";")]))
