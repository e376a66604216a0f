"""Discretization of the periodicity cell and the lambda-shifted operator.

The evolution operator acting on grid functions is

    E_lam phi = div(A grad phi) + 2 lam.A grad phi - q.grad phi
                + (lam.A.lam + div(A lam) + mu - q.lam) phi,

so that the eigenproblem reads  d_t phi = E_lam phi + k phi  for the periodic
eigenfunction.  Spatial discretization is second-order centered finite
differences on a uniform periodic grid: the divergence-form diffusion uses
flux differences with A at cell faces (arithmetic mean of the endpoint
values), first-order terms are centered, and div(A lam) is the centered
difference of the sampled A lam.  Every derivative of a sampled coefficient
is taken this way, whatever the representation of the coefficient
(expression, callable or constant), so the same coefficients give the same
discrete operator.

The adjoint action is the exact matrix transpose; term by term that is the
divergence-form advection -div((2 A lam - q) .) with the same diagonal, i.e.
the adjoint operator with its zeroth-order term -div(A lam)+lam.A.lam-q.lam+mu
after expanding the products.

The operators read A, q and mu only from `CoefficientSamples`, made once
per coefficient set and grid, where A is checked to be uniformly elliptic.
Callers sample at the boundary (`sample`), and since E_lam is a quadratic
polynomial in lam, a ray search samples once and a new lam redoes only the
lam algebra: one pass (`CoefficientSamples.stencil`) makes the terms of
E_lam at every level, and checks once that they are finite.  The stencil
along each axis is written once (`_axis_stencil`), and the 2D mixed block of
A_12 is the only part specific to 2D.  In 1D the terms are the cyclic
tridiagonal bands in the wrap-around form that `kernels` takes as it is;
in every dimension `_sparse_levels` gathers them onto the one CSC sparsity
pattern that every level shares, one entry array (n_levels, nnz), and the
CSR matrix of a level is a row of it.  The face average (`_faces`) and the
centred difference (`_centred`) of samples are written once as well; the
simulator and the variational routines use them too.

The steady eigen route takes E_lam as a `SteadyAction`: in 1D its terms as
cyclic tridiagonal bands, with LAPACK factors of sigma I - E_lam
(`kernels.CyclicFactor`) and band products, and in 2D a CSR matrix with
sparse LU.  `assemble_action` returns the CSR matrix of any dimension at
t = 0.  Every sparse LU (`_splu`) orders its columns by minimum degree on
the structure of M + M^T (SuperLU's MMD_AT_PLUS_A; George & Liu, SIAM
Review 31, 1989): the stencil matrices are structurally symmetric, and this
ordering leaves less fill than COLAMD.  Every sparse LU also runs with
unrelaxed supernodes and one-column panels (`SUPERLU_RELAX`,
`SUPERLU_PANEL_SIZE`).  The levels of a period share one pattern, so
`_level_factors` computes one ordering per family, from level 0, gathers
the columns of every level into it and factors them in that order.  On a
2-core x86-64 VM (python 3.11, scipy 1.17), a level of the 5-point shear
pattern then factors in 0.96 ms at 32 x 32 and 6.1 ms at 64 x 64 (2.3 and
10.6 ms with SuperLU's default supernodes and panels), and a solve takes
44 and 284 us (57 and 365 us); the 9-point pattern of a mixed term A_12
factors in 1.3 and 8.5 ms (1.8 and 10.1 ms) and solves in 77 and 438 us
(81 and 443 us).

Time stepping over one period is Crank-Nicolson, with L_m = I - dt/2 E_m,

    L_{m+1} phi^{m+1} = (2I - L_m) phi^m,   as I + dt/2 E_m = 2I - L_m,

so a level is the one matrix L_m, run by the one sweep `kernels.cn_period`
in every dimension.  Only the linear algebra of a level depends on the
dimension: 1D factors the L_m of all levels in one LAPACK call (see
:mod:`kppspeed.kernels`), 2D takes the sparse LU of each L_m (`_cn_matrices`).
The products with E_m of all levels are one sparse product (`actions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import kernels
from .fields import CellGeometry, CoefficientSet

__all__ = ["Grid", "GridError", "NonFiniteActionError", "build_grid", "CoefficientSamples",
           "sample", "assemble_action", "SteadyAction", "ActionFamily"]

DEFAULT_CAP = 2**20
MIN_POINTS = 8


class GridError(ValueError):
    pass


class NonFiniteActionError(ValueError):
    """E_lam has an inf or NaN entry: a coefficient sample, or lam, is too large."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic space grid plus the time-step count for one period."""

    geometry: CellGeometry
    n_space: tuple[int, ...]
    n_t: int

    @property
    def dimension(self) -> int:
        return len(self.n_space)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.geometry.lengths, self.n_space))

    @property
    def dt(self) -> float:
        return self.geometry.period / self.n_t

    @property
    def npoints(self) -> int:
        return int(np.prod(self.n_space))

    def axes(self) -> list[np.ndarray]:
        return [np.arange(n) * h for n, h in zip(self.n_space, self.h)]

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def cell_measure(self) -> float:
        return float(np.prod(self.h))


def build_grid(geometry: CellGeometry, n_space, n_t: int | None = None,
               cap: int = DEFAULT_CAP) -> Grid:
    if np.ndim(n_space) == 0:
        n_space = (int(n_space),) * geometry.dimension
    n_space = tuple(int(n) for n in n_space)
    if len(n_space) != geometry.dimension:
        raise GridError("need one resolution per spatial axis")
    if any(n < MIN_POINTS for n in n_space):
        raise GridError(f"grid needs at least {MIN_POINTS} points per axis")
    if int(np.prod(n_space)) > cap:
        raise GridError(f"grid of {int(np.prod(n_space))} unknowns exceeds cap {cap}")
    if n_t is None:
        n_t = max(n_space)
    if n_t < MIN_POINTS:
        raise GridError(f"need at least {MIN_POINTS} time steps per period")
    return Grid(geometry, n_space, int(n_t))


# --- coefficient sampling -----------------------------------------------------


def _faces(a, axis: int):
    """Face values of periodic vertex samples along one axis: the arithmetic
    mean of the endpoints, entry i for the face between points i and i+1."""
    return 0.5 * (a + np.roll(a, -1, axis=axis))


def _centred(v, h: float, axis: int):
    """Centred difference of periodic samples of spacing h along one axis."""
    return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2 * h)


class CoefficientSamples:
    """A, q and mu of one coefficient set sampled once on a grid.

    The samples are taken at the Crank-Nicolson levels t_m = m dt of one
    period (one level when the coefficients do not depend on time), at no
    other times, and stored as C-ordered stacks with the levels on the
    leading axis.  E_lam is a quadratic polynomial in lam, so `stencil`
    redoes only the lam algebra: a ray search samples its coefficients once,
    not once per eigensolve.
    """

    def __init__(self, coeffs: CoefficientSet, grid: Grid):
        coeffs.ellipticity()  # raises NonEllipticError for bad A
        N = grid.dimension
        mesh = grid.meshgrid()
        t = (np.arange(1 if coeffs.time_independent else grid.n_t) * grid.dt
             ).reshape((-1,) + (1,) * N)
        A, q = coeffs.A, coeffs.q
        self.coeffs, self.grid = coeffs, grid
        self.a_diag = [np.ascontiguousarray(A.eval_entry((d, d), t, *mesh))
                       for d in range(N)]
        self.a_faces = [_faces(a, 1 + d) for d, a in enumerate(self.a_diag)]
        self.a12 = None
        if N == 2:
            a12 = A.eval_entry((0, 1), t, *mesh)
            if np.any(a12):
                self.a12 = np.ascontiguousarray(a12)
        self.q = [np.ascontiguousarray(q.eval_entry(d, t, *mesh)) for d in range(N)]
        self.mu = np.ascontiguousarray(coeffs.mu(t, *mesh))
        self._doubled: CoefficientSamples | None = None

    @property
    def n_levels(self) -> int:
        return self.mu.shape[0]

    def doubled_in_time(self) -> "CoefficientSamples":
        """The samples at the period levels of the grid with 2 n_t steps,
        made on the first call."""
        if self._doubled is None:
            g = self.grid
            self._doubled = CoefficientSamples(self.coeffs,
                                               Grid(g.geometry, g.n_space, 2 * g.n_t))
        return self._doubled

    def mean_diffusion(self, e) -> float:
        """The mean of e.A.e over the samples."""
        e = np.asarray(e, dtype=float).reshape(-1)
        form = sum(e[d] ** 2 * a for d, a in enumerate(self.a_diag))
        if self.a12 is not None:
            form = form + 2.0 * e[0] * e[1] * self.a12
        return float(np.mean(form))

    def stencil(self, lam) -> list:
        """The terms of E_lam at the sampled levels, each (n_levels, *n_space),
        in `_pattern`'s order: per axis the coefficients on the neighbours
        i-1 and i+1 (`_axis_stencil` with b = 2 A lam - q), the diagonal with
        the zeroth-order term, and in 2D with A_12 the four mixed terms; in 1D
        the cyclic bands (dl, du, d) of `kernels`.  div(A lam) is the centered
        difference of the sampled A lam, whatever the representation of A.
        An inf or NaN term raises NonFiniteActionError, naming the cause.
        """
        grid = self.grid
        N = grid.dimension
        lam = np.asarray(lam, dtype=float).reshape(-1)
        if lam.size != N:
            raise ValueError("lambda must have one component per spatial dimension")
        # A lam at vertices, per axis
        alam = []
        for d in range(N):
            v = self.a_diag[d] * lam[d]
            if self.a12 is not None:
                v = v + self.a12 * lam[1 - d]
            alam.append(v)
        b = [2.0 * alam[d] - self.q[d] for d in range(N)]
        div_alam = sum(_centred(alam[d], grid.h[d], 1 + d) for d in range(N))
        lam_a_lam = sum(alam[d] * lam[d] for d in range(N))
        q_dot_lam = sum(self.q[d] * lam[d] for d in range(N))
        c0 = lam_a_lam + div_alam + self.mu - q_dot_lam
        terms, diag = [], 0.0
        for d in range(N):
            lower, upper, diag_d = _axis_stencil(self.a_faces[d], b[d], grid.h[d], axis=1 + d)
            terms += [lower, upper]
            diag = diag + diag_d
        terms.append(diag + c0)
        if self.a12 is not None:
            # d_x(a12 d_y .) + d_y(a12 d_x .), centered-of-centered (symmetric)
            s = 1.0 / (4 * grid.h[0] * grid.h[1])
            a_xp, a_xm = np.roll(self.a12, -1, axis=1), np.roll(self.a12, 1, axis=1)
            a_yp, a_ym = np.roll(self.a12, -1, axis=2), np.roll(self.a12, 1, axis=2)
            terms += [s * (a_xp + a_yp), -s * (a_xp + a_ym),
                      -s * (a_xm + a_yp), s * (a_xm + a_ym)]
        if not all(np.isfinite(t).all() for t in terms):
            named = {"A": self.a_diag + [self.a12], "q": self.q, "mu": [self.mu]}
            bad = [k for k, v in named.items() if not all(np.isfinite(a).all() for a in v
                                                          if a is not None)]
            raise NonFiniteActionError("E_lam entries must not contain infs or NaNs: " + (
                f"the samples of {', '.join(bad)} are not finite" if bad
                else f"lam = {lam.tolist()} is too large for these coefficients"))
        return terms


def sample(coeffs, grid: Grid) -> CoefficientSamples:
    """coeffs as `CoefficientSamples` at the period levels of grid: a
    `CoefficientSet` is sampled here, samples made on grid pass through."""
    if not isinstance(coeffs, CoefficientSamples):
        return CoefficientSamples(coeffs, grid)
    if coeffs.grid != grid:
        raise ValueError("samples of another grid")
    return coeffs


def _axis_stencil(af, b, h: float, axis: int = -1):
    """Coefficients on phi[i-1] and phi[i+1] and the diagonal part of
    (af d_x .)_x + b d_x . along one axis of spacing h.

    af[..., i] is the diffusion at the face between points i and i+1 along
    that axis; the neighbours wrap around periodically.
    """
    afm = np.roll(af, 1, axis=axis)  # af[i-1]
    h2 = h * h
    lower = afm / h2 - b / (2 * h)
    upper = af / h2 + b / (2 * h)
    return lower, upper, -(af + afm) / h2


@lru_cache(maxsize=8)
def _pattern(n_space: tuple, mixed: bool):
    """The CSC pattern that every level of E_lam shares on a grid of n_space
    points (in 2D with the mixed block when ``mixed``), made once per grid:
    the order that takes the `CoefficientSamples.stencil` terms (by term,
    then by row) to it, read-only ``indices``, ``indptr`` and diagonal positions."""
    idx = np.arange(int(np.prod(n_space))).reshape(n_space)
    cols = [np.roll(idx, s, axis=d) for d in range(len(n_space)) for s in (1, -1)] + [idx]
    if mixed:
        ixp, ixm = np.roll(idx, -1, axis=0), np.roll(idx, 1, axis=0)
        cols += [np.roll(ixp, -1, axis=1), np.roll(ixp, 1, axis=1),
                 np.roll(ixm, -1, axis=1), np.roll(ixm, 1, axis=1)]
    rows = np.tile(idx.ravel(), len(cols))
    indptr = np.arange(0, rows.size + 1, len(cols), dtype=np.int32)  # len(cols) per column
    cols = np.concatenate([c.ravel() for c in cols])
    order = np.lexsort((rows, cols))  # by column, then by row
    indices = rows[order].astype(np.int32)
    pattern = (order, indices, indptr, np.flatnonzero(indices == cols[order]))
    for a in pattern:
        a.flags.writeable = False
    return pattern


def _sparse_levels(terms: list, grid: Grid):
    """The `CoefficientSamples.stencil` terms of E_lam gathered onto the one
    CSC sparsity pattern that every level shares (`_pattern`), in any
    dimension.  Returns the entries (n_levels, nnz) on it, C-contiguous, its
    ``indices`` and ``indptr`` and the positions of the diagonal among the
    entries."""
    order, indices, indptr, diag = _pattern(grid.n_space, len(terms) > 2 * grid.dimension + 1)
    entries = np.stack(terms, axis=1).reshape(terms[0].shape[0], -1).take(order, axis=1)
    return entries, indices, indptr, diag


def _csr_matrix(sparse, lev: int) -> sp.csr_array:
    """E_lam at level lev of a `_sparse_levels` stack, a row of its entries,
    as a CSR matrix without stored zeros."""
    entries, indices, indptr, _ = sparse
    n = indptr.size - 1
    M = sp.csc_array((entries[lev], indices, indptr), shape=(n, n)).tocsr()
    M.eliminate_zeros()
    return M


def _cn_matrices(entries, indices, indptr, diag, half: float) -> list:
    """I - half E at every level of a `_sparse_levels` stack, as CSC
    matrices on its one pattern, each on an entry array of its own (scipy
    copies a row view of a larger array)."""
    lhs = [-half * e for e in entries]
    n = indptr.size - 1
    for e in lhs:
        e[diag] += 1.0
    return [sp.csc_array((e, indices, indptr), shape=(n, n)) for e in lhs]


# SuperLU settings of every sparse LU in this module.  relax=1 leaves the
# supernodes unrelaxed and panel_size=1 updates one column at a time
# (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20,
# 1999): the relaxed supernodes and wide panels of the defaults pay for
# dense blocks that these small stencil factors do not have.
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 1


def _splu(M, permc_spec: str = "MMD_AT_PLUS_A"):
    """Sparse LU of the CSC matrix M with the module's SuperLU settings,
    by default ordered by minimum degree on the structure of M + M^T
    (George & Liu, SIAM Review 31, 1989), which suits the structurally
    symmetric stencil matrices better than COLAMD."""
    return splu(M, permc_spec=permc_spec, relax=SUPERLU_RELAX,
                panel_size=SUPERLU_PANEL_SIZE)


class _OrderedLU:
    """Solves with a matrix M from the sparse LU of M[:, inv], its columns
    gathered into the order inv: M x = b is solved as x[inv] = y with
    M[:, inv] y = b, and M^T x = b as M[:, inv]^T x = b[inv]."""

    def __init__(self, lu, inv: np.ndarray):
        self._lu, self._inv = lu, inv

    def solve(self, b, trans: str = "N") -> np.ndarray:
        if trans == "T":
            return self._lu.solve(b[self._inv], "T")
        x = np.empty_like(b)
        x[self._inv] = self._lu.solve(b)
        return x


def _level_factors(mats: list) -> list:
    """Sparse LU of CSC matrices that share one sparsity pattern, with one
    column ordering for all of them.

    The ordering is that of an MMD_AT_PLUS_A factor of the first matrix:
    its ``perm_c`` depends only on the pattern and already holds SuperLU's
    elimination-tree postorder.  One index array gathers the columns of
    every matrix into that order, and each gathered matrix is factored in
    its NATURAL order, which scipy runs in SuperLU's symmetric mode, with
    no further postorder: the factor is that of the MMD ordering, and the
    ordering is not recomputed.
    """
    first = mats[0]
    n = first.shape[0]
    perm_c = _splu(first).perm_c
    inv = np.empty_like(perm_c)
    inv[perm_c] = np.arange(n)
    counts = np.diff(first.indptr)[inv]
    indptr = np.zeros_like(first.indptr)
    np.cumsum(counts, out=indptr[1:])
    gather = np.repeat(first.indptr[:-1][inv] - indptr[:-1], counts) + np.arange(indptr[-1])
    indices = first.indices[gather]
    return [_OrderedLU(_splu(sp.csc_array((M.data[gather], indices, indptr), shape=(n, n)),
                             "NATURAL"), inv) for M in mats]


def _csr_matvec(M, v, trans: str = "N") -> np.ndarray:
    """M @ v (trans='T': M.T @ v), the product form of kernels.cyclic_matvec."""
    return (M.T if trans == "T" else M) @ v


def assemble_action(coeffs: CoefficientSet | CoefficientSamples, lam,
                    grid: Grid) -> sp.csr_array:
    """E_lam at t = 0 as a CSR matrix; ``coeffs`` is a `CoefficientSet` or
    its samples on grid (`sample`).  Its transpose ``.T`` is the adjoint."""
    terms = sample(coeffs, grid).stencil(lam)
    return _csr_matrix(_sparse_levels([t[:1] for t in terms], grid), 0)


class SteadyAction:
    """E_lam of time-independent coefficients as inverse iteration uses it:
    products ``matvec(v, trans)`` with E_lam (trans='T': its transpose), the
    Gershgorin bound on the real parts of its spectrum, whether it is
    Metzler (no negative off-diagonal entry) and the factors of
    sigma I - E_lam for any shift sigma.

    1D runs on the cyclic tridiagonal bands (`kernels.cyclic_matvec`,
    `kernels.CyclicFactor`), other dimensions on a CSR matrix and sparse LU.
    """

    def __init__(self, samples: CoefficientSamples, lam):
        if samples.n_levels != 1:
            raise ValueError("a steady action needs samples at one time level")
        self.grid = grid = samples.grid
        self.lam = np.asarray(lam, dtype=float).reshape(-1)
        terms = samples.stencil(self.lam)
        self._bands = self._matrix = None
        if grid.dimension == 1:
            dl, du, d = (t[0] for t in terms)
            self._bands = (dl, d, du)
            self.matvec = partial(kernels.cyclic_matvec, kernels.band_storage(dl, d, du))
            rows = d + np.abs(dl) + np.abs(du)
            rows[0] = d[0] + abs(du[0]) + abs(dl[0])  # the corners dl[0], du[-1] last
            rows[-1] = d[-1] + abs(dl[-1]) + abs(du[-1])
            self.metzler = bool(dl.min() >= 0.0 and du.min() >= 0.0)
        else:
            M = self._matrix = _csr_matrix(_sparse_levels(terms, grid), 0)
            self.matvec = partial(_csr_matvec, M)
            diag = M.diagonal()
            rows = diag + np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(diag)
            off = M.data[M.indices != np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))]
            self.metzler = bool(np.all(off >= 0))
        self.gershgorin = float(np.max(rows))

    def factor(self, sigma: float):
        """Factors of sigma I - E_lam with ``.solve(b, trans)``."""
        if self._bands is not None:
            dl, d, du = self._bands
            return kernels.CyclicFactor(-dl, sigma - d, -du)
        M = self._matrix
        return _splu((sigma * sp.eye_array(M.shape[0], format="csc") - M).tocsc())


class ActionFamily:
    """E_lam sampled at the Crank-Nicolson time levels of one period.

    For each distinct level (one if the coefficients do not depend on time)
    it builds the factored matrix L_m = I - dt/2 E_m and the product with
    it, and runs the monodromy (one-period) map and its exact transpose
    through `kernels.cn_period`, whose right-hand matrix is 2I - L_m.  One
    stencil pass makes the terms of every level: 1D levels take them as
    bands to `kernels.cn_levels`, all factored in one LAPACK call; other
    dimensions from `_cn_matrices`, with sparse LU on one column ordering
    for all levels (`_level_factors`).  Every dimension takes the products
    with E_m from the entries of `_sparse_levels` (`actions`).  The grid and
    the levels are those of ``samples``, its `CoefficientSamples`.
    """

    def __init__(self, samples: CoefficientSamples, lam):
        self.grid = grid = samples.grid
        self.lam = np.asarray(lam, dtype=float).reshape(-1)
        self.time_independent = samples.n_levels == 1
        terms = samples.stencil(self.lam)
        half = 0.5 * grid.dt
        self._sparse = _sparse_levels(terms, grid)
        if grid.dimension == 1:
            lower, upper, diag = terms
            solves, products = kernels.cn_levels(lower, diag, upper, half)
        else:
            lhs = _cn_matrices(*self._sparse, half)
            solves = [lu.solve for lu in _level_factors(lhs)]
            products = [partial(_csr_matvec, M) for M in lhs]
        levels = [self._level(m) for m in range(grid.n_t + 1)]
        self._solves = [solves[lev] for lev in levels]
        self._products = [products[lev] for lev in levels]

    def _level(self, m: int) -> int:
        return 0 if self.time_independent else m % self.grid.n_t

    def matrix(self, m: int) -> sp.csr_array:
        """E_lam(t_m) as a CSR matrix."""
        return _csr_matrix(self._sparse, self._level(m))

    def actions(self, psi: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """E_lam(t_m) @ psi[m] (adjoint: E^T @ psi[m]) at every level
        m = 0..n_t-1 of psi (n_t, npoints), as one product with the
        block-diagonal matrix of the levels, which sums the terms of each
        entry in the order of a product with the level's own CSC matrix."""
        entries, indices, _, _ = self._sparse
        (n_t, n), nnz = psi.shape, indices.size
        E = sp.csc_array((np.broadcast_to(entries, (n_t, nnz)).ravel(),
                          (indices + n * np.arange(n_t, dtype=np.int32)[:, None]).ravel(),
                          np.arange(0, n_t * nnz + 1, nnz // n, dtype=np.int32)),
                         shape=(n_t * n, n_t * n))
        return ((E.T if adjoint else E) @ psi.ravel()).reshape(n_t, n)

    def step_period(self, phi0: np.ndarray, transpose: bool = False,
                    store_levels: bool = False):
        """Advance phi0 over one period (or apply the transposed map).

        Returns phi(T) (transpose: the pulled-back vector at t=0), or the
        whole (n_t+1, n) level stack when store_levels is set.
        """
        phi0 = np.asarray(phi0, dtype=float).reshape(-1)
        if phi0.size != self.grid.npoints:
            raise ValueError("initial grid function has wrong length")
        if not np.all(np.isfinite(phi0)):
            raise ValueError("initial grid function must be finite")
        levels = kernels.cn_period(self._solves, self._products, phi0, transpose=transpose)
        if store_levels:
            return levels
        return levels[0] if transpose else levels[-1]
