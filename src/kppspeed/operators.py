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
(expression, callable, constant or table), so the same coefficients give the
same discrete operator.

The adjoint action is the exact matrix transpose; term by term that is the
divergence-form advection -div((2 A lam - q) .) with the same diagonal, i.e.
the adjoint operator with its zeroth-order term -div(A lam)+lam.A.lam-q.lam+mu
after expanding the products.

The stencil along each axis is written once (`_axis_stencil`); the 1D
cyclic tridiagonal bands and the CSR matrix of every dimension are built from
it, and the 2D mixed-derivative block of A_12 is the only part specific to
2D.  The face average (`_faces`) and the centred difference (`_centred`) of
sampled coefficients are written once as well; the simulator and the
variational routines use them too.

Time stepping over one period is Crank-Nicolson,

    (I - dt/2 E_{m+1}) phi^{m+1} = (I + dt/2 E_m) phi^m,

run by the one sweep `kernels.cn_period` in every dimension.  Only the linear
algebra of a level depends on the dimension: 1D uses LAPACK cyclic
tridiagonal factors and band products (see :mod:`kppspeed.kernels`), 2D
sparse LU and CSR products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import kernels
from .fields import CellGeometry, CoefficientSet

__all__ = ["Grid", "GridError", "build_grid", "LinearAction",
           "assemble_action", "ActionFamily", "step_period"]

DEFAULT_CAP = 2**20
MIN_POINTS = 8


class GridError(ValueError):
    pass


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

    def times(self) -> np.ndarray:
        """Time levels t_0..t_{n_t}; coefficients are sampled at t_m mod T."""
        return np.arange(self.n_t + 1) * self.dt

    def cell_measure(self) -> float:
        return float(np.prod(self.h))

    def integrate(self, v: np.ndarray) -> float:
        """Cell integral of a grid function (periodic trapezoid = rectangle)."""
        return float(np.sum(v) * self.cell_measure())


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


def _stencil_arrays(coeffs: CoefficientSet, lam: np.ndarray, grid: Grid,
                    times) -> dict:
    """Stencil arrays of E_lam at the given time levels, stacked on a leading
    axis and evaluated in one vectorized pass.

    div(A lam) is the centered difference of the sampled A lam, whatever the
    representation of A.
    """
    N = grid.dimension
    if lam.size != N:
        raise ValueError("lambda must have one component per spatial dimension")
    mesh = grid.meshgrid()
    t = np.asarray(times, dtype=float).reshape((-1,) + (1,) * N)
    A, q, mu = coeffs.A, coeffs.q, coeffs.mu
    a_diag = [A.eval_entry((d, d), t, *mesh) for d in range(N)]
    a_faces = [_faces(a, 1 + d) for d, a in enumerate(a_diag)]
    a12 = None
    if N == 2:
        a12 = A.eval_entry((0, 1), t, *mesh)
        if not np.any(a12):
            a12 = None
    q_comp = [q.eval_entry(d, t, *mesh) for d in range(N)]
    # A lam at vertices, per axis
    alam = []
    for d in range(N):
        v = a_diag[d] * lam[d]
        if N == 2 and a12 is not None:
            v = v + a12 * lam[1 - d]
        alam.append(v)
    b = [2.0 * alam[d] - q_comp[d] for d in range(N)]
    div_alam = sum(_centred(alam[d], grid.h[d], 1 + d) for d in range(N))
    lam_a_lam = sum(alam[d] * lam[d] for d in range(N))
    q_dot_lam = sum(q_comp[d] * lam[d] for d in range(N))
    c0 = lam_a_lam + div_alam + mu(t, *mesh) - q_dot_lam
    return {"a_faces": a_faces, "a12": a12, "b": b, "c0": c0}


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


def _bands_1d(af, b, c0v, h: float):
    """Cyclic tridiagonal bands (dl, d, du, c0, c1) of the 1D action
    (af d_x .)_x + b d_x . + c0v on a ring of spacing h.

    Arrays stacked over time levels on a leading axis give bands and corners
    stacked the same way.
    """
    dl, du, diag = _axis_stencil(af, b, h)
    corner0 = dl[..., 0].copy()   # row 0, col n-1
    corner1 = du[..., -1].copy()  # row n-1, col 0
    dl[..., 0] = 0.0
    du[..., -1] = 0.0
    return dl, diag + c0v, du, corner0, corner1


def _csr_matrix(stacked: dict, lev: int, grid: Grid) -> sp.csr_array:
    """E_lam at level lev of a stack from `_stencil_arrays` as a CSR matrix, in
    any dimension: the axis stencils, the zeroth-order diagonal and, in 2D,
    the mixed a12 block."""
    idx = np.arange(grid.npoints).reshape(grid.n_space)
    cols, data = [], []
    diag = 0.0
    for d, (af, b, h) in enumerate(zip(stacked["a_faces"], stacked["b"], grid.h)):
        lower, upper, diag_d = _axis_stencil(af[lev], b[lev], h, axis=d)
        cols += [np.roll(idx, 1, axis=d), np.roll(idx, -1, axis=d)]
        data += [lower, upper]
        diag = diag + diag_d
    cols.append(idx)
    data.append(diag + stacked["c0"][lev])
    if stacked["a12"] is not None:
        a12 = stacked["a12"][lev]
        # d_x(a12 d_y .) + d_y(a12 d_x .), centered-of-centered (symmetric)
        s = 1.0 / (4 * grid.h[0] * grid.h[1])
        a_xp, a_xm = np.roll(a12, -1, axis=0), np.roll(a12, 1, axis=0)
        a_yp, a_ym = np.roll(a12, -1, axis=1), np.roll(a12, 1, axis=1)
        ixp, ixm = np.roll(idx, -1, axis=0), np.roll(idx, 1, axis=0)
        cols += [np.roll(ixp, -1, axis=1), np.roll(ixp, 1, axis=1),
                 np.roll(ixm, -1, axis=1), np.roll(ixm, 1, axis=1)]
        data += [s * (a_xp + a_yp), -s * (a_xp + a_ym),
                 -s * (a_xm + a_yp), s * (a_xm + a_ym)]
    rows = np.tile(idx.ravel(), len(cols))
    M = sp.csr_array((np.concatenate([v.ravel() for v in data]),
                      (rows, np.concatenate([c.ravel() for c in cols]))),
                     shape=(grid.npoints, grid.npoints))
    M.eliminate_zeros()
    return M


def _csr_matvec(M, v, trans: str = "N") -> np.ndarray:
    """M @ v (trans='T': M.T @ v), the product form of kernels.cyclic_matvec."""
    return (M.T if trans == "T" else M) @ v


@dataclass
class LinearAction:
    """The assembled action of E_lam (or its adjoint) at one time level."""

    matrix: sp.csr_array
    grid: Grid
    lam: np.ndarray
    adjoint: bool
    t: float

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def gershgorin_upper(self) -> float:
        """Provable upper bound on the real parts of the spectrum."""
        M = self.matrix
        abs_sum = np.asarray(abs(M).sum(axis=1)).ravel()
        diag = M.diagonal()
        return float(np.max(diag + abs_sum - np.abs(diag)))


def assemble_action(coeffs: CoefficientSet, lam, grid: Grid,
                    adjoint: bool = False, t: float = 0.0) -> LinearAction:
    """Assemble E_lam (adjoint: its exact transpose) at time level t."""
    coeffs.ellipticity()  # raises NonEllipticError for bad A
    lam = np.asarray(lam, dtype=float).reshape(-1)
    M = _csr_matrix(_stencil_arrays(coeffs, lam, grid, [t]), 0, grid)
    if adjoint:
        M = M.T.tocsr()
    return LinearAction(M, grid, lam, adjoint, t)


class ActionFamily:
    """E_lam sampled at the Crank-Nicolson time levels of one period.

    For each distinct level (one if the coefficients do not depend on time)
    it builds the product with E, the factored left-hand matrix I - dt/2 E
    and the product with the right-hand matrix I + dt/2 E, and runs the
    monodromy (one-period) map and its exact transpose through
    `kernels.cn_period`.  1D levels come from `kernels.cn_levels`; other
    dimensions use sparse LU and CSR products.
    """

    def __init__(self, coeffs: CoefficientSet, lam, grid: Grid):
        self.coeffs = coeffs
        self.grid = grid
        self.lam = np.asarray(lam, dtype=float).reshape(-1)
        self.time_independent = coeffs.time_independent
        n_levels = 1 if self.time_independent else grid.n_t
        self._stacked = _stencil_arrays(coeffs, self.lam, grid,
                                        np.arange(n_levels) * grid.dt)
        half = 0.5 * grid.dt
        if grid.dimension == 1:
            bands = _bands_1d(self._stacked["a_faces"][0], self._stacked["b"][0],
                              self._stacked["c0"], grid.h[0])
            action = kernels.band_products(*bands)
            lhs, rhs = kernels.cn_levels(*bands, half)
        else:
            mats = [self.matrix(lev) for lev in range(n_levels)]
            eye = sp.eye_array(grid.npoints, format="csr")
            action = [partial(_csr_matvec, M) for M in mats]
            lhs = [splu((eye - half * M).tocsc()) for M in mats]
            rhs = [partial(_csr_matvec, eye + half * M) for M in mats]
        self._action = action
        levels = [self._level(m) for m in range(grid.n_t + 1)]
        self._lhs = [lhs[lev] for lev in levels]
        self._rhs = [rhs[lev] for lev in levels]

    def _level(self, m: int) -> int:
        return 0 if self.time_independent else m % self.grid.n_t

    def matrix(self, m: int) -> sp.csr_array:
        """E_lam(t_m) as a CSR matrix."""
        return _csr_matrix(self._stacked, self._level(m), self.grid)

    def apply_action(self, m: int, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """E_lam(t_m) @ v (adjoint: E^T @ v)."""
        return self._action[self._level(m)](np.asarray(v, dtype=float),
                                            "T" if adjoint else "N")

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
        levels = kernels.cn_period(self._lhs, self._rhs, phi0, transpose=transpose)
        if store_levels:
            return levels
        return levels[0] if transpose else levels[-1]


def step_period(family: ActionFamily, phi0: np.ndarray, *, transpose: bool = False,
                store_levels: bool = False):
    """Crank-Nicolson stepping of d_t phi = E_lam(t) phi from t=0 to t=T."""
    return family.step_period(phi0, transpose=transpose, store_levels=store_levels)
