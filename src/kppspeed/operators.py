"""Discretization of the periodicity cell and the lambda-shifted operator.

The evolution operator acting on grid functions is

    E_lam phi = div(A grad phi) + 2 lam.A grad phi - q.grad phi
                + (lam.A.lam + div(A lam) + mu - q.lam) phi,

so that the eigenproblem reads  d_t phi = E_lam phi + k phi  for the periodic
eigenfunction.  Spatial discretization is second-order centered finite
differences on a uniform periodic grid: the divergence-form diffusion uses
flux differences with A at cell faces (arithmetic mean of the endpoint
values), first-order terms are centered, and div(A lam) is taken from the
symbolic derivatives of the coefficient expressions when available (centered
differences otherwise).

The adjoint action is the exact matrix transpose; term by term that is the
divergence-form advection -div((2 A lam - q) .) with the same diagonal, i.e.
the adjoint operator with its zeroth-order term -div(A lam)+lam.A.lam-q.lam+mu
after expanding the products.

Time stepping over one period is Crank-Nicolson,

    (I - dt/2 E_{m+1}) phi^{m+1} = (I + dt/2 E_m) phi^m,

with the per-level systems solved by prefactored direct solvers (1D: LAPACK
cyclic-tridiagonal factors, see :mod:`kppspeed.kernels`; 2D: sparse LU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import kernels
from .fields import CellGeometry, CoefficientSet, _ConstantEntry

__all__ = ["Grid", "GridError", "GridFunction", "build_grid", "LinearAction",
           "assemble_action", "ActionFamily", "step_period"]

DEFAULT_CAP = 2**20
MIN_POINTS = 8

# A grid function is a flat float array over the space grid at one time level
# (length = prod n_i, validated by the consumers); Floquet machinery stacks
# them as (n_t, npoints).
GridFunction = np.ndarray


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


class _CoefficientSampler:
    """Samples the arrays the stencils need, stacked over time levels."""

    def __init__(self, coeffs: CoefficientSet, lam, grid: Grid):
        self.coeffs = coeffs
        self.grid = grid
        self.lam = np.asarray(lam, dtype=float).reshape(-1)
        if self.lam.size != grid.dimension:
            raise ValueError("lambda must have one component per spatial dimension")
        self.mesh = grid.meshgrid()
        self._div_alam_exprs = self._symbolic_div_alam()

    def _symbolic_div_alam(self):
        """d_d of (A lam)_d summed over d, as expressions, when available."""
        N = self.grid.dimension
        xvars = ["x", "y"][:N]
        terms = []
        for d in range(N):
            for j in range(N):
                if self.lam[j] == 0.0:
                    continue
                expr = self.coeffs.A.entry_expression(d, j)
                entry = self.coeffs.A.entries[d][j]
                if isinstance(entry, _ConstantEntry):  # differentiates to zero
                    continue
                if expr is None:
                    return None
                terms.append((self.lam[j], expr.differentiate(xvars[d])))
        return terms

    def arrays_batch(self, times: np.ndarray) -> dict:
        """Stencil arrays of all time levels, stacked on a leading axis and
        evaluated in one vectorized pass."""
        grid, lam = self.grid, self.lam
        N = grid.dimension
        t = np.asarray(times, dtype=float).reshape((-1,) + (1,) * N)
        shape = np.broadcast_shapes(np.shape(t), self.mesh[0].shape)
        A, q, mu = self.coeffs.A, self.coeffs.q, self.coeffs.mu

        def ev(field, index):
            vals = field.eval_entry(index, t, *self.mesh)
            return np.broadcast_to(np.asarray(vals, dtype=float), shape).copy()

        a_diag = [ev(A, (d, d)) for d in range(N)]
        a_faces = [0.5 * (a + np.roll(a, -1, axis=1 + d)) for d, a in enumerate(a_diag)]
        a12 = None
        if N == 2:
            a12 = ev(A, (0, 1))
            if not np.any(a12):
                a12 = None
        q_comp = [ev(q, d) for d in range(N)]
        # A lam at vertices, per axis
        alam = []
        for d in range(N):
            v = a_diag[d] * lam[d]
            if N == 2 and a12 is not None:
                v = v + a12 * lam[1 - d]
            alam.append(v)
        b = [2.0 * alam[d] - q_comp[d] for d in range(N)]
        if self._div_alam_exprs is not None:
            div_alam = np.zeros(shape)
            wrapped_t = np.mod(t, grid.geometry.period)
            wrapped = [np.mod(m, L) for m, L in zip(self.mesh, grid.geometry.lengths)]
            for coef, expr in self._div_alam_exprs:
                y = wrapped[1] if N > 1 else 0.0
                div_alam = div_alam + coef * expr(t=wrapped_t, x=wrapped[0], y=y)
        else:
            h = grid.h
            div_alam = sum(
                (np.roll(alam[d], -1, axis=1 + d) - np.roll(alam[d], 1, axis=1 + d))
                / (2 * h[d])
                for d in range(N))
        lam_a_lam = sum(alam[d] * lam[d] for d in range(N))
        q_dot_lam = sum(q_comp[d] * lam[d] for d in range(N))
        c0 = lam_a_lam + div_alam + ev(mu, None) - q_dot_lam
        return {"a_faces": a_faces, "a12": a12, "b": b, "c0": c0}


def _bands_1d(af, b, c0v, h: float, adjoint: bool):
    """Cyclic tridiagonal bands (dl, d, du, c0, c1) of the 1D action
    (af d_x .)_x + b d_x . + c0v on a ring of spacing h.

    af[..., i] is the diffusion at the face between points i and i+1.
    Arrays stacked over time levels on a leading axis give bands and corners
    stacked the same way.
    """
    afm = np.roll(af, 1, axis=-1)  # af[..., i-1]
    h2 = h * h
    diag = -(af + afm) / h2 + c0v
    if not adjoint:
        dl = afm / h2 - b / (2 * h)
        du = af / h2 + b / (2 * h)
        corner0 = afm[..., 0] / h2 - b[..., 0] / (2 * h)     # row 0, col n-1
        corner1 = af[..., -1] / h2 + b[..., -1] / (2 * h)    # row n-1, col 0
    else:
        bm = np.roll(b, 1, axis=-1)
        bp = np.roll(b, -1, axis=-1)
        dl = afm / h2 + bm / (2 * h)
        du = af / h2 - bp / (2 * h)
        corner0 = afm[..., 0] / h2 + b[..., -1] / (2 * h)
        corner1 = af[..., -1] / h2 - b[..., 0] / (2 * h)
    dl[..., 0] = 0.0
    du[..., -1] = 0.0
    return dl, diag, du, corner0, corner1


def _bands_1d_of(arrs, grid: Grid, adjoint: bool):
    """_bands_1d of sampled stencil arrays (one level or stacked)."""
    return _bands_1d(arrs["a_faces"][0], arrs["b"][0], arrs["c0"], grid.h[0], adjoint)


def _level_arrays(stacked: dict, lev: int) -> dict:
    """Stencil arrays of level lev of a stack from `arrays_batch`."""
    return {"a_faces": [a[lev] for a in stacked["a_faces"]],
            "a12": None if stacked["a12"] is None else stacked["a12"][lev],
            "b": [b[lev] for b in stacked["b"]],
            "c0": stacked["c0"][lev]}


def _bands_to_csr(bands, n):
    dl, d, du, c0, c1 = bands
    i = np.arange(n)
    rows = np.concatenate([i[1:], i, i[:-1], [0, n - 1]])
    cols = np.concatenate([i[:-1], i, i[1:], [n - 1, 0]])
    data = np.concatenate([dl[1:], d, du[:-1], [c0, c1]])
    M = sp.csr_array((data, (rows, cols)), shape=(n, n))
    M.eliminate_zeros()
    return M


def _matrix_2d(arrs, grid: Grid):
    n1, n2 = grid.n_space
    h1, h2 = grid.h
    af1, af2 = arrs["a_faces"]
    b1, b2 = arrs["b"]
    c0v = arrs["c0"]
    a12 = arrs["a12"]
    idx = np.arange(n1 * n2).reshape(n1, n2)
    ixp = np.roll(idx, -1, axis=0)
    ixm = np.roll(idx, 1, axis=0)
    iyp = np.roll(idx, -1, axis=1)
    iym = np.roll(idx, 1, axis=1)
    af1m = np.roll(af1, 1, axis=0)
    af2m = np.roll(af2, 1, axis=1)

    rows, cols, data = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        data.append(v.ravel())

    add(idx, ixp, af1 / h1**2 + b1 / (2 * h1))
    add(idx, ixm, af1m / h1**2 - b1 / (2 * h1))
    add(idx, iyp, af2 / h2**2 + b2 / (2 * h2))
    add(idx, iym, af2m / h2**2 - b2 / (2 * h2))
    add(idx, idx, -(af1 + af1m) / h1**2 - (af2 + af2m) / h2**2 + c0v)
    if a12 is not None:
        # d_x(a12 d_y .) + d_y(a12 d_x .), centered-of-centered (symmetric)
        s = 1.0 / (4 * h1 * h2)
        a_xp = np.roll(a12, -1, axis=0)
        a_xm = np.roll(a12, 1, axis=0)
        a_yp = np.roll(a12, -1, axis=1)
        a_ym = np.roll(a12, 1, axis=1)
        ipp = np.roll(ixp, -1, axis=1)
        ipm = np.roll(ixp, 1, axis=1)
        imp = np.roll(ixm, -1, axis=1)
        imm = np.roll(ixm, 1, axis=1)
        add(idx, ipp, s * (a_xp + a_yp))
        add(idx, ipm, -s * (a_xp + a_ym))
        add(idx, imp, -s * (a_xm + a_yp))
        add(idx, imm, s * (a_xm + a_ym))
    M = sp.coo_array((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(n1 * n2, n1 * n2))
    return M.tocsr()


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
    sampler = _CoefficientSampler(coeffs, lam, grid)
    arrs = _level_arrays(sampler.arrays_batch([t]), 0)
    if grid.dimension == 1:
        M = _bands_to_csr(_bands_1d_of(arrs, grid, adjoint), grid.n_space[0])
    else:
        M = _matrix_2d(arrs, grid)
        if adjoint:
            M = M.T.tocsr()
    return LinearAction(M, grid, sampler.lam, adjoint, t)


class ActionFamily:
    """E_lam sampled at the Crank-Nicolson time levels of one period.

    Provides the monodromy (one-period) map and its exact transpose.  1D
    periods run through the prefactored cyclic-tridiagonal kernels; the
    general path drives prefactored sparse LU solves per level.
    """

    def __init__(self, coeffs: CoefficientSet, lam, grid: Grid):
        self.coeffs = coeffs
        self.grid = grid
        self.sampler = _CoefficientSampler(coeffs, lam, grid)
        self.lam = self.sampler.lam
        self.time_independent = coeffs.time_independent
        n_levels = 1 if self.time_independent else grid.n_t
        times = np.arange(n_levels) * grid.dt
        self._stacked = self.sampler.arrays_batch(times)
        self._matrices: dict[int, sp.csr_array] = {}
        self._is_1d = grid.dimension == 1
        if self._is_1d:
            self._build_bands()
        else:
            self._lu: dict[int, object] = {}
            self._rhs_cache: dict[int, sp.csr_array] = {}

    def _level(self, m: int) -> int:
        return 0 if self.time_independent else m % self.grid.n_t

    def matrix(self, m: int) -> sp.csr_array:
        lev = self._level(m)
        if lev not in self._matrices:
            arrs = _level_arrays(self._stacked, lev)
            if self._is_1d:
                M = _bands_to_csr(_bands_1d_of(arrs, self.grid, False),
                                  self.grid.n_space[0])
            else:
                M = _matrix_2d(arrs, self.grid)
            self._matrices[lev] = M
        return self._matrices[lev]

    # -- 1D path

    def _build_bands(self):
        """Band storage of E and of the right-hand matrices, and the factored
        left-hand matrices, once per distinct level (one if time-independent)."""
        half = 0.5 * self.grid.dt
        el, ed, eu, ec0, ec1 = _bands_1d_of(self._stacked, self.grid, False)
        self._action_bands = list(zip(kernels.band_storage(el, ed, eu),
                                      ec0.tolist(), ec1.tolist()))
        lhs = [kernels.CyclicFactor(*bands) for bands in zip(
            -half * el, 1.0 - half * ed, -half * eu, (-half * ec0).tolist(),
            (-half * ec1).tolist())]
        rhs = list(zip(kernels.band_storage(half * el, 1.0 + half * ed, half * eu),
                       (half * ec0).tolist(), (half * ec1).tolist()))
        levels = [self._level(m) for m in range(self.grid.n_t + 1)]
        self._lhs = [lhs[lev] for lev in levels]
        self._rhs = [rhs[lev] for lev in levels]

    def apply_action(self, m: int, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """E_lam(t_m) @ v (adjoint: E^T @ v), without forming a sparse matrix in 1D."""
        if self._is_1d:
            return kernels.cyclic_matvec(*self._action_bands[self._level(m)],
                                         np.asarray(v, dtype=float),
                                         trans="T" if adjoint else "N")
        M = self.matrix(m)
        return (M.T @ v) if adjoint else (M @ v)

    # -- generic path

    def _lu_factor(self, m: int):
        lev = self._level(m)
        if lev not in self._lu:
            M = self.matrix(lev)
            eye = sp.eye_array(M.shape[0], format="csc")
            self._lu[lev] = splu((eye - 0.5 * self.grid.dt * M).tocsc())
        return self._lu[lev]

    def _rhs_matrix(self, m: int):
        lev = self._level(m)
        if lev not in self._rhs_cache:
            M = self.matrix(lev)
            self._rhs_cache[lev] = (sp.eye_array(M.shape[0], format="csr")
                                    + 0.5 * self.grid.dt * M)
        return self._rhs_cache[lev]

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
        n_t = self.grid.n_t
        if self._is_1d:
            levels = kernels.cn_period(self._lhs, self._rhs, phi0, transpose=transpose)
        else:
            levels = np.empty((n_t + 1, self.grid.npoints))
            if not transpose:
                levels[0] = phi0
                for m in range(n_t):
                    w = self._rhs_matrix(m) @ levels[m]
                    levels[m + 1] = self._lu_factor(m + 1).solve(w)
            else:
                levels[n_t] = phi0
                for m in range(n_t - 1, -1, -1):
                    z = self._lu_factor(m + 1).solve(levels[m + 1], trans="T")
                    levels[m] = self._rhs_matrix(m).T @ z
        if store_levels:
            return levels
        return levels[0] if transpose else levels[n_t]


def step_period(family: ActionFamily, phi0: np.ndarray, *, transpose: bool = False,
                store_levels: bool = False):
    """Crank-Nicolson stepping of d_t phi = E_lam(t) phi from t=0 to t=T."""
    return family.step_period(phi0, transpose=transpose, store_levels=store_levels)
