"""Self-adjoint Rayleigh characterizations and the homogenization cell problem.

Three pieces of machinery for time-independent coefficients:

* ``effective_diffusivity``: the cell problem
  minimize (1/|C|) integral_C (e + grad chi) A (e + grad chi) over periodic
  chi, solved through its Euler-Lagrange equation div(A(e + grad chi)) = 0
  with the symmetric face-flux discretization, so the reported value is the
  exact minimum of the discrete energy (hence bounded by gamma and Gamma and
  homogeneous of degree one in A, both exactly).

* ``k0_rayleigh``: smallest eigenvalue of the symmetric operator
  -div(A grad .) - V, delegated to ARPACK (shift-invert Lanczos).  It is the
  library-backed twin of the hand-rolled inverse-iteration route, kept as an
  independent cross-check.

* ``rayleigh_upper_bound`` / ``compjlambda_lower_bound``: certified one-sided
  bounds on k; the upper bound evaluates, for one admissible test profile
  alpha, the quantity
      integral kappa grad(alpha) A grad(alpha) - integral mu alpha^2
      - lambda^2 kappa |C| D_e(alpha^2 A),
  whose minimum over alpha is k_{lambda e}(kappa A, 0, mu); the lower bound
  is k_0(A, 0, div(q)/2 + lam.A.lam - lam.q + mu), which eliminates the
  drift after one integration by parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

from .fields import (CoefficientSet, FieldError, PeriodicField)
from .operators import Grid, assemble_action

__all__ = ["CellProblemResult", "effective_diffusivity", "k0_rayleigh",
           "rayleigh_upper_bound", "compjlambda_lower_bound"]

MIN_ALPHA = 1e-8


@dataclass
class CellProblemResult:
    chi: np.ndarray      # zero-mean periodic corrector on the grid
    d_effective: float
    direction: np.ndarray


def _diagonal_entries(A: PeriodicField, grid: Grid):
    """Vertex samples of the diagonal entries; rejects mixed entries."""
    if A.kind != "matrix":
        raise FieldError("effective diffusivity needs a matrix field")
    if not A.time_independent:
        raise FieldError("cell problem requires a time-independent matrix field")
    mesh = grid.meshgrid()
    N = grid.dimension
    if N == 2:
        a12 = np.asarray(A.eval_entry((0, 1), 0.0, *mesh), dtype=float)
        if np.any(a12):
            raise NotImplementedError("cell problem implemented for diagonal A only")
    out = []
    for d in range(N):
        vals = np.asarray(A.eval_entry((d, d), 0.0, *mesh), dtype=float)
        out.append(np.broadcast_to(vals, mesh[0].shape).copy())
    return out


def effective_diffusivity(A: PeriodicField, e, grid: Grid) -> CellProblemResult:
    """Effective diffusivity D_e(A) and its zero-mean corrector."""
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size != grid.dimension or not np.isfinite(e).all():
        raise ValueError("direction must be a spatial vector")
    nrm = np.linalg.norm(e)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    e = e / nrm
    a_diag = _diagonal_entries(A, grid)
    faces = [0.5 * (a + np.roll(a, -1, axis=d)) for d, a in enumerate(a_diag)]
    h = grid.h

    # Euler-Lagrange: K chi = -div(A e) with the same face fluxes as K
    zero = CoefficientSet(A,
                          PeriodicField.vector([0.0] * grid.dimension, A.geometry),
                          PeriodicField.scalar(0.0, A.geometry), A.geometry)
    K = assemble_action(zero, [0.0] * grid.dimension, grid).matrix
    rhs = np.zeros(grid.n_space)
    for d in range(grid.dimension):
        rhs -= (faces[d] - np.roll(faces[d], 1, axis=d)) * (e[d] / h[d])
    rhs = rhs.reshape(-1)

    # K is singular on constants; pin one value (rhs is orthogonal to the
    # null space by periodic telescoping, so this recovers the exact
    # minimizer up to the additive constant)
    n = K.shape[0]
    keep = np.arange(1, n)
    Kred = K[keep][:, keep].tocsc()
    chi = np.zeros(n)
    chi[1:] = splu(Kred).solve(rhs[keep])
    chi -= chi.mean()
    grad_sq_energy = 0.0
    chi_grid = chi.reshape(grid.n_space)
    for d in range(grid.dimension):
        slope = e[d] + (np.roll(chi_grid, -1, axis=d) - chi_grid) / h[d]
        grad_sq_energy += float(np.sum(faces[d] * slope**2))
    d_eff = grad_sq_energy * grid.cell_measure() / grid.geometry.cell_volume
    return CellProblemResult(chi, d_eff, e)


def k0_rayleigh(A: PeriodicField, V, grid: Grid) -> float:
    """Smallest eigenvalue of -div(A grad .) - V (ARPACK shift-invert).

    Agrees with principal_eigen_steady(A, q=0, mu=V, lam=0) to solver
    accuracy; kept as an independent symmetric route.
    """
    geometry = A.geometry
    if isinstance(V, PeriodicField):
        v_vals = np.asarray(V(0.0, *grid.meshgrid()), dtype=float)
        v_vals = np.broadcast_to(v_vals, grid.n_space).reshape(-1)
    else:
        v_vals = np.asarray(V, dtype=float).reshape(-1)
        if v_vals.size == 1:
            v_vals = np.full(grid.npoints, float(v_vals[0]))
    zero = CoefficientSet(A, PeriodicField.vector([0.0] * grid.dimension, geometry),
                          PeriodicField.scalar(0.0, geometry), geometry)
    K = assemble_action(zero, [0.0] * grid.dimension, grid).matrix
    M = (-K - sp.diags_array(v_vals)).tocsc()
    sigma = -float(np.max(v_vals)) - 1.0  # strictly below the spectrum
    # a fixed start vector: ARPACK's own is random, and so would be the digits
    vals = eigsh(M, k=1, sigma=sigma, which="LM", v0=np.ones(grid.npoints),
                 return_eigenvectors=False, tol=1e-12)
    return float(vals[0])


def _as_alpha_field(alpha, geometry, grid: Grid) -> PeriodicField:
    if isinstance(alpha, PeriodicField):
        return alpha
    vals = np.asarray(alpha, dtype=float).reshape(grid.n_space)
    return PeriodicField.tabulated(vals, geometry)


def rayleigh_upper_bound(A: PeriodicField, mu: PeriodicField, kappa: float,
                         lam: float, e, alpha, grid: Grid) -> float:
    """Upper bound for k_{lambda e}(kappa A, 0, mu) from one test profile.

    alpha may be a positive scalar PeriodicField or grid values; it is
    renormalized so the discrete integral of alpha^2 over C is 1.
    """
    geometry = A.geometry
    alpha_field = _as_alpha_field(alpha, geometry, grid)
    mesh = grid.meshgrid()
    a_vals = np.broadcast_to(np.asarray(alpha_field(0.0, *mesh), dtype=float),
                             grid.n_space).copy()
    if np.min(a_vals) <= 0:
        raise ValueError("test profile alpha must be strictly positive")
    scale = np.sqrt(grid.integrate(a_vals**2))
    a_vals = a_vals / scale
    if np.min(a_vals) < MIN_ALPHA:
        raise ValueError(f"alpha dips below the admissibility floor {MIN_ALPHA}")

    grads = [(np.roll(a_vals, -1, axis=d) - np.roll(a_vals, 1, axis=d)) / (2 * grid.h[d])
             for d in range(grid.dimension)]

    a_diag = _diagonal_entries(A, grid)
    mu_vals = np.broadcast_to(np.asarray(mu(0.0, *mesh), dtype=float), grid.n_space)
    dirichlet = kappa * grid.integrate(
        sum(a_diag[d] * grads[d] ** 2 for d in range(grid.dimension)))
    growth = grid.integrate(mu_vals * a_vals**2)

    alpha_sq = PeriodicField.tabulated(a_vals**2, geometry)
    N = grid.dimension

    def weighted(i, j):
        def fn(t, *x):
            return alpha_sq(t, *x) * A.eval_entry((i, j), t, *x)
        return fn

    weighted_A = PeriodicField.matrix([[weighted(i, j) for j in range(N)] for i in range(N)],
                                      geometry, time_independent=True,
                                      space_independent=False, check_flags=False)
    d_eff = effective_diffusivity(weighted_A, e, grid).d_effective
    return float(dirichlet - growth
                 - lam**2 * kappa * grid.geometry.cell_volume * d_eff)


def compjlambda_lower_bound(coeffs: CoefficientSet, lam, grid: Grid) -> float:
    """Drift-elimination lower bound
    k_lam(A, q, mu) >= k_0(A, 0, div(q)/2 + lam.A.lam - lam.q + mu)."""
    if not coeffs.time_independent:
        raise FieldError("the drift-elimination bound needs time-independent coefficients")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    mesh = grid.meshgrid()
    N = grid.dimension

    q_comp = [np.broadcast_to(np.asarray(coeffs.q.eval_entry(d, 0.0, *mesh), dtype=float),
                              grid.n_space) for d in range(N)]
    div_q = sum((np.roll(qd, -1, axis=d) - np.roll(qd, 1, axis=d)) / (2 * grid.h[d])
                for d, qd in enumerate(q_comp))
    lam_a_lam = np.zeros(grid.n_space)
    for i in range(N):
        for j in range(N):
            if lam[i] == 0.0 or lam[j] == 0.0:
                continue
            a = np.broadcast_to(np.asarray(coeffs.A.eval_entry((i, j), 0.0, *mesh),
                                           dtype=float), grid.n_space)
            lam_a_lam = lam_a_lam + lam[i] * a * lam[j]
    q_lam = sum(lam[d] * q_comp[d] for d in range(N) if lam[d] != 0.0)
    mu_vals = np.broadcast_to(np.asarray(coeffs.mu(0.0, *mesh), dtype=float), grid.n_space)
    potential = 0.5 * div_q + lam_a_lam - q_lam + mu_vals
    return k0_rayleigh(coeffs.A, potential.reshape(-1), grid)
