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

from .fields import CoefficientSet, FieldError, PeriodicField, ellipticity_bounds
from .operators import Grid, _centred, _csr_matrix, _faces, assemble_action

__all__ = ["CellProblemResult", "effective_diffusivity", "k0_rayleigh",
           "rayleigh_upper_bound", "compjlambda_lower_bound"]

MIN_ALPHA = 1e-8


@dataclass
class CellProblemResult:
    chi: np.ndarray      # zero-mean periodic corrector on the grid
    d_effective: float
    direction: np.ndarray


def _diagonal_entries(A: PeriodicField, grid: Grid):
    """Vertex samples of the diagonal entries of a time-independent,
    symmetric, uniformly elliptic A; rejects mixed entries."""
    if A.kind != "matrix":
        raise FieldError("effective diffusivity needs a matrix field")
    if not A.time_independent:
        raise FieldError("cell problem requires a time-independent matrix field")
    mesh = grid.meshgrid()
    if grid.dimension == 2 and np.any(A.eval_entry((0, 1), 0.0, *mesh)):
        raise NotImplementedError("cell problem implemented for diagonal A only")
    A.check_symmetric()
    ellipticity_bounds(A)  # raises NonEllipticError
    return [A.eval_entry((d, d), 0.0, *mesh) for d in range(grid.dimension)]


def _stiffness(A: PeriodicField, grid: Grid) -> sp.csr_array:
    """div(A grad .) on grid: E_0 of A with zero drift and growth."""
    zero = CoefficientSet(A, PeriodicField.vector([0.0] * grid.dimension, A.geometry),
                          PeriodicField.scalar(0.0, A.geometry), A.geometry)
    return assemble_action(zero, [0.0] * grid.dimension, grid)


def _cell_problem(a_diag, e, grid: Grid) -> CellProblemResult:
    """D_e and the corrector of the diagonal diffusion with vertex samples
    a_diag, one array per axis."""
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size != grid.dimension or not np.isfinite(e).all():
        raise ValueError("direction must be a spatial vector")
    nrm = np.linalg.norm(e)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    e = e / nrm
    faces = [_faces(a, d) for d, a in enumerate(a_diag)]
    h = grid.h

    # Euler-Lagrange: K chi = -div(A e) with the same face fluxes as K, the
    # stiffness div(A grad .) with zero drift and growth
    zero = np.zeros((1,) + grid.n_space)
    K = _csr_matrix({"a_faces": [f[None] for f in faces], "a12": None,
                     "b": [zero] * grid.dimension, "c0": zero}, 0, grid)
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


def effective_diffusivity(A: PeriodicField, e, grid: Grid) -> CellProblemResult:
    """Effective diffusivity D_e(A) and its zero-mean corrector."""
    return _cell_problem(_diagonal_entries(A, grid), e, grid)


def k0_rayleigh(A: PeriodicField, V, grid: Grid) -> float:
    """Smallest eigenvalue of -div(A grad .) - V (ARPACK shift-invert).

    Agrees with principal_eigen_steady(A, q=0, mu=V, lam=0) to solver
    accuracy; kept as an independent symmetric route.
    """
    if isinstance(V, PeriodicField):
        v_vals = V(0.0, *grid.meshgrid()).reshape(-1)
    else:
        v_vals = np.asarray(V, dtype=float).reshape(-1)
        if v_vals.size == 1:
            v_vals = np.full(grid.npoints, float(v_vals[0]))
    M = (-_stiffness(A, grid) - sp.diags_array(v_vals)).tocsc()
    sigma = -float(np.max(v_vals)) - 1.0  # strictly below the spectrum
    # a fixed start vector: ARPACK's own is random, and so would be the digits
    vals = eigsh(M, k=1, sigma=sigma, which="LM", v0=np.ones(grid.npoints),
                 return_eigenvectors=False, tol=1e-12)
    return float(vals[0])


def rayleigh_upper_bound(A: PeriodicField, mu: PeriodicField, kappa: float,
                         lam: float, e, alpha, grid: Grid) -> float:
    """Upper bound for k_{lambda e}(kappa A, 0, mu) from one test profile.

    alpha may be a positive scalar PeriodicField or grid values; it is
    renormalized so the discrete integral of alpha^2 over C is 1.
    """
    mesh = grid.meshgrid()
    if isinstance(alpha, PeriodicField):
        a_vals = alpha(0.0, *mesh)
    else:
        a_vals = np.asarray(alpha, dtype=float).reshape(grid.n_space)
    if np.min(a_vals) <= 0:
        raise ValueError("test profile alpha must be strictly positive")
    scale = np.sqrt(grid.integrate(a_vals**2))
    a_vals = a_vals / scale
    if np.min(a_vals) < MIN_ALPHA:
        raise ValueError(f"alpha dips below the admissibility floor {MIN_ALPHA}")

    grads = [_centred(a_vals, grid.h[d], d) for d in range(grid.dimension)]

    a_diag = _diagonal_entries(A, grid)
    mu_vals = mu(0.0, *mesh)
    dirichlet = kappa * grid.integrate(
        sum(a_diag[d] * grads[d] ** 2 for d in range(grid.dimension)))
    growth = grid.integrate(mu_vals * a_vals**2)
    d_eff = _cell_problem([a_vals**2 * a for a in a_diag], e, grid).d_effective
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

    q_comp = [coeffs.q.eval_entry(d, 0.0, *mesh) for d in range(N)]
    div_q = sum(_centred(qd, grid.h[d], d) for d, qd in enumerate(q_comp))
    lam_a_lam = np.zeros(grid.n_space)
    for i in range(N):
        for j in range(N):
            if lam[i] == 0.0 or lam[j] == 0.0:
                continue
            lam_a_lam = lam_a_lam + lam[i] * coeffs.A.eval_entry((i, j), 0.0, *mesh) * lam[j]
    q_lam = sum(lam[d] * q_comp[d] for d in range(N) if lam[d] != 0.0)
    potential = 0.5 * div_q + lam_a_lam - q_lam + coeffs.mu(0.0, *mesh)
    return k0_rayleigh(coeffs.A, potential.reshape(-1), grid)
