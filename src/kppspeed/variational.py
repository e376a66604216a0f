"""The drift-elimination lower bound on k for time-independent coefficients.

``compjlambda_lower_bound`` is
    k_lam(A, q, mu) >= k_0(A, 0, div(q)/2 + lam.A.lam - lam.q + mu),
which eliminates the drift after one integration by parts.  The right side
is the smallest eigenvalue of the symmetric operator -div(A grad .) - V,
which ``k0_rayleigh`` takes from ARPACK (shift-invert Lanczos), a
library-backed route independent of the inverse iteration in `eigen`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .fields import CoefficientSet, FieldError, PeriodicField
from .operators import Grid, _centred, assemble_action

__all__ = ["k0_rayleigh", "compjlambda_lower_bound"]


def _stiffness(A: PeriodicField, grid: Grid) -> sp.csr_array:
    """div(A grad .) on grid: E_0 of A with zero drift and growth."""
    zero = CoefficientSet(A, PeriodicField.vector([0.0] * grid.dimension, A.geometry),
                          PeriodicField.scalar(0.0, A.geometry), A.geometry)
    return assemble_action(zero, [0.0] * grid.dimension, grid)


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
