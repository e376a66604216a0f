"""Space-time periodic principal eigenvalues of the linearized operator.

Two computational routes realize the same object, the unique k with a
positive periodic eigenfunction of  L_lam psi = d_t psi - E_lam psi = k psi:

* steady (time-independent coefficients): the largest eigenvalue a of the
  discrete E_lam has the positive Perron eigenfunction and k = -a.  It is
  found by inverse power iteration on (sigma I - E_lam), with sigma a
  Gershgorin row bound of E_lam plus a small margin, so the shifted matrix is
  positive definite in effect and the shift sits just above the target
  eigenvalue (fast convergence).

* Floquet (general space-time periodic coefficients): power iteration on the
  one-period Crank-Nicolson map P gives the principal multiplier rho > 0 and
  its positive fixed direction u; with k = -(1/T) ln rho the tilted levels
  psi(t_m) = e^{k t_m} u(t_m) close periodically and solve the eigenproblem.

Both routes, and their adjoints, share one power-iteration loop
(`_power_iterate`): the max-normalization, the relative-increment stopping
test and the convergence error live there, and a route supplies only its
step and its eigenvalue estimate.

Both routes report k as the eigenfunction-weighted average of the pointwise
ratios (L_lam psi)/psi, a convex combination of the sandwich ratios, so the
certified bounds  min (L psi/psi) <= k <= max (L psi/psi)  hold by
construction (Collatz-Wielandt); for the Floquet route this also removes the
O(dt^2) skew of -(1/T) ln rho on effectively time-independent problems (the
raw log-multiplier value is kept in the diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.sparse.linalg import splu
import scipy.sparse as sp

from .fields import CoefficientSet, PeriodicField
from .operators import ActionFamily, Grid, _centred, assemble_action

__all__ = [
    "EigenResult", "AdjointPair", "EigenError", "EigenConvergenceError",
    "PositivityError", "principal_eigen_steady", "principal_eigen_floquet",
    "principal_eigenvalue", "richardson_in_time", "adjoint_eigenpair",
    "k_x_independent", "eigen_sandwich", "dk_dB_at_zero",
]

EIG_TOL = 1e-10
WIDTH_TARGET = 1e-6


class EigenError(RuntimeError):
    pass


class EigenConvergenceError(EigenError):
    pass


class PositivityError(EigenError):
    """The computed eigenfunction is not strictly positive (grid too coarse)."""


@dataclass
class EigenResult:
    """Principal eigenvalue k with its positive eigenfunction and certificate.

    phi has shape (npoints,) for the steady route and (n_t, npoints) for the
    Floquet route (time levels t_m = m*dt, m = 0..n_t-1), normalized to
    max phi = 1.  lower/upper are the sandwich bounds min/max (L phi)/phi.
    """

    k: float
    phi: np.ndarray
    lower: float
    upper: float
    iterations: int
    route: str
    grid: Grid
    lam: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def k_extrapolated(self) -> float:
        """Richardson-in-time value when computed, else k itself."""
        return self.diagnostics.get("k_extrapolated", self.k)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass
class AdjointPair:
    """Direct and adjoint eigenfunctions, rescaled so that the space-time
    integral of phi*phi_tilde over (0,T) x C is 1."""

    k: float
    phi: np.ndarray
    phi_tilde: np.ndarray
    grid: Grid
    lam: np.ndarray
    route: str
    k_adjoint: float = 0.0


def _ratio_stats(r: np.ndarray, weights: np.ndarray):
    """Convex ratio average (per level, then across levels) and bounds."""
    if r.ndim == 1:
        r = r[None, :]
        weights = weights[None, :]
    per_level = np.sum(r * weights, axis=1) / np.sum(weights, axis=1)
    k = float(np.mean(per_level))
    return k, float(r.min()), float(r.max())


def _power_iterate(step, v: np.ndarray, measure, *, tol: float, max_iter: int,
                   what: str):
    """Power iteration v <- step(v), max-normalized after every step.

    ``measure(v, w, u)`` gets the iterate, its image w = step(v) and the
    normalized image u, and returns the eigenvalue estimate together with a
    flag that must also hold to stop.  The iteration stops when two
    successive estimates agree to ``tol`` (relative, floored at 1) and
    returns the last estimate, the normalized iterate and the iteration
    count.
    """
    v = v / np.max(np.abs(v))
    old = increment = np.nan  # a nan increment never passes the test
    for it in range(1, max_iter + 1):
        w = step(v)
        u = w / np.max(np.abs(w))
        estimate, ready = measure(v, w, u)
        v = u
        increment = abs(estimate - old)
        if ready and increment <= tol * max(1.0, abs(estimate)):
            return estimate, v, it
        old = estimate
    raise EigenConvergenceError(f"{what} did not settle in {max_iter} iterations "
                                f"(last increment {increment:.2e})")


# --- steady route -------------------------------------------------------------


def _steady_ratios(E, w: np.ndarray):
    """k with the sandwich bounds from the ratios -(E w)/w; while w is not
    positive, the Rayleigh quotient with nan bounds."""
    if np.min(w) > 0:
        return _ratio_stats(-(E @ w) / w, w * w)
    return -float(np.dot(w, E @ w) / np.dot(w, w)), np.nan, np.nan


def _steady_factor(coeffs: CoefficientSet, lam, grid: Grid):
    """E_lam, the LU factors of sigma I - E_lam and the shift diagnostics."""
    if not coeffs.time_independent:
        raise EigenError("steady route requires time-independent coefficients")
    action = assemble_action(coeffs, lam, grid)
    bound = action.gershgorin_upper()
    sigma = bound + 1e-3 * max(1.0, abs(bound))
    lu = splu((sigma * sp.eye_array(action.matrix.shape[0], format="csc")
               - action.matrix).tocsc())
    return action, lu, {"sigma": sigma, "gershgorin": bound}


def _inverse_iterate(E, solve, v: np.ndarray, *, width_target: float, tol: float,
                     max_iter: int, what: str):
    """Inverse iteration with ``solve`` applying (sigma I - E)^-1; it also
    waits for a sandwich width of at most ``width_target``.  Returns k, the
    bounds, the positive iterate (max 1) and the iteration count."""
    stats = []  # k, lower, upper of the latest iterate

    def measure(_v, _w, u):
        stats[:] = _steady_ratios(E, u)
        return stats[0], stats[2] - stats[1] <= width_target

    _, v, it = _power_iterate(solve, v, measure, tol=tol, max_iter=max_iter, what=what)
    if np.min(v) <= 0:
        raise PositivityError(f"{what}: eigenfunction has nonpositive entries; "
                              "refine the grid")
    return (*stats, v, it)


def principal_eigen_steady(coeffs: CoefficientSet, lam, grid: Grid, *,
                           tol: float = EIG_TOL, width_target: float = WIDTH_TARGET,
                           max_iter: int = 200, v0: Optional[np.ndarray] = None) -> EigenResult:
    """Principal eigenvalue of the steady problem -E_lam phi = k phi.

    Inverse power iteration on (sigma I - E_lam); sigma is the Gershgorin row
    bound of the assembled matrix plus a small margin, a provable upper bound
    for the real spectrum, so the target eigenvalue is extremal for the
    shifted matrix.
    """
    action, lu, diagnostics = _steady_factor(coeffs, lam, grid)
    v = np.ones(grid.npoints) if v0 is None else np.asarray(v0, dtype=float).reshape(-1)
    k, lower, upper, phi, it = _inverse_iterate(
        action.matrix, lu.solve, v, width_target=width_target, tol=tol,
        max_iter=max_iter, what="steady inverse iteration")
    return EigenResult(k, phi, lower, upper, it, "steady", grid, action.lam,
                       diagnostics=diagnostics)


# --- Floquet route --------------------------------------------------------------


def _floquet_ratios(family: ActionFamily, psi: np.ndarray, adjoint: bool = False):
    """Pointwise ratios (L psi)/psi over (n_t, npoints) levels, the time
    derivative by centered differences (adjoint: of L*, with -d_t)."""
    dpsi = _centred(psi, family.grid.dt, 0)
    r = np.empty(psi.shape)
    for m in range(psi.shape[0]):
        Epsi = family.apply_action(m, psi[m], adjoint=adjoint)
        r[m] = ((-dpsi[m] - Epsi) if adjoint else (dpsi[m] - Epsi)) / psi[m]
    return r


def _floquet_iterate(family: ActionFamily, v: np.ndarray, *, tol: float,
                     max_iter: int, adjoint: bool = False):
    """Power iteration on the period map (adjoint: on its transpose), then
    the periodic eigenfunction from the levels of its fixed direction.

    Returns k (the ratio average), psi (max 1), the sandwich bounds, the
    log-multiplier -(1/T) ln rho, rho and the iteration count.
    """
    what = "transposed period-map power iteration" if adjoint else \
        "period-map power iteration"
    rho, v, it = _power_iterate(
        lambda u: family.step_period(u, transpose=adjoint), v,
        lambda u, w, _: (float(np.dot(w, u) / np.dot(u, u)), True),
        tol=tol, max_iter=max_iter, what=what)
    if not np.isfinite(rho) or rho <= 0:
        raise EigenError("nonpositive principal multiplier: invalid discretization")
    levels = family.step_period(v, transpose=adjoint, store_levels=True)
    grid = family.grid
    n_t = grid.n_t
    k_log = -np.log(rho) / grid.geometry.period
    # tilt e^{k t} (adjoint: e^{-k t}) closes the levels periodically, since
    # e^{k_log T} * rho = 1 by construction
    tilt = np.exp((-k_log if adjoint else k_log) * (np.arange(n_t) * grid.dt))
    psi = levels[:n_t] * tilt[:, None]
    psi = psi / np.max(psi)
    if np.min(psi) <= 0:
        raise PositivityError("periodic eigenfunction has nonpositive values")
    k, lower, upper = _ratio_stats(_floquet_ratios(family, psi, adjoint), psi * psi)
    return k, psi, lower, upper, k_log, rho, it


def principal_eigen_floquet(coeffs: CoefficientSet, lam, grid: Grid, *,
                            tol: float = EIG_TOL, max_iter: int = 200,
                            v0: Optional[np.ndarray] = None) -> EigenResult:
    """Principal eigenvalue via power iteration on the one-period map."""
    family = ActionFamily(coeffs, lam, grid)
    v = np.ones(grid.npoints) if v0 is None else np.asarray(v0, dtype=float).reshape(-1)
    k, psi, lower, upper, k_log, rho, it = _floquet_iterate(family, v, tol=tol,
                                                            max_iter=max_iter)
    return EigenResult(k, psi, lower, upper, it, "floquet", grid, family.lam,
                       diagnostics={"rho": rho, "k_log_multiplier": k_log})


def richardson_in_time(coeffs: CoefficientSet, coarse: EigenResult,
                       **kw) -> EigenResult:
    """The Floquet eigenpair at doubled time steps, warm-started from the
    coarse one at the same lam, with the dt^2-extrapolated eigenvalue
    (4 k_fine - k_coarse)/3 in ``k_extrapolated`` and the coarse k in
    ``k_coarse``.  The eigenpair is the fine one, so its sandwich bounds
    still certify its own ``k``."""
    grid = coarse.grid
    fine_grid = Grid(grid.geometry, grid.n_space, 2 * grid.n_t)
    fine = principal_eigen_floquet(coeffs, coarse.lam, fine_grid, v0=coarse.phi[0], **kw)
    fine.diagnostics["k_extrapolated"] = (4.0 * fine.k - coarse.k) / 3.0
    fine.diagnostics["k_coarse"] = coarse.k
    return fine


def principal_eigenvalue(coeffs: CoefficientSet, lam, grid: Grid, *,
                         route: str = "auto", richardson: bool = False,
                         v0: Optional[np.ndarray] = None, **kw) -> EigenResult:
    """Route to the steady or Floquet solver.

    ``richardson=True`` (Floquet only) follows the solve with
    `richardson_in_time` and returns its fine eigenpair.  A ray search with
    Richardson does not call this at every point: it searches on the plain
    solves and calls `richardson_in_time` at k_0 and at its minimizer.
    """
    if route == "auto":
        route = "steady" if coeffs.time_independent else "floquet"
    if route == "steady":
        return principal_eigen_steady(coeffs, lam, grid, v0=v0, **kw)
    if route != "floquet":
        raise ValueError(f"unknown route {route!r}")
    res = principal_eigen_floquet(coeffs, lam, grid, v0=v0, **kw)
    return richardson_in_time(coeffs, res, **kw) if richardson else res


# --- adjoint pair ---------------------------------------------------------------


def adjoint_eigenpair(coeffs: CoefficientSet, lam, grid: Grid, *,
                      tol: float = EIG_TOL, max_iter: int = 200,
                      mismatch_tol: float = 1e-6) -> AdjointPair:
    """Direct and adjoint principal eigenfunctions with unit pairing.

    The discrete adjoint is the exact transpose, so its principal eigenvalue
    matches the direct one to solver accuracy; a mismatch beyond
    ``mismatch_tol`` raises.  On the Floquet route the compared values are
    the log-multipliers of the period map and of its transpose: the
    sandwich averages of the two differ by the O(dt^2) error of the
    centered time differences, and the adjoint one is reported as
    ``k_adjoint``.
    """
    if coeffs.time_independent:
        action, lu, _ = _steady_factor(coeffs, lam, grid)
        E = action.matrix
        ones = np.ones(grid.npoints)
        k, _, _, phi, _ = _inverse_iterate(
            E, lu.solve, ones, width_target=WIDTH_TARGET, tol=tol, max_iter=max_iter,
            what="steady inverse iteration")
        k_adj, _, _, w, _ = _inverse_iterate(
            E.T.tocsr(), lambda v: lu.solve(v, trans="T"), ones, width_target=np.inf,
            tol=tol, max_iter=max_iter, what="adjoint steady inverse iteration")
        if abs(k_adj - k) > mismatch_tol:
            raise EigenError(f"adjoint eigenvalue mismatch: {k_adj} vs {k}")
        # pairing integral over (0,T) x C for time-constant functions
        pairing = grid.geometry.period * grid.cell_measure() * float(np.dot(phi, w))
        return AdjointPair(k, phi, w / pairing, grid, action.lam, "steady", k_adj)

    family = ActionFamily(coeffs, lam, grid)
    ones = np.ones(grid.npoints)
    k, psi, _, _, k_log, _, _ = _floquet_iterate(family, ones, tol=tol, max_iter=max_iter)
    k_adj, psi_t, _, _, k_log_adj, _, _ = _floquet_iterate(
        family, ones, tol=tol, max_iter=max_iter, adjoint=True)
    if abs(k_log_adj - k_log) > mismatch_tol:
        raise EigenError(f"adjoint log-multiplier mismatch: {k_log_adj} vs {k_log}")
    pairing = grid.dt * grid.cell_measure() * float(np.sum(psi * psi_t))
    return AdjointPair(k, psi, psi_t / pairing, grid, family.lam, "floquet", k_adj)


# --- closed form, sandwich, derivative -------------------------------------------


def _time_averages(coeffs: CoefficientSet, n_t: int):
    """Trapezoid time averages (A_bar, q_bar, mu_bar) over n_t steps of one
    period of the samples at the cell origin."""
    g = coeffs.geometry
    N = g.dimension
    ts = np.linspace(0.0, g.period, n_t + 1)
    origin = (0.0,) * N

    def avg(vals):
        return float(np.trapezoid(vals, ts) / g.period)

    A_bar = np.array([[avg(coeffs.A.eval_entry((i, j), ts, *origin))
                       for j in range(N)] for i in range(N)])
    q_bar = np.array([avg(coeffs.q.eval_entry(d, ts, *origin)) for d in range(N)])
    mu_bar = avg(coeffs.mu(ts, *origin))
    return A_bar, q_bar, mu_bar


def k_x_independent(coeffs: CoefficientSet, lam, n_t: int = 512) -> float:
    """k for space-independent coefficients, -(lam.A_bar.lam - q_bar.lam + mu_bar),
    from the trapezoid time averages `_time_averages` that
    `speed.speed_x_independent` reads too."""
    if not coeffs.space_independent:
        raise EigenError("closed form requires space-independent coefficients")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    A_bar, q_bar, mu_bar = _time_averages(coeffs, n_t)
    return float(-(lam @ A_bar @ lam - q_bar @ lam + mu_bar))


def eigen_sandwich(coeffs: CoefficientSet, lam, phi: np.ndarray, grid: Grid):
    """Bounds  min (L_lam phi)/phi <= k <= max (L_lam phi)/phi  for any
    positive periodic candidate phi: (n_t, npoints) levels whose time
    derivative is taken by centered differences, or one level, the candidate
    constant in time, whose ratios -(E_lam(t_m) phi)/phi are taken at every
    level t_m."""
    phi = np.asarray(phi, dtype=float)
    if np.min(phi) <= 0:
        raise PositivityError("sandwich candidate must be strictly positive")
    if phi.ndim == 1:
        phi = np.broadcast_to(phi, (grid.n_t, phi.size))
    if phi.shape[0] != grid.n_t:
        raise ValueError(f"expected {grid.n_t} time levels, got {phi.shape[0]}")
    r = _floquet_ratios(ActionFamily(coeffs, lam, grid), phi)
    return float(r.min()), float(r.max())


def dk_dB_at_zero(coeffs: CoefficientSet, lam, eta: PeriodicField, grid: Grid,
                  pair: Optional[AdjointPair] = None) -> float:
    """Derivative of B -> k_lam(A, q, mu + B*eta) at B = 0:
    the weighted mean -integral eta * phi * phi_tilde over (0,T) x C."""
    pair = pair or adjoint_eigenpair(coeffs, lam, grid)
    n_t = grid.n_t
    tm = (np.arange(n_t) * grid.dt).reshape((-1,) + (1,) * grid.dimension)
    eta_vals = eta(tm, *grid.meshgrid()).reshape(n_t, -1)
    if pair.phi.ndim == 1:
        prod = pair.phi * pair.phi_tilde  # time-independent pair
        integrand = eta_vals @ prod
    else:
        integrand = np.sum(eta_vals * pair.phi * pair.phi_tilde, axis=1)
    return float(-grid.dt * grid.cell_measure() * np.sum(integrand))
