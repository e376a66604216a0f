"""Space-time periodic principal eigenvalues of the linearized operator.

Two computational routes realize the same object, the unique k with a
positive periodic eigenfunction of  L_lam psi = d_t psi - E_lam psi = k psi:

* steady (time-independent coefficients): the largest eigenvalue a of the
  discrete E_lam has the positive Perron eigenfunction and k = -a.  It is
  found by inverse power iteration on (sigma I - E_lam), with sigma first a
  Gershgorin row bound of E_lam plus a small margin, so that a is the
  eigenvalue nearest to sigma.  When E_lam is Metzler (no negative
  off-diagonal entry, as for a fine enough grid in 1D) and the iterate is
  positive, the largest ratio (E_lam w)/w is a certified upper bound on a,
  and sigma moves down to it as the iteration tightens it, so a strong
  drift, whose Gershgorin bound lies far above a, converges as fast as a
  weak one.  In 1D E_lam is a set of cyclic tridiagonal bands and sigma I -
  E_lam is factored by LAPACK (`kernels.CyclicFactor`); in 2D it is a CSR
  matrix factored by sparse LU with MMD_AT_PLUS_A ordering and unrelaxed
  supernodes (`operators.SteadyAction`).

* Floquet (general space-time periodic coefficients): power iteration on the
  one-period Crank-Nicolson map P gives the principal multiplier rho > 0 and
  its positive fixed direction u; with k = -(1/T) ln rho the tilted levels
  psi(t_m) = e^{k t_m} u(t_m) close periodically and solve the eigenproblem.
  The levels are those of the last power step, which the period sweep
  stores anyway, so a solve makes exactly as many period maps as power
  iterations.  In 2D the levels of the map share one sparsity pattern, are
  assembled in one pass and their I - dt/2 E_m are factored by sparse LU
  with unrelaxed supernodes on one MMD_AT_PLUS_A column ordering, computed
  once per pattern (`operators.ActionFamily`): on a 32 x 32 shear flow
  this takes about half the time of one ordering per level with SuperLU's
  default supernodes (the measured times are in `operators`).

Both routes, and their adjoints, share one power-iteration loop
(`_power_iterate`): the max-normalization, the relative-increment stopping
test and the convergence error live there, and a route supplies only its
step and its eigenvalue estimate.  Each solver takes a `CoefficientSet` or
its `CoefficientSamples` on the grid (`operators.sample`), so a ray search
samples once for all its solves.

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

from .fields import CoefficientSet, PeriodicField
from .operators import (ActionFamily, CoefficientSamples, Grid, SteadyAction, _centred,
                        sample)

__all__ = [
    "EigenResult", "AdjointPair", "EigenError", "EigenConvergenceError",
    "PositivityError", "principal_eigen_steady", "principal_eigen_floquet",
    "principal_eigenvalue", "richardson_in_time", "adjoint_eigenpair",
    "dk_dB_at_zero",
]

EIG_TOL = 1e-10
MAX_ITER = 200  # power iterations before a solver gives up
WIDTH_TARGET = 1e-6  # the widest sandwich a steady solve stops at
MISMATCH_TOL = 1e-6  # the largest gap between direct and adjoint eigenvalues


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


def _steady_ratios(op: SteadyAction, w: np.ndarray, trans: str = "N"):
    """k with the sandwich bounds from the ratios -(E w)/w (trans='T': of E^T);
    while w is not positive, the Rayleigh quotient with nan bounds."""
    Ew = op.matvec(w, trans)
    if np.min(w) > 0:
        return _ratio_stats(-Ew / w, w * w)
    return -float(np.dot(w, Ew) / np.dot(w, w)), np.nan, np.nan


def _above(bound: float) -> float:
    """A shift just above an upper bound on the principal eigenvalue of E."""
    return bound + 1e-3 * max(1.0, abs(bound))


class _Shift:
    """The shift sigma of inverse iteration with the factors of sigma I - E
    and the number of times sigma was moved."""

    def __init__(self, op: SteadyAction):
        self.op, self.moves = op, 0
        self.sigma = _above(op.gershgorin)
        self.factor = op.factor(self.sigma)

    def move(self, sigma: float) -> None:
        self.sigma, self.factor = sigma, self.op.factor(sigma)
        self.moves += 1


def _steady_action(coeffs, lam, grid: Grid) -> SteadyAction:
    samples = sample(coeffs, grid)
    if not samples.coeffs.time_independent:
        raise EigenError("steady route requires time-independent coefficients")
    return SteadyAction(samples, lam)


def _inverse_iterate(op: SteadyAction, shift: _Shift, v: np.ndarray, *,
                     trans: str = "N", width_target: float, what: str):
    """Inverse iteration with the factors of sigma I - E held by ``shift``
    (trans='T': with E^T); it also waits for a sandwich width of at most
    ``width_target``.  Returns k, the bounds, the positive iterate (max 1)
    and the iteration count.

    When E is Metzler and the iterate is positive, -lower is a certified
    upper bound on the principal eigenvalue a of E and -upper a lower one
    (Collatz-Wielandt; Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, 1994).  A shift just above -lower is then still
    above a, and a is still the eigenvalue nearest to it, so the shift moves
    there whenever that at least halves its distance to the estimate -k; the
    refactoring waits for the next step, which a converged iteration never
    takes.  The increment test counts only iterates of the same factor.
    """
    stats = []  # k, lower, upper of the latest iterate
    closer = None  # the shift to move to before the next step
    fresh = False  # the latest iterate came from a new factor

    def step(u):
        nonlocal closer, fresh
        if closer is not None:
            shift.move(closer)
            closer, fresh = None, True
        return shift.factor.solve(u, trans)

    def measure(_v, _w, u):
        nonlocal closer, fresh
        stats[:] = k, lower, upper = _steady_ratios(op, u, trans)
        ready = not fresh and upper - lower <= width_target
        fresh = False
        if op.metzler and np.isfinite(lower):  # nan bounds: u not yet positive
            sigma = _above(-lower)
            if sigma + k <= 0.5 * (shift.sigma + k):
                closer = sigma
        return k, ready

    _, v, it = _power_iterate(step, v, measure, tol=EIG_TOL, max_iter=MAX_ITER, what=what)
    if np.min(v) <= 0:
        raise PositivityError(f"{what}: eigenfunction has nonpositive entries; "
                              "refine the grid")
    return (*stats, v, it)


def principal_eigen_steady(coeffs: CoefficientSet | CoefficientSamples, lam, grid: Grid,
                           *, v0: Optional[np.ndarray] = None) -> EigenResult:
    """Principal eigenvalue of the steady problem -E_lam phi = k phi.

    ``coeffs`` is a `CoefficientSet` or its `CoefficientSamples` on grid
    (`operators.sample`).  Inverse power iteration on (sigma I - E_lam)
    (`_inverse_iterate`), with sigma first the Gershgorin row bound of
    E_lam plus a small margin, a provable upper bound for the real
    spectrum.  ``diagnostics`` holds the Gershgorin bound, the final sigma
    and the number of times sigma moved.
    """
    op = _steady_action(coeffs, lam, grid)
    shift = _Shift(op)
    v = np.ones(grid.npoints) if v0 is None else np.asarray(v0, dtype=float).reshape(-1)
    k, lower, upper, phi, it = _inverse_iterate(
        op, shift, v, width_target=WIDTH_TARGET, what="steady inverse iteration")
    return EigenResult(k, phi, lower, upper, it, "steady", grid, op.lam,
                       diagnostics={"gershgorin": op.gershgorin, "sigma": shift.sigma,
                                    "shifts": shift.moves})


# --- Floquet route --------------------------------------------------------------


def _floquet_ratios(family: ActionFamily, psi: np.ndarray, adjoint: bool = False):
    """Pointwise ratios (L psi)/psi over (n_t, npoints) levels, the time
    derivative by centered differences (adjoint: of L*, with -d_t)."""
    dpsi = _centred(psi, family.grid.dt, 0)
    Epsi = family.actions(psi, adjoint)
    return ((-dpsi - Epsi) if adjoint else (dpsi - Epsi)) / psi


def _floquet_iterate(family: ActionFamily, v: np.ndarray, adjoint: bool = False):
    """Power iteration on the period map (adjoint: on its transpose), then
    the periodic eigenfunction from the levels of its last step, which
    start at the last iterate before the converged one.

    Returns k (the ratio average), psi (max 1), the sandwich bounds, the
    log-multiplier -(1/T) ln rho, rho and the iteration count.
    """
    what = "transposed period-map power iteration" if adjoint else \
        "period-map power iteration"
    levels = None

    def step(u):
        nonlocal levels
        levels = family.step_period(u, transpose=adjoint, store_levels=True)
        return levels[0] if adjoint else levels[-1]

    rho, _, it = _power_iterate(
        step, v, lambda u, w, _: (float(np.dot(w, u) / np.dot(u, u)), True),
        tol=EIG_TOL, max_iter=MAX_ITER, what=what)
    if not np.isfinite(rho) or rho <= 0:
        raise EigenError("nonpositive principal multiplier: invalid discretization")
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


def principal_eigen_floquet(coeffs: CoefficientSet | CoefficientSamples, lam, grid: Grid,
                            *, v0: Optional[np.ndarray] = None) -> EigenResult:
    """Principal eigenvalue via power iteration on the one-period map;
    ``coeffs`` as in `principal_eigen_steady`."""
    family = ActionFamily(sample(coeffs, grid), lam)
    v = np.ones(grid.npoints) if v0 is None else np.asarray(v0, dtype=float).reshape(-1)
    k, psi, lower, upper, k_log, rho, it = _floquet_iterate(family, v)
    return EigenResult(k, psi, lower, upper, it, "floquet", grid, family.lam,
                       diagnostics={"rho": rho, "k_log_multiplier": k_log})


def richardson_in_time(coeffs: CoefficientSet | CoefficientSamples,
                       coarse: EigenResult) -> EigenResult:
    """The Floquet eigenpair at doubled time steps, warm-started from the
    coarse one at the same lam, with the dt^2-extrapolated eigenvalue
    (4 k_fine - k_coarse)/3 in ``k_extrapolated`` and the coarse k in
    ``k_coarse``.  The eigenpair is the fine one, so its sandwich bounds
    still certify its own ``k``.  ``coeffs`` as in `principal_eigen_steady`
    on the coarse grid; the fine solve takes the `doubled_in_time` samples."""
    fine_samples = sample(coeffs, coarse.grid).doubled_in_time()
    fine = principal_eigen_floquet(fine_samples, coarse.lam, fine_samples.grid,
                                   v0=coarse.phi[0])
    fine.diagnostics["k_extrapolated"] = (4.0 * fine.k - coarse.k) / 3.0
    fine.diagnostics["k_coarse"] = coarse.k
    return fine


def principal_eigenvalue(coeffs: CoefficientSet | CoefficientSamples, lam, grid: Grid,
                         *, route: str = "auto", richardson: bool = False,
                         v0: Optional[np.ndarray] = None) -> EigenResult:
    """Route to the steady or Floquet solver; ``coeffs`` as in
    `principal_eigen_steady`, sampled once for every solve.

    ``richardson=True`` (Floquet only) follows the solve with
    `richardson_in_time` and returns its fine eigenpair.  A ray search with
    Richardson does not call this at every point: it searches on the plain
    solves and calls `richardson_in_time` at k_0 and at its minimizer.
    """
    samples = sample(coeffs, grid)
    if route == "auto":
        route = "steady" if samples.coeffs.time_independent else "floquet"
    if route == "steady":
        return principal_eigen_steady(samples, lam, grid, v0=v0)
    if route != "floquet":
        raise ValueError(f"unknown route {route!r}")
    res = principal_eigen_floquet(samples, lam, grid, v0=v0)
    return richardson_in_time(samples, res) if richardson else res


# --- adjoint pair ---------------------------------------------------------------


def adjoint_eigenpair(coeffs: CoefficientSet | CoefficientSamples, lam,
                      grid: Grid) -> AdjointPair:
    """Direct and adjoint principal eigenfunctions with unit pairing.

    The discrete adjoint is the exact transpose, so its principal eigenvalue
    matches the direct one to solver accuracy; a mismatch beyond
    ``MISMATCH_TOL`` raises.  On the Floquet route the compared values are
    the log-multipliers of the period map and of its transpose: the
    sandwich averages of the two differ by the O(dt^2) error of the
    centered time differences, and the adjoint one is reported as
    ``k_adjoint``.  ``coeffs`` as in `principal_eigen_steady`.
    """
    samples = sample(coeffs, grid)
    if samples.coeffs.time_independent:
        op = SteadyAction(samples, lam)
        shift = _Shift(op)
        ones = np.ones(grid.npoints)
        k, _, _, phi, _ = _inverse_iterate(
            op, shift, ones, width_target=WIDTH_TARGET, what="steady inverse iteration")
        # the adjoint iteration starts from the direct one's final shift
        k_adj, _, _, w, _ = _inverse_iterate(
            op, shift, ones, trans="T", width_target=np.inf,
            what="adjoint steady inverse iteration")
        if abs(k_adj - k) > MISMATCH_TOL:
            raise EigenError(f"adjoint eigenvalue mismatch: {k_adj} vs {k}")
        # pairing integral over (0,T) x C for time-constant functions
        pairing = grid.geometry.period * grid.cell_measure() * float(np.dot(phi, w))
        return AdjointPair(k, phi, w / pairing, grid, op.lam, "steady", k_adj)

    family = ActionFamily(samples, lam)
    ones = np.ones(grid.npoints)
    k, psi, _, _, k_log, _, _ = _floquet_iterate(family, ones)
    k_adj, psi_t, _, _, k_log_adj, _, _ = _floquet_iterate(family, ones, adjoint=True)
    if abs(k_log_adj - k_log) > MISMATCH_TOL:
        raise EigenError(f"adjoint log-multiplier mismatch: {k_log_adj} vs {k_log}")
    pairing = grid.dt * grid.cell_measure() * float(np.sum(psi * psi_t))
    return AdjointPair(k, psi, psi_t / pairing, grid, family.lam, "floquet", k_adj)


# --- derivative in the growth rate ----------------------------------------------


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
