"""Nonlinear Cauchy problem on an extended domain and empirical front speeds.

Solves  d_t u = div(A grad u) - q . grad u + mu u (1 - u)  in one space
dimension on R repeated periodicity cells with homogeneous Dirichlet far
boundaries, by Strang splitting:

* half-step reaction: the logistic ODE has the exact pointwise flow
  u -> u / (u + (1 - u) exp(-mu tau)), with mu frozen at the midpoint of the
  half interval;
* full linear Crank-Nicolson transport-diffusion step on `kernels.cn_levels`,
  factored once per run (once per level of a period when A or q depend on t).

Ahead of the front the true solution is far below machine precision, and the
linear solves inject roundoff of either sign which the reaction half-steps
would amplify exponentially; negative values are therefore projected to zero
after each linear step.  The projection is monotone, so the comparison
principle survives it, and values below the instability floor -1e-8 raise
before being projected (they signal a genuinely broken run, not roundoff).

The empirical speed is the least-squares slope of the level-crossing
positions over the last half of the snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import cn_levels
from .fields import CoefficientSet
from .operators import Grid, _bands_1d, _faces

__all__ = ["CauchyRun", "FrontEstimate", "SimulationError", "solve_cauchy",
           "front_speed", "smooth_bump"]

INSTABILITY_LOW = -1e-8
INSTABILITY_HIGH = 1e-6  # above max(1, ||u0||_inf)


class SimulationError(RuntimeError):
    pass


@dataclass
class CauchyRun:
    times: np.ndarray          # snapshot times
    snapshots: np.ndarray      # (n_snapshots, n_points)
    x: np.ndarray              # extended domain coordinates
    direction: int             # +1 or -1: which way the tracked front moves
    valid: bool                # front stayed >= 2 cells away from the boundary
    cells: int
    diagnostics: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Dump snapshots as rows `t,x_index,u` (one line per grid point)."""
        with open(path, "w") as fh:
            fh.write("t,x_index,u\n")
            for t, snap in zip(self.times, self.snapshots):
                for i, u in enumerate(snap):
                    fh.write(f"{t!r},{i},{u!r}\n")


@dataclass
class FrontEstimate:
    level: float
    times: np.ndarray
    positions: np.ndarray
    speed: float
    residual: float            # rms of the linear fit over the fitted window


def smooth_bump(center: float = 0.0, width: float = 1.0, height: float = 1.0) -> Callable:
    """Compactly supported C-infinity bump exp(1 - 1/(1 - s^2)) on |s| < 1."""

    def u0(x):
        s = (np.asarray(x, dtype=float) - center) / width
        out = np.zeros_like(s)
        inside = np.abs(s) < 1
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out

    return u0


def _linear_bands(coeffs: CoefficientSet, x: np.ndarray, grid: Grid, periodic: bool):
    """Crank-Nicolson levels (`kernels.cn_levels`) of div(a grad .) - q d_x on
    the extended grid: the operator's 1D stencil at lam = 0 without the
    zeroth-order term, at t = 0 alone if A and q do not depend on time and at
    the n_t levels of a period otherwise.

    Dirichlet: boundary rows and corners are zeroed (their values stay 0).
    Periodic: the grid is a ring of cells and the wrap enters as corners.
    """
    time_dep = not (coeffs.A.time_independent and coeffs.q.time_independent)
    t = np.arange(grid.n_t if time_dep else 1)[:, None] * grid.dt
    a_faces = _faces(coeffs.A.eval_entry((0, 0), t, x), -1)
    q = coeffs.q.eval_entry(0, t, x)
    dl, dd, du, c0, c1 = _bands_1d(a_faces, -q, 0.0, grid.h[0])
    if not periodic:
        dl[:, -1] = dd[:, 0] = dd[:, -1] = du[:, 0] = c0[:] = c1[:] = 0.0
    return cn_levels(dl, dd, du, c0, c1, 0.5 * grid.dt)


def _logistic_half(u: np.ndarray, mu: np.ndarray, tau: float) -> np.ndarray:
    decay = np.exp(-mu * tau)
    return u / (u + (1.0 - u) * decay)


def solve_cauchy(coeffs: CoefficientSet, u0, cells: int, t_end: float, grid: Grid,
                 *, snapshot_dt: float = 0.5, span=None,
                 boundary: str = "dirichlet") -> CauchyRun:
    """Strang-split solve with compactly supported data on `cells` repeated
    cells; `grid` fixes the points per cell and dt = T/n_t.

    `span` = (cells_left, cells_right) places the domain asymmetrically
    around 0 (for drifting fronts); it overrides `cells`.  The `periodic`
    boundary closes the cells into a ring (useful for equilibrium and
    comparison checks; front tracking needs the default far-field Dirichlet).
    """
    if grid.dimension != 1:
        raise NotImplementedError("the Cauchy validator is one-dimensional")
    if boundary not in ("dirichlet", "periodic"):
        raise ValueError("boundary must be 'dirichlet' or 'periodic'")
    periodic = boundary == "periodic"
    L = coeffs.geometry.lengths[0]
    n_per_cell = grid.n_space[0]
    h = L / n_per_cell
    if span is not None:
        left, right = int(span[0]), int(span[1])
        cells = left + right
    else:
        left = cells // 2
        right = cells - left
    n_pts = cells * n_per_cell + (0 if periodic else 1)
    x = -left * L + np.arange(n_pts) * h
    dt = grid.dt

    u = np.asarray(u0(x) if callable(u0) else u0, dtype=float).copy()
    if u.shape != x.shape:
        raise SimulationError("initial data does not match the extended grid")
    if not np.isfinite(u).all():
        raise SimulationError("initial data must be finite")
    if np.min(u) < 0:
        raise SimulationError("initial data must be nonnegative")
    if not periodic and np.max(np.abs(u[[0, -1]])) > 0:
        raise SimulationError("initial data must vanish at the far boundaries")
    cap = max(1.0, float(np.max(u)))

    # the levels depend on A and q only; mu enters through the reaction steps
    lhs, rhs = _linear_bands(coeffs, x, grid, periodic)

    n_steps = int(round(t_end / dt))
    every = max(1, int(round(snapshot_dt / dt)))
    times = [0.0]
    snaps = [u.copy()]
    mu_cache: dict[float, np.ndarray] = {}

    def mu_at(t):
        key = round(t % coeffs.geometry.period, 12)
        if key not in mu_cache:
            mu_cache[key] = coeffs.mu(t, x)
        return mu_cache[key]

    for step in range(n_steps):
        t = step * dt
        u = _logistic_half(u, mu_at(t + 0.25 * dt), 0.5 * dt)
        u = lhs[(step + 1) % len(lhs)].solve(rhs[step % len(rhs)](u))
        # written so that a NaN fails it
        if not (INSTABILITY_LOW <= u.min() and u.max() <= cap + INSTABILITY_HIGH):
            raise SimulationError(
                f"instability at t={t + dt:.4f}: range [{u.min():.3e}, {u.max():.3e}]")
        np.maximum(u, 0.0, out=u)  # roundoff floor ahead of the front
        u = _logistic_half(u, mu_at(t + 0.75 * dt), 0.5 * dt)
        if (step + 1) % every == 0 or step == n_steps - 1:
            times.append((step + 1) * dt)
            snaps.append(u.copy())

    run = CauchyRun(np.asarray(times), np.asarray(snaps), x, +1, True, cells,
                    diagnostics={"dt": dt, "h": h, "boundary": boundary})
    if not periodic:
        run.valid = _front_clear_of_boundary(run, L)
    return run


def _crossing(x: np.ndarray, u: np.ndarray, level: float, direction: int):
    """Outermost level crossing along the direction, by linear interpolation."""
    above = u >= level
    if not np.any(above):
        return None
    if direction >= 0:
        i = int(np.max(np.nonzero(above)[0]))
        if i == u.size - 1:
            return float(x[-1])
        frac = (u[i] - level) / (u[i] - u[i + 1])
        return float(x[i] + frac * (x[i + 1] - x[i]))
    i = int(np.min(np.nonzero(above)[0]))
    if i == 0:
        return float(x[0])
    frac = (u[i] - level) / (u[i] - u[i - 1])
    return float(x[i] - frac * (x[i] - x[i - 1]))


def _front_clear_of_boundary(run: CauchyRun, L: float, level: float = 1e-4) -> bool:
    margin = 2 * L
    lo, hi = run.x[0] + margin, run.x[-1] - margin
    for snap in run.snapshots:
        pos_r = _crossing(run.x, snap, level, +1)
        pos_l = _crossing(run.x, snap, level, -1)
        if pos_r is not None and (pos_r > hi or (pos_l is not None and pos_l < lo)):
            return False
    return True


def front_speed(run: CauchyRun, e=1, level: float = 0.5) -> FrontEstimate:
    """Least-squares front speed over the last half of the snapshots."""
    if not run.valid:
        raise SimulationError("run flagged invalid: front reached the boundary")
    e0 = float(np.asarray(e, dtype=float).reshape(-1)[0])
    direction = 1 if e0 >= 0 else -1
    times, positions = [], []
    for t, snap in zip(run.times, run.snapshots):
        pos = _crossing(run.x, snap, level, direction)
        if pos is not None:
            times.append(t)
            positions.append(pos)
    if len(times) < 4:
        raise SimulationError(f"level {level} never developed a trackable front")
    times = np.asarray(times)
    positions = np.asarray(positions)
    half = times.size // 2
    tt, pp = times[half:], positions[half:]
    slope, intercept = np.polyfit(tt, pp, 1)
    residual = float(np.sqrt(np.mean((pp - (slope * tt + intercept)) ** 2)))
    return FrontEstimate(level, times, positions, float(slope) * direction, residual)
