"""Directional spreading speeds from the eigenvalue family.

The speed in direction e is  c*_e = min over lam.e < 0 of k_lam / (lam.e).
The default search restricts lam to the ray lam = -s e, s > 0, where the
objective g(s) = -k_{-s e}/s is unimodal (k is concave along rays and
g(0+) = g(inf) = +infinity).  A safeguarded parabolic search minimizes it:
it starts at sqrt(-k_0 / <e.A.e>), the minimizer for coefficients replaced
by their means, which lies near the true one unless the coefficients vary
strongly, steps outward until the least point is bracketed, then takes
parabolic steps through the three best points (bisection where the parabola
is not trusted).  It stops once the parabola predicts a drop in g below
G_RESOLUTION = EIG_TOL / 100 relative, where differences in g are the
eigensolver's roundoff, or a vertex within tol of the best point, so its
number of solves does not follow roundoff in k.  `spreading_speed` samples
once for all its solves, `shear_speed`, whose reduced growth rate changes
with s, per solve.
An optional 2D refinement runs coordinate descent over the ray direction
inside the half-space lam.e < 0.

With Richardson extrapolation in time, the search minimizes the coarse
(n_t) objective, and one solve at 2 n_t at its minimizer s* gives
c* = k_extrapolated/(lam*.e).  The coarse s* is O(dt^2) from the minimizer
of the extrapolated objective, where that objective is flat, so c* moves by
O(dt^4) against extrapolating at every point of the search.

`shear_speed` reduces a shear flow q = (q1(t,y), 0) with A = a(t,y) I and
mu(t,y) to the (N-1)-dimensional eigenproblem in y: for lam = s*e the
reduced growth rate picks up the -lam q1 e1 zeroth-order term, i.e.
mu + s^2 e1^2 a - s e1 q1, with the reduced wavevector s times the
transverse part of e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .eigen import EIG_TOL, EigenResult, principal_eigenvalue, richardson_in_time
from .fields import (CellGeometry, CoefficientSet, PeriodicField, _CallableEntry,
                     combine_scalar_fields)
from .operators import CoefficientSamples, Grid

__all__ = ["SpeedResult", "SpeedError", "NoSpreadingError", "UnimodalityError",
           "spreading_speed", "shear_speed", "shear_full_coefficients",
           "shear_reduced_eigenvalue"]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
S_MIN, S_MAX = 1e-4, 1e4  # the ray search brackets its minimizer inside [S_MIN, S_MAX]
# The relative change of the ray objective that the search still resolves:
# k stops on a relative increment of EIG_TOL and scatters by about 2.5e-13
# relative between warm-started solves near the minimizer.
G_RESOLUTION = EIG_TOL / 100


class SpeedError(RuntimeError):
    pass


class NoSpreadingError(SpeedError):
    """k_0 >= 0: no spreading regime; the minimization is not attempted."""

    def __init__(self, k0: float):
        super().__init__(f"k_0 = {k0:.6g} >= 0: outside the spreading regime")
        self.k0 = k0


class UnimodalityError(SpeedError):
    """The sampled ray profile is not unimodal, which the ray search
    assumes."""


@dataclass
class SpeedResult:
    c_star: float
    lam_star: np.ndarray
    e: np.ndarray
    profile: list          # searched (s, objective) pairs along the ray
    route: str
    eigen: Optional[EigenResult] = None   # minimizer's eigenpair (fine with Richardson)
    records: list = field(default_factory=list)  # per-solve (s, k, lower, upper)
    diagnostics: dict = field(default_factory=dict)


def _check_unimodal(profile, rel_tol=1e-9):
    """A unimodal sample has at most one sign change of the discrete slope."""
    pts = sorted(profile)
    vals = [v for _, v in pts]
    scale = max(1.0, max(abs(v) for v in vals))
    sign_changes = 0
    last_sign = -1  # objective must come down from +inf at s -> 0
    for a, b in zip(vals, vals[1:]):
        d = b - a
        if abs(d) <= rel_tol * scale:
            continue
        s = 1 if d > 0 else -1
        if s != last_sign:
            if s < 0 and last_sign > 0:
                raise UnimodalityError(
                    f"ray profile dips again after rising near s={a:.4g}")
            if s > 0:
                sign_changes += 1
            last_sign = s
    if sign_changes > 1:
        raise UnimodalityError("ray profile has multiple rising stretches")


def _check_minimum(profile, c_star: float) -> None:
    """The reported speed must be the least objective value the search saw."""
    s_low, v_low = min(profile, key=lambda p: p[1])
    if v_low < c_star - 1e-8:
        raise SpeedError(f"search returned {c_star!r}, above the value {v_low!r} "
                         f"sampled at s={s_low:.6g}")


def _golden_min(g: Callable[[float], float], a: float, b: float, tol: float):
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = g(x1), g(x2)
    while b - a > tol * max(1.0, abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = g(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _parabolic_min(g: Callable[[float], float], s0: float, tol: float):
    """Minimize a unimodal g over [S_MIN, S_MAX] from s0; returns the least
    point evaluated and its value.

    It evaluates s0, then s0 (1 -/+ 0.05), and steps outward, doubling the
    step in log s, while an end point is lowest.  Then it takes the vertex of
    the parabola through the three best points when that parabola is convex
    and its vertex lies inside the bracket, and otherwise bisects the larger
    part of the bracket; it never evaluates within tol * max(1, x) of a
    point it has, x being the best point.  It stops when the vertex is within
    tol * max(1, x) of x or the parabola predicts a drop below
    G_RESOLUTION * |g(x)|, where differences in g are roundoff.
    """
    pts: dict[float, float] = {}
    s0 = min(max(s0, S_MIN / 0.95), S_MAX / 1.05)
    for s in (s0, 0.95 * s0, 1.05 * s0):
        pts[s] = g(s)
    while True:
        xs = sorted(pts)
        i = xs.index(min(xs, key=pts.get))
        if 0 < i < len(xs) - 1:
            break
        end, inner = xs[i], xs[1 if i == 0 else -2]
        if end in (S_MIN, S_MAX):
            raise SpeedError(f"no bracket {'above' if i == 0 else 'below'} s={end:g}")
        s = min(max(end * (end / inner) ** 2, S_MIN), S_MAX)
        pts[s] = g(s)
    while True:
        xs = sorted(pts)
        x = min(xs, key=pts.get)
        a, c = xs[xs.index(x) - 1], xs[xs.index(x) + 1]
        fx, h = pts[x], tol * max(1.0, abs(x))
        w, v = sorted(pts, key=pts.get)[1:3]
        d1 = (pts[w] - fx) / (w - x)
        half_curv = ((pts[v] - fx) / (v - x) - d1) / (v - w)  # p''/2
        u = 0.5 * (x + w) - 0.5 * d1 / half_curv if half_curv > 0 else math.nan
        if a < u < c:
            if abs(u - x) <= h or half_curv * (u - x) ** 2 <= G_RESOLUTION * abs(fx):
                return x, fx
            if min(u - a, c - u) < h:  # step off the bracket end, toward x
                end = a if u - a < c - u else c
                u = end + math.copysign(h, x - end)
        if not a < u < c or min(u - a, abs(u - x), c - u) < h:
            if max(x - a, c - x) < 2 * h:
                return x, fx
            u = 0.5 * (x + (a if x - a > c - x else c))
        pts[u] = g(u)


def _unit(e, dim):
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size != dim:
        raise ValueError(f"direction must have {dim} components")
    n = np.linalg.norm(e)
    if n == 0:
        raise ValueError("direction must be nonzero")
    return e / n


class _RayObjective:
    """g(s) = -k(-s xi)/ (s xi.e), with eigen-result caching and warm starts."""

    def __init__(self, solve, e):
        self.solve = solve  # (s, xi, v0) -> EigenResult at lam = -s xi
        self.e = e
        self.cache: dict[tuple, tuple[float, EigenResult]] = {}
        self._last_phi: Optional[np.ndarray] = None
        self.records: list = []

    @staticmethod
    def _key(s: float, xi):
        return (round(s, 14), tuple(np.round(xi, 14)))

    def record(self, s: float, xi, res: EigenResult) -> None:
        self.records.append({"s": s, "xi": self._key(s, xi)[1], "k": res.k,
                             "lower": res.lower, "upper": res.upper,
                             "k_used": res.k_extrapolated})

    def value_for(self, s: float, xi) -> float:
        key = self._key(s, xi)
        if key not in self.cache:
            xi = np.asarray(xi)
            res = self.solve(s, xi, self._last_phi)
            self._last_phi = res.phi if res.phi.ndim == 1 else res.phi[0]
            if res.k >= 0:
                raise NoSpreadingError(res.k)
            self.cache[key] = (res.k / float(np.dot(-s * xi, self.e)), res)
            self.record(s, xi, res)
        return self.cache[key][0]

    def result_for(self, s: float, xi) -> EigenResult:
        return self.cache[self._key(s, xi)][1]

    def ray_profile(self, xi):
        xi_key = self._key(0.0, xi)[1]
        return sorted((s, v) for (s, k), (v, _) in self.cache.items() if k == xi_key)


def _ray_speed(problem, grid: Grid, e: np.ndarray, route: str, *,
               eigen_route: str, richardson: bool, mean_diffusion: float,
               tol: float, refine: bool = False) -> SpeedResult:
    """c*_e over ``problem(s, xi)``: the coefficients (a `CoefficientSet` or
    its `CoefficientSamples` on grid) and the wavevector whose eigenvalue is
    k at lam = -s xi, for every solve, Richardson solves included.

    Every solve takes ``eigen_route`` in `principal_eigenvalue`; with
    ``richardson`` on the Floquet route the search runs on the coarse
    eigenvalues and `richardson_in_time` extrapolates k_0 and the eigenvalue
    at the minimizer.  Checks k_0 < 0 (extrapolated), minimizes along the
    ray xi = e with `_parabolic_min` from the minimizer sqrt(-k_0 / <e.A.e>)
    of the homogeneous problem with ``mean_diffusion`` = <e.A.e>, checks that
    the searched profile is unimodal, that the search kept its least value
    and that this value is k_lam/(lam.e) at the reported minimizer, and
    optionally refines the direction (2D).
    """
    solves = 0

    def solve(s, xi, v0):
        nonlocal solves
        solves += 1
        coeffs, lam = problem(s, xi)
        return principal_eigenvalue(coeffs, lam, grid, route=eigen_route, v0=v0)

    def extrapolated(s, xi, coarse):
        nonlocal solves
        if not richardson or coarse.route != "floquet":
            return coarse
        solves += 1
        return richardson_in_time(problem(s, xi)[0], coarse)

    k0 = extrapolated(0.0, e, solve(0.0, e, None)).k_extrapolated
    if k0 >= 0:
        raise NoSpreadingError(k0)

    obj = _RayObjective(solve, e)
    s_star, c_search = _parabolic_min(lambda s: obj.value_for(s, e),
                                      math.sqrt(-k0 / mean_diffusion), tol)
    profile = obj.ray_profile(e)
    _check_unimodal(profile)
    _check_minimum(profile, c_search)

    xi_star = e
    diagnostics = {"k0": k0, "c_star_ray": c_search}
    if refine:
        if e.size != 2:
            raise SpeedError("half-space refinement is a 2D feature")
        perp = np.array([-e[1], e[0]])
        theta, s_cur = 0.0, s_star

        def xi_of(th):
            return math.cos(th) * e + math.sin(th) * perp

        for _ in range(3):
            s_cur, val = _parabolic_min(
                lambda s: obj.value_for(s, xi_of(theta)), s_cur, tol)
            theta, val = _golden_min(
                lambda th: obj.value_for(s_cur, xi_of(th)),
                theta - 0.6, theta + 0.6, 1e-5)
            theta = float(np.clip(theta, -1.5, 1.5))
        if val < c_search:
            c_search, s_star, xi_star = val, s_cur, xi_of(theta)
        diagnostics["refined_theta"] = theta

    lam_star = -s_star * xi_star
    coarse = obj.result_for(s_star, xi_star)
    c_of_k = coarse.k / float(np.dot(lam_star, e))
    if abs(c_search - c_of_k) > 1e-12 * max(1.0, abs(c_search)):
        raise SpeedError(f"speed {c_search!r} disagrees with k_lam/(lam.e) = {c_of_k!r} "
                         "at the minimizer")
    res = extrapolated(s_star, xi_star, coarse)
    c_star = res.k_extrapolated / float(np.dot(lam_star, e))
    if res is not coarse:
        obj.record(s_star, xi_star, res)
        diagnostics["c_star_coarse"] = c_search
    diagnostics["solves"] = solves
    return SpeedResult(c_star, lam_star, e, profile, route, eigen=res,
                       records=obj.records, diagnostics=diagnostics)


def spreading_speed(coeffs: CoefficientSet, e, grid: Grid, *, route: str = "auto",
                    richardson: bool = False, tol: float = 1e-6,
                    refine: bool = False) -> SpeedResult:
    """Ray search for c*_e = min_{lam.e<0} k_lam/(lam.e).

    Verifies k_0 < 0 first (no spreading regime otherwise).  The search
    brackets the minimizer along the ray, from the homogeneous estimate
    sqrt(-k_0 / <e.A.e>), and closes in on it with parabolic steps until the
    predicted gain in c is roundoff (`_parabolic_min`); it samples the
    coefficients once.  With
    ``richardson=True`` (Floquet route) it searches on the n_t eigenvalues
    and reports the Richardson-extrapolated speed at their
    minimizer, from one more solve at 2 n_t; ``diagnostics`` then holds the
    coarse speed as ``c_star_coarse``, and ``solves`` counts the eigensolves
    either way.  With ``refine=True`` (2D) a coordinate descent over the ray
    direction inside the half-space follows the axial search; both values
    are reported.
    """
    e = _unit(e, grid.dimension)
    samples = CoefficientSamples(coeffs, grid)
    return _ray_speed(lambda s, xi: (samples, -s * xi), grid, e, "ray-search",
                      eigen_route=route, richardson=richardson,
                      mean_diffusion=samples.mean_diffusion(e),
                      tol=tol, refine=refine)


# --- shear flows ----------------------------------------------------------------


def _require_ty_fields(*fs):
    for f in fs:
        if f.kind != "scalar":
            raise SpeedError("shear components must be scalar (t, y) fields")


def _reduced_mu(a: PeriodicField, q1: PeriodicField, mu: PeriodicField,
                s: float, e1: float) -> PeriodicField:
    # mu + (s e1)^2 a - (-s) e1 q1 evaluated with lam = -s e
    return combine_scalar_fields([(1.0, mu), ((s * e1) ** 2, a), (s * e1, q1)])


def _reduced_coeffs(a, q1, mu, s, e1) -> CoefficientSet:
    geometry = a.geometry
    zero_q = PeriodicField.vector([0.0] * geometry.dimension, geometry)
    return CoefficientSet(PeriodicField.matrix(a.entries, geometry), zero_q,
                          _reduced_mu(a, q1, mu, s, e1), geometry)


def shear_reduced_eigenvalue(a: PeriodicField, q1: PeriodicField, mu: PeriodicField,
                             e, lam_scalar: float, grid_y: Grid) -> EigenResult:
    """k of the reduced (N-1)-dimensional shear problem at wavevector
    lam_scalar * e (full space), via the equivalent 1D growth-rate shift."""
    _require_ty_fields(a, q1, mu)
    e = _unit(e, 2)
    reduced = _reduced_coeffs(a, q1, mu, -lam_scalar, e[0])
    return principal_eigenvalue(reduced, [lam_scalar * e[1]], grid_y)


def shear_full_coefficients(a: PeriodicField, q1: PeriodicField, mu: PeriodicField
                            ) -> CoefficientSet:
    """Lift (t,y) shear components to the full 2D cell of x-length 1:
    A = a I, q = (q1, 0).  A lifted entry depends on t iff its (t, y)
    component does."""
    geo_y = a.geometry
    geo2 = CellGeometry(geo_y.period, (1.0, geo_y.lengths[0]))

    def lift(f):
        return _CallableEntry(lambda t, x1, y: f(t, y) + 0.0 * x1, not f.time_independent)

    return CoefficientSet(PeriodicField.matrix(lift(a), geo2),
                          PeriodicField.vector([lift(q1), 0.0], geo2),
                          PeriodicField.scalar(lift(mu), geo2), geo2)


def shear_speed(a: PeriodicField, q1: PeriodicField, mu: PeriodicField, e,
                grid_y: Grid, *, richardson: bool = False) -> SpeedResult:
    """Spreading speed of a 2D shear flow via the reduced problem in y.

    ``richardson=True`` extrapolates at the minimizer as in `spreading_speed`
    (on the Floquet route, taken for time-dependent coefficients), and the
    bracket starts as there, with <e.A.e> = <a>.  Each solve samples the
    reduced coefficients at its s, which share A and its ellipticity check.
    """
    _require_ty_fields(a, q1, mu)
    e = _unit(e, 2)
    base = _reduced_coeffs(a, q1, mu, 0.0, e[0])
    a_mean = CoefficientSamples(base, grid_y).mean_diffusion([1.0])

    def problem(s, xi):  # with_mu keeps the ellipticity bounds of A
        return base.with_mu(_reduced_mu(a, q1, mu, s, xi[0])), [-s * xi[1]]

    return _ray_speed(problem, grid_y, e, "shear-reduced", eigen_route="auto",
                      richardson=richardson, mean_diffusion=a_mean, tol=1e-6)
