"""Directional spreading speeds from the eigenvalue family.

The speed in direction e is  c*_e = min over lam.e < 0 of k_lam / (lam.e).
The default search restricts lam to the ray lam = -s e, s > 0, where the
objective g(s) = -k_{-s e}/s is unimodal (k is concave along rays and
g(0+) = g(inf) = +infinity), found by doubling/halving bracketing from a
small s and Brent's method inside the bracket: parabolic steps through the
three best points, golden-section steps where the parabola is not trusted.
An optional 2D refinement runs coordinate descent over the ray direction
inside the half-space lam.e < 0.

With Richardson extrapolation in time, the search minimizes the coarse
(n_t) objective, and one solve at 2 n_t at its minimizer s* gives
c* = k_extrapolated/(lam*.e).  The coarse s* is O(dt^2) from the minimizer
of the extrapolated objective, where that objective is flat, so c* moves by
O(dt^4) against extrapolating at every point of the search.

`speed_x_independent` evaluates the closed form for space-independent
coefficients: substituting lam = -s xi into
k = -(1/T) integral (lam.A.lam - lam.q + mu) and minimizing over s gives

    c*_e = min over unit xi with xi.e > 0 of
           [2 sqrt(<xi.A.xi> <mu>) + <q>.xi] / (xi.e),

with <.> the time average.  `shear_speed` reduces a shear flow
q = (q1(t,y), 0) with A = a(t,y) I and mu(t,y) to the (N-1)-dimensional
eigenproblem in y: for lam = s*e the reduced growth rate picks up the
-lam q1 e1 zeroth-order term, i.e. mu + s^2 e1^2 a - s e1 q1, with the
reduced wavevector s times the transverse part of e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .eigen import EigenResult, _time_averages, principal_eigenvalue, richardson_in_time
from .fields import (CellGeometry, CoefficientSet, PeriodicField,
                     combine_scalar_fields)
from .operators import Grid

__all__ = ["SpeedResult", "SpeedError", "NoSpreadingError", "UnimodalityError",
           "spreading_speed", "speed_x_independent", "shear_speed",
           "shear_full_coefficients", "shear_reduced_eigenvalue"]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CGOLD = 1.0 - GOLDEN  # golden-section step into the larger part of a bracket


class SpeedError(RuntimeError):
    pass


class NoSpreadingError(SpeedError):
    """k_0 >= 0: no spreading regime; the minimization is not attempted."""

    def __init__(self, k0: float):
        super().__init__(f"k_0 = {k0:.6g} >= 0: outside the spreading regime")
        self.k0 = k0


class UnimodalityError(SpeedError):
    """The sampled ray profile is not unimodal, which the bracket and Brent's
    method assume."""


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


def _brent_min(g: Callable[[float], float], a: float, b: float, c: float,
               fb: float, tol: float):
    """Brent's minimization of g on the bracket a < b < c with g(b) = fb at
    most g(a) and g(c) (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 5).

    Each step takes the vertex of the parabola through the three best points
    so far when it falls inside the bracket and moves less than half the
    step before last; otherwise it takes a golden-section step into the
    larger part.  It stops when the least point x is within
    tol * max(1, |x|) of both ends of the bracket, and returns x with g(x),
    the least value evaluated.
    """
    x = w = v = b
    fx = fw = fv = fb
    d = e = 0.0  # the last step and the one before it
    while True:
        m = 0.5 * (a + c)
        tol1 = 0.5 * tol * max(1.0, abs(x))
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (c - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (c - x):
                e, d = d, p / q
                golden = False
                if min(x + d - a, c - x - d) < 2.0 * tol1:
                    d = math.copysign(tol1, m - x)
        if golden:
            e = (a if x >= m else c) - x
            d = CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = g(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                c = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                c = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _bracket_and_minimize(g: Callable[[float], float], s_init: float,
                          s_min: float, s_max: float, tol: float):
    a = max(s_init, s_min)
    fa = g(a)
    b = min(2 * a, s_max)
    fb = g(b)
    if fb <= fa:
        while True:
            c = 2 * b
            if c > s_max:
                raise SpeedError(f"no bracket below s_max={s_max:g}")
            fc = g(c)
            if fc >= fb:
                break
            a, fa, b, fb = b, fb, c, fc
    else:
        c, fc = b, fb
        b, fb = a, fa
        while True:
            a = b / 2
            if a < s_min:
                raise SpeedError(f"no bracket above s_min={s_min:g}")
            fa = g(a)
            if fa >= fb:
                break
            c, fc, b, fb = b, fb, a, fa
    return _brent_min(g, a, b, c, fb, tol)


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
               solver_kwargs: Optional[dict], s_init: float, s_min: float,
               s_max: float, tol: float, refine: bool = False) -> SpeedResult:
    """c*_e over ``problem(s, xi)``, the coefficients and wavevector whose
    eigenvalue on ``grid`` is k at lam = -s xi.

    ``solver_kwargs`` go to `principal_eigenvalue`; with ``"richardson":
    True`` on the Floquet route the search runs on the coarse eigenvalues
    and `richardson_in_time` extrapolates k_0 and the eigenvalue at the
    minimizer.  Checks k_0 < 0 (extrapolated), brackets and minimizes along
    the ray xi = e, checks that the searched profile is unimodal, that the
    search kept its least value and that this value is k_lam/(lam.e) at the
    reported minimizer, and optionally refines the direction (2D).
    """
    kw = dict(solver_kwargs or {})
    eigen_route = kw.pop("route", "auto")
    richardson = kw.pop("richardson", False)
    solves = 0

    def solve(s, xi, v0):
        nonlocal solves
        solves += 1
        coeffs, lam = problem(s, xi)
        return principal_eigenvalue(coeffs, lam, grid, route=eigen_route, v0=v0, **kw)

    def extrapolated(s, xi, coarse):
        nonlocal solves
        if not richardson or coarse.route != "floquet":
            return coarse
        solves += 1
        return richardson_in_time(problem(s, xi)[0], coarse, **kw)

    k0 = extrapolated(0.0, e, solve(0.0, e, None)).k_extrapolated
    if k0 >= 0:
        raise NoSpreadingError(k0)

    obj = _RayObjective(solve, e)
    s_star, c_search = _bracket_and_minimize(lambda s: obj.value_for(s, e),
                                             s_init, s_min, s_max, tol)
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
            s_cur, val = _bracket_and_minimize(
                lambda s: obj.value_for(s, xi_of(theta)), s_cur, s_min, s_max, tol)
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
                    richardson: bool = False, s_init: float = 1e-2,
                    s_min: float = 1e-4, s_max: float = 1e4, tol: float = 1e-6,
                    refine: bool = False, solver_kwargs: Optional[dict] = None
                    ) -> SpeedResult:
    """Ray search for c*_e = min_{lam.e<0} k_lam/(lam.e).

    Verifies k_0 < 0 first (no spreading regime otherwise).  The search
    brackets the minimizer along the ray and closes in on it with Brent's
    method.  With ``richardson=True`` (Floquet route) it searches on the
    n_t eigenvalues and reports the Richardson-extrapolated speed at their
    minimizer, from one more solve at 2 n_t; ``diagnostics`` then holds the
    coarse speed as ``c_star_coarse``, and ``solves`` counts the eigensolves
    either way.  With ``refine=True`` (2D) a coordinate descent over the ray
    direction inside the half-space follows the axial search; both values
    are reported.
    """
    e = _unit(e, grid.dimension)
    kw = dict(solver_kwargs or {}, route=route, richardson=richardson)
    return _ray_speed(lambda s, xi: (coeffs, -s * xi), grid, e, "ray-search",
                      solver_kwargs=kw, s_init=s_init, s_min=s_min, s_max=s_max,
                      tol=tol, refine=refine)


# --- closed form for space-independent coefficients ---------------------------


def speed_x_independent(coeffs: CoefficientSet, e, n_t: int = 512) -> SpeedResult:
    """Closed-form speed for space-independent coefficients:
    min over unit xi with xi.e > 0 of [2 sqrt(<xi A xi><mu>) + <q>.xi]/(xi.e)."""
    if not coeffs.space_independent:
        raise SpeedError("closed form requires space-independent coefficients")
    N = coeffs.geometry.dimension
    e = _unit(e, N)
    A_bar, q_bar, mu_bar = _time_averages(coeffs, n_t)
    if mu_bar <= 0:
        raise NoSpreadingError(-mu_bar)

    def value(xi):
        xAx = float(xi @ A_bar @ xi)
        return (2.0 * math.sqrt(xAx * mu_bar) + float(q_bar @ xi)) / float(xi @ e)

    profile = []
    if N == 1:
        xi_star, c_star = e, value(e)
    else:
        perp = np.array([-e[1], e[0]])

        def xi_of(th):
            return math.cos(th) * e + math.sin(th) * perp

        thetas = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 721)
        vals = [value(xi_of(th)) for th in thetas]
        profile = list(zip(thetas.tolist(), vals))
        i = int(np.argmin(vals))
        lo = thetas[max(i - 1, 0)]
        hi = thetas[min(i + 1, len(thetas) - 1)]
        th_star, c_star = _golden_min(lambda th: value(xi_of(th)), lo, hi, 1e-10)
        xi_star = xi_of(th_star)
    xAx = float(xi_star @ A_bar @ xi_star)
    s_star = math.sqrt(mu_bar / xAx)
    if not profile:
        profile = [(s_star, c_star)]
    return SpeedResult(c_star, -s_star * xi_star, e, profile, "closed-form",
                       diagnostics={"A_bar": A_bar.tolist(), "q_bar": q_bar.tolist(),
                                    "mu_bar": mu_bar})


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
    A = PeriodicField("matrix", ((a.entries,),), geometry,
                      time_independent=a.time_independent,
                      space_independent=a.space_independent, check_flags=False)
    return CoefficientSet(A, zero_q, _reduced_mu(a, q1, mu, s, e1), geometry)


def shear_reduced_eigenvalue(a: PeriodicField, q1: PeriodicField, mu: PeriodicField,
                             e, lam_scalar: float, grid_y: Grid, **kw) -> EigenResult:
    """k of the reduced (N-1)-dimensional shear problem at wavevector
    lam_scalar * e (full space), via the equivalent 1D growth-rate shift."""
    _require_ty_fields(a, q1, mu)
    e = _unit(e, 2)
    reduced = _reduced_coeffs(a, q1, mu, -lam_scalar, e[0])
    return principal_eigenvalue(reduced, [lam_scalar * e[1]], grid_y, **kw)


def shear_full_coefficients(a: PeriodicField, q1: PeriodicField, mu: PeriodicField,
                            lengths=(1.0, 1.0)) -> CoefficientSet:
    """Lift (t,y) shear components to the full 2D cell: A = a I, q = (q1, 0)."""
    geo_y = a.geometry
    geo2 = CellGeometry(geo_y.period, (lengths[0], geo_y.lengths[0]))

    def lift(f):
        def fn(t, x1, y):
            return f(t, y) + 0.0 * x1
        return fn

    A2 = PeriodicField.matrix(lift(a), geo2, time_independent=a.time_independent,
                              space_independent=False, check_flags=False)
    q2 = PeriodicField.vector([lift(q1), 0.0], geo2,
                              time_independent=q1.time_independent,
                              space_independent=False, check_flags=False)
    mu2 = PeriodicField.scalar(lift(mu), geo2, time_independent=mu.time_independent,
                               space_independent=False, check_flags=False)
    return CoefficientSet(A2, q2, mu2, geo2)


def shear_speed(a: PeriodicField, q1: PeriodicField, mu: PeriodicField, e,
                grid_y: Grid, *, s_init: float = 1e-2, s_min: float = 1e-4,
                s_max: float = 1e4, tol: float = 1e-6,
                solver_kwargs: Optional[dict] = None) -> SpeedResult:
    """Spreading speed of a 2D shear flow via the reduced problem in y.

    ``solver_kwargs`` go to `principal_eigenvalue`; ``"richardson": True``
    extrapolates at the minimizer as in `spreading_speed`.
    """
    _require_ty_fields(a, q1, mu)
    e = _unit(e, 2)

    def problem(s, xi):
        return _reduced_coeffs(a, q1, mu, s, xi[0]), [-s * xi[1]]

    return _ray_speed(problem, grid_y, e, "shear-reduced", solver_kwargs=solver_kwargs,
                      s_init=s_init, s_min=s_min, s_max=s_max, tol=tol)
