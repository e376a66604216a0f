import math

import numpy as np
import pytest

from kppspeed import eigen
from kppspeed.fields import CoefficientSet, PeriodicField
from kppspeed.operators import build_grid
from kppspeed.eigen import principal_eigenvalue
from kppspeed import speed
from kppspeed.speed import (
    NoSpreadingError,
    SpeedError,
    UnimodalityError,
    _brent_min,
    _check_unimodal,
    _golden_min,
    shear_full_coefficients,
    shear_reduced_eigenvalue,
    shear_speed,
    speed_x_independent,
    spreading_speed,
)


def coeffs(A="1", q=None, mu="1", T=1.0, L=1.0):
    return CoefficientSet.from_expressions(A=A, q=q, mu=mu, T=T, L=L)


def test_homogeneous_speed():
    cs = coeffs()
    r = spreading_speed(cs, [1.0], build_grid(cs.geometry, 256))
    assert r.c_star == pytest.approx(2.0, abs=1e-4)
    assert r.lam_star[0] < 0
    assert r.eigen is not None and r.eigen.lower <= r.eigen.k <= r.eigen.upper
    assert all(v >= r.c_star - 1e-8 for _, v in r.profile)


def test_constant_drift_speed():
    cs = coeffs(q="1")
    r = spreading_speed(cs, [1.0], build_grid(cs.geometry, 256))
    assert r.c_star == pytest.approx(3.0, abs=1e-3)


def test_periodic_mu_strictly_faster_and_grid_consistent():
    cs = coeffs(mu="1 + 0.5*cos(2*pi*x)")
    r256 = spreading_speed(cs, [1.0], build_grid(cs.geometry, 256))
    r512 = spreading_speed(cs, [1.0], build_grid(cs.geometry, 512))
    assert r256.c_star > 2.0
    assert abs(r256.c_star - r512.c_star) <= 1e-3


def test_no_spreading_reported():
    cs = coeffs(mu="-1")
    with pytest.raises(NoSpreadingError):
        spreading_speed(cs, [1.0], build_grid(cs.geometry, 64))
    with pytest.raises(NoSpreadingError):
        speed_x_independent(cs, [1.0])


def test_speed_x_independent_examples():
    assert speed_x_independent(coeffs(), [1.0]).c_star == pytest.approx(2.0, abs=1e-12)
    assert speed_x_independent(coeffs(q="1"), [1.0]).c_star == pytest.approx(3.0, abs=1e-12)
    r = speed_x_independent(coeffs(A="2 + cos(2*pi*t)"), [1.0])
    assert r.c_star == pytest.approx(2 * np.sqrt(2.0), abs=1e-10)
    # k_x_independent reads the same time averages: k(lam*)/(lam*.e) is c*
    cs = coeffs(A="2 + cos(2*pi*t)", q="0.3 + 0.2*sin(2*pi*t)", mu="1 + 0.5*cos(2*pi*t)")
    r = speed_x_independent(cs, [1.0])
    k = eigen.k_x_independent(cs, r.lam_star)
    assert k / float(r.lam_star @ r.e) == pytest.approx(r.c_star, abs=1e-12)
    with pytest.raises(SpeedError):
        speed_x_independent(coeffs(mu="1 + 0.5*cos(2*pi*x)"), [1.0])


def test_closed_form_agrees_with_floquet_ray_search():
    cs = coeffs(A="2 + cos(2*pi*t)")
    closed = speed_x_independent(cs, [1.0])
    ray = spreading_speed(cs, [1.0], build_grid(cs.geometry, 32, 512), route="floquet")
    assert abs(closed.c_star - ray.c_star) <= 1e-3


def test_homogeneous_route_consistency():
    cs = coeffs(A="1.3", q="0.4", mu="0.9")
    a, q0, mu0 = 1.3, 0.4, 0.9
    expected = 2 * np.sqrt(mu0 * a) + q0
    ray = spreading_speed(cs, [1.0], build_grid(cs.geometry, 128)).c_star
    closed = speed_x_independent(cs, [1.0]).c_star
    assert ray == pytest.approx(expected, abs=1e-3)
    assert closed == pytest.approx(expected, abs=1e-12)


def test_growth_shift_speeds_up():
    base = coeffs(mu="1 + 0.5*cos(2*pi*x)")
    boosted = coeffs(mu="1.3 + 0.5*cos(2*pi*x)")
    g = build_grid(base.geometry, 256)
    assert (spreading_speed(boosted, [1.0], g).c_star
            > spreading_speed(base, [1.0], g).c_star)


def test_unimodality_guard():
    _check_unimodal([(0.5, 3.0), (1.0, 2.0), (2.0, 2.5), (4.0, 3.5)])
    with pytest.raises(UnimodalityError):
        _check_unimodal([(0.5, 3.0), (1.0, 2.0), (2.0, 2.5), (4.0, 2.2)])


def test_search_returning_a_non_minimum_raises(monkeypatch):
    def not_the_minimum(g, s_init, s_min, s_max, tol):
        samples = [(s, g(s)) for s in (0.5, 1.0, 2.0)]
        return max(samples, key=lambda p: p[1])

    monkeypatch.setattr(speed, "_bracket_and_minimize", not_the_minimum)
    cs = coeffs()
    with pytest.raises(SpeedError, match="above the value"):
        spreading_speed(cs, [1.0], build_grid(cs.geometry, 32))


@pytest.mark.parametrize("f, a, b, c, s_min", [
    (lambda s: s + 1.0 / s, 0.25, 0.5, 4.0, 1.0),
    (lambda s: s * s / 8.0 - math.log(s), 0.5, 1.0, 8.0, 2.0),
    (lambda s: math.exp(s) - 3.0 * s, 0.1, 0.2, 3.0, math.log(3.0)),
], ids=["s+1/s", "skewed-log", "skewed-exp"])
def test_brent_finds_the_minimizer_in_fewer_points_than_golden_section(f, a, b, c, s_min):
    tol = 1e-6
    seen = []

    def g(s):
        seen.append((s, f(s)))
        return seen[-1][1]

    x, fx = _brent_min(g, a, b, c, f(b), tol)
    assert abs(x - s_min) <= tol * max(1.0, s_min)
    assert fx == min([f(b)] + [v for _, v in seen])
    brent_points = len(seen)
    seen.clear()
    _golden_min(g, a, c, tol)
    assert brent_points < len(seen)


def _per_point_richardson_speed(cs, grid, tol):
    """The ray search with Richardson at every point: doubling bracket from
    s = 0.01, then golden section on k_extrapolated/(lam.e)."""
    def g(s):
        return principal_eigenvalue(cs, [-s], grid, route="floquet",
                                    richardson=True).k_extrapolated / -s

    assert principal_eigenvalue(cs, [0.0], grid, route="floquet",
                                richardson=True).k_extrapolated < 0
    a, b = 0.01, 0.02
    fb = g(b)
    assert fb <= g(a)  # the minimizer lies beyond s = 0.02
    while True:
        c = 2 * b
        fc = g(c)
        if fc >= fb:
            break
        a, b, fb = b, c, fc
    return _golden_min(g, a, c, tol)[1]


def test_richardson_at_the_minimizer_matches_richardson_everywhere(monkeypatch):
    cs = coeffs(mu="1 + 0.5*cos(2*pi*x)*(1 + 0.5*sin(2*pi*t))")
    grid = build_grid(cs.geometry, 64, 16)
    solves = []
    floquet = eigen.principal_eigen_floquet

    def counted(*args, **kwargs):
        solves.append(1)
        return floquet(*args, **kwargs)

    monkeypatch.setattr(eigen, "principal_eigen_floquet", counted)
    r = spreading_speed(cs, [1.0], grid, route="floquet", richardson=True, tol=1e-7)
    n_search = len(solves)
    solves.clear()
    c_ref = _per_point_richardson_speed(cs, grid, 1e-7)
    assert abs(r.c_star - c_ref) <= 1e-10
    assert 2 * n_search <= len(solves)
    assert r.diagnostics["solves"] == n_search
    # the search ran on the coarse objective; the reported speed is the
    # extrapolated one at its minimizer, whose fine solve is the last record
    assert r.diagnostics["c_star_coarse"] == min(v for _, v in r.profile)
    assert r.c_star != r.diagnostics["c_star_coarse"]
    assert r.records[-1]["k"] == r.eigen.k
    assert r.eigen.diagnostics["k_coarse"] != r.eigen.k
    assert r.c_star == r.eigen.k_extrapolated / float(np.dot(r.lam_star, r.e))


def test_steady_search_counts_its_solves():
    cs = coeffs(mu="1 + 0.5*cos(2*pi*x)")
    r = spreading_speed(cs, [1.0], build_grid(cs.geometry, 64))
    assert r.diagnostics["solves"] == len(r.records) + 1
    assert "c_star_coarse" not in r.diagnostics


def test_2d_ray_and_refinement_match_on_isotropic_medium():
    cs = CoefficientSet.from_expressions(A="1", mu="1", L=(1.0, 1.0))
    g = build_grid(cs.geometry, (24, 24))
    r = spreading_speed(cs, [1.0, 0.0], g, refine=True)
    assert r.c_star == pytest.approx(2.0, abs=1e-3)
    assert r.diagnostics["c_star_ray"] == pytest.approx(r.c_star, abs=1e-6)


def test_shear_trivial_reduces_to_homogeneous():
    geo = coeffs().geometry
    a = PeriodicField.scalar("1", geo)
    q1 = PeriodicField.scalar("0", geo)
    mu = PeriodicField.scalar("1", geo)
    r = shear_speed(a, q1, mu, [1.0, 0.0], build_grid(geo, 128))
    assert r.c_star == pytest.approx(2.0, abs=1e-4)


def test_shear_speedup_is_monotone_in_amplitude():
    geo = coeffs().geometry
    a = PeriodicField.scalar("1", geo)
    mu = PeriodicField.scalar("1", geo)
    g = build_grid(geo, 128)
    vals = []
    for B in (0.0, 1.0, 2.0, 4.0):
        q1 = PeriodicField.scalar(f"{B}*cos(2*pi*x)", geo)
        vals.append(shear_speed(a, q1, mu, [1.0, 0.0], g).c_star)
    assert all(b > a_ + 1e-4 for a_, b in zip(vals, vals[1:]))


def test_shear_speed_uses_the_richardson_value():
    geo = coeffs().geometry
    a = PeriodicField.scalar("1", geo)
    q1 = PeriodicField.scalar("1.5*cos(2*pi*(x - t))", geo)
    mu = PeriodicField.scalar("1", geo)
    e = np.array([1.0, 0.0])
    r = shear_speed(a, q1, mu, e, build_grid(geo, 32, 16),
                    solver_kwargs={"route": "floquet", "richardson": True})
    assert r.eigen.k_extrapolated != r.eigen.k
    c_of_k = r.eigen.k_extrapolated / float(np.dot(r.lam_star, e))
    assert abs(r.c_star - c_of_k) <= 1e-12 * abs(r.c_star)


def test_shear_reduced_matches_full_2d_eigenvalue():
    geo = coeffs().geometry
    a = PeriodicField.scalar("1", geo)
    q1 = PeriodicField.scalar("cos(2*pi*x)", geo)
    mu = PeriodicField.scalar("1", geo)
    red = shear_reduced_eigenvalue(a, q1, mu, [1.0, 0.0], 0.7, build_grid(geo, 64))
    full_cs = shear_full_coefficients(a, q1, mu)
    full = principal_eigenvalue(full_cs, [0.7, 0.0], build_grid(full_cs.geometry, (64, 64)))
    assert abs(red.k - full.k) <= 1e-5


@pytest.mark.parametrize("a_text", ["1 + 0.3*cos(2*pi*x)",
                                    "1 + 0.3*cos(2*pi*x)*(1 + 0.5*sin(2*pi*t))"],
                         ids=["steady", "floquet"])
@pytest.mark.parametrize("lam", [(0.7, 0.3), (0.0, -0.8)])
def test_shear_full_equals_reduced_off_the_shear_axis(a_text, lam):
    # with every derivative of a sampled field a centered difference, the lifted
    # 2D problem and the reduced 1D one are the same discrete operator, also
    # at lam_y != 0
    geo = coeffs().geometry
    a = PeriodicField.scalar(a_text, geo)
    q1 = PeriodicField.scalar("cos(2*pi*x)", geo)
    mu = PeriodicField.scalar("1", geo)
    lam = np.array(lam)
    size = float(np.linalg.norm(lam))
    red = shear_reduced_eigenvalue(a, q1, mu, lam / size, size, build_grid(geo, 24, 16))
    full_cs = shear_full_coefficients(a, q1, mu)
    full = principal_eigenvalue(full_cs, lam, build_grid(full_cs.geometry, (24, 24), 16))
    assert abs(red.k - full.k) <= 1e-11


def test_potential_drift_never_beats_homogeneous():
    from kppspeed.fields import gradient_drift
    geo = coeffs().geometry
    Q = PeriodicField.scalar("0.3*cos(2*pi*x)", geo)
    q, _ = gradient_drift(Q)
    g = build_grid(geo, 512)
    base = CoefficientSet(PeriodicField.matrix("1", geo), q,
                          PeriodicField.scalar("1", geo), geo)
    for B in (1.0, 2.0, 5.0):
        cs = base.with_scaled(drift_B=B)
        assert spreading_speed(cs, [1.0], g).c_star <= 2.0 + 1e-6
