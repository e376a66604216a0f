import math

import numpy as np
import pytest

from kppspeed import eigen
from kppspeed.fields import CoefficientSet, PeriodicField
from kppspeed.operators import CoefficientSamples, build_grid
from kppspeed.eigen import principal_eigenvalue
from kppspeed import speed
from kppspeed.speed import (
    NoSpreadingError,
    SpeedError,
    UnimodalityError,
    _check_unimodal,
    _golden_min,
    _parabolic_min,
    shear_full_coefficients,
    shear_reduced_eigenvalue,
    shear_speed,
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


def test_closed_form_agrees_with_floquet_ray_search():
    # c* = 2 sqrt(<A> mu) for space-independent coefficients
    cs = coeffs(A="2 + cos(2*pi*t)")
    ray = spreading_speed(cs, [1.0], build_grid(cs.geometry, 32, 512), route="floquet")
    assert abs(ray.c_star - 2 * np.sqrt(2.0)) <= 1e-3


def test_homogeneous_route_consistency():
    cs = coeffs(A="1.3", q="0.4", mu="0.9")
    a, q0, mu0 = 1.3, 0.4, 0.9
    expected = 2 * np.sqrt(mu0 * a) + q0
    ray = spreading_speed(cs, [1.0], build_grid(cs.geometry, 128)).c_star
    assert ray == pytest.approx(expected, abs=1e-3)


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
    def not_the_minimum(g, s_init, tol):
        samples = [(s, g(s)) for s in (0.5, 1.0, 2.0)]
        return max(samples, key=lambda p: p[1])

    monkeypatch.setattr(speed, "_parabolic_min", not_the_minimum)
    cs = coeffs()
    with pytest.raises(SpeedError, match="above the value"):
        spreading_speed(cs, [1.0], build_grid(cs.geometry, 32))


@pytest.mark.parametrize("f, a, b, c, s_min", [
    (lambda s: s + 1.0 / s, 0.25, 0.5, 4.0, 1.0),
    (lambda s: s * s / 8.0 - math.log(s), 0.5, 1.0, 8.0, 2.0),
    (lambda s: math.exp(s) - 3.0 * s, 0.1, 0.2, 3.0, math.log(3.0)),
], ids=["s+1/s", "skewed-log", "skewed-exp"])
def test_brent_finds_the_minimizer_in_fewer_points_than_golden_section(
        f, a, b, c, s_min):
    # _parabolic_min is a Brent-style search (parabolic steps, safeguarded by
    # bisection); it starts at b and brackets by itself, while golden section
    # gets the bracket [a, c] for free
    tol = 1e-6
    seen = []

    def g(s):
        seen.append((s, f(s)))
        return seen[-1][1]

    x, fx = _parabolic_min(g, b, tol)
    assert seen[0][0] == b
    assert abs(x - s_min) <= tol * max(1.0, s_min)
    assert fx == min(v for _, v in seen)
    search_points = len(seen)
    seen.clear()
    _golden_min(g, a, c, tol)
    assert search_points < len(seen)


@pytest.mark.parametrize("richardson", [False, True], ids=["steady", "floquet-richardson"])
def test_search_solve_count_ignores_roundoff_in_k(monkeypatch, richardson):
    # k scaled by 1 -/+ 1e-12 relative, below what the objective resolves,
    # must not change how many eigensolves a search makes
    if richardson:
        cs = coeffs(mu="1 + 0.5*cos(2*pi*(x - t))")
        grid = build_grid(cs.geometry, 64, 16)
    else:
        cs = coeffs(mu="1 + 0.5*cos(2*pi*x)", q="0.3*sin(2*pi*x)")
        grid = build_grid(cs.geometry, 128)
    solve = speed.principal_eigenvalue

    def search(scale):
        def scaled(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.k *= scale
            return res

        monkeypatch.setattr(speed, "principal_eigenvalue", scaled)
        return spreading_speed(cs, [1.0], grid, richardson=richardson)

    runs = [search(scale) for scale in (1.0, 1.0 - 1e-12, 1.0 + 1e-12)]
    assert runs[0].eigen.route == ("floquet" if richardson else "steady")
    assert len({r.diagnostics["solves"] for r in runs}) == 1
    assert max(abs(r.c_star - runs[0].c_star) for r in runs) <= 1e-10 * runs[0].c_star


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


def test_a_ray_search_samples_its_coefficients_once(monkeypatch):
    # one CoefficientSamples per search, and with Richardson one more for
    # the doubled time levels
    made = []
    init = CoefficientSamples.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CoefficientSamples, "__init__", counted)
    cs = coeffs(mu="1 + 0.5*cos(2*pi*x)")
    spreading_speed(cs, [1.0], build_grid(cs.geometry, 64))
    assert len(made) == 1
    made.clear()
    cs_t = coeffs(mu="1 + 0.5*cos(2*pi*x)*(1 + 0.5*sin(2*pi*t))")
    r = spreading_speed(cs_t, [1.0], build_grid(cs_t.geometry, 64, 16), richardson=True)
    assert r.route == "ray-search" and r.eigen.route == "floquet"
    assert len(made) == 2


def test_steady_search_counts_its_solves():
    cs = coeffs(mu="1 + 0.5*cos(2*pi*x)")
    r = spreading_speed(cs, [1.0], build_grid(cs.geometry, 64))
    assert r.diagnostics["solves"] == len(r.records) + 1
    assert "c_star_coarse" not in r.diagnostics


def test_ray_bracket_starts_at_the_homogeneous_minimizer():
    # constant coefficients: k_0 = -1 and <e.A.e> = 2, so the first point of
    # the search is s = sqrt(1/2), the exact minimizer; the shear search
    # starts the same way with <a>; a search told <e.A.e> = 1e4 starts cold,
    # at sqrt(1/1e4) = 1e-2
    cs = coeffs(A="2")
    g = build_grid(cs.geometry, 64)
    r = spreading_speed(cs, [1.0], g)
    assert r.records[0]["s"] == pytest.approx(math.sqrt(0.5), rel=1e-9)
    assert r.c_star == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-6)
    samples = CoefficientSamples(cs, g)
    cold = speed._ray_speed(lambda s, xi: (samples, -s * xi), g, np.array([1.0]),
                            "ray-search", eigen_route="auto", richardson=False,
                            mean_diffusion=1e4, tol=1e-6)
    assert cold.records[0]["s"] == pytest.approx(1e-2, rel=1e-9)
    assert r.diagnostics["solves"] < cold.diagnostics["solves"]
    assert r.c_star == pytest.approx(cold.c_star, abs=1e-9)
    geo = cs.geometry
    one = PeriodicField.scalar("1", geo)
    shear = shear_speed(PeriodicField.scalar("2", geo), PeriodicField.scalar("0", geo),
                        one, [1.0, 0.0], g)
    assert shear.records[0]["s"] == pytest.approx(math.sqrt(0.5), rel=1e-9)


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
    r = shear_speed(a, q1, mu, e, build_grid(geo, 32, 16), richardson=True)
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
