"""Cross-dimension and Floquet-branch coverage: the 2D monodromy lane, the
time-dependent adjoint weighting, and the half-space refinement against its
closed-form oracle."""

import numpy as np
import pytest

from kppspeed.fields import CoefficientSet, PeriodicField
from kppspeed.operators import build_grid
from kppspeed.eigen import dk_dB_at_zero, principal_eigen_floquet, principal_eigen_steady
from kppspeed.speed import spreading_speed


def test_2d_floquet_time_dependent_contained():
    cs = CoefficientSet.from_expressions(
        A="1", mu="1 + 0.4*cos(2*pi*t)*cos(2*pi*x)*cos(2*pi*y)", L=(1.0, 1.0))
    g = build_grid(cs.geometry, (24, 24), 128)
    r = principal_eigen_floquet(cs, [0.5, 0.0], g)
    assert r.lower <= r.k <= r.upper
    assert r.width <= 1e-4
    assert np.min(r.phi) > 0
    # concavity: the space-time oscillation lowers k below the averaged medium
    assert r.k <= -(1 + 0.25)


def test_2d_floquet_matches_steady_route():
    cs = CoefficientSet.from_expressions(
        A="1", mu="1 + 0.4*cos(2*pi*x)*cos(2*pi*y)", L=(1.0, 1.0))
    g = build_grid(cs.geometry, (24, 24), 128)
    rf = principal_eigen_floquet(cs, [0.5, 0.0], g)
    rs = principal_eigen_steady(cs, [0.5, 0.0], g)
    assert abs(rf.k - rs.k) <= 1e-6


def test_dk_db_floquet_pair_constant_in_space():
    # x-independent time-periodic base: psi*psi_tilde = 1/(T|C|) at every
    # level, so the derivative is minus the space-time mean of eta
    cs = CoefficientSet.from_expressions(A="1", mu="1 + 0.3*sin(2*pi*t)")
    g = build_grid(cs.geometry, 32, 256)
    eta = PeriodicField.scalar("cos(4*pi*x)*(1 + sin(2*pi*t)) + 0.25", cs.geometry)
    assert dk_dB_at_zero(cs, [0.6], eta, g) == pytest.approx(-0.25, abs=1e-8)


def test_dk_db_floquet_pair_finite_difference():
    cs = CoefficientSet.from_expressions(A="1", mu="1 + 0.4*cos(2*pi*t)*cos(2*pi*x)")
    g = build_grid(cs.geometry, 128, 256)
    eta = PeriodicField.scalar("cos(4*pi*x)", cs.geometry)
    lam = [0.5]
    d = dk_dB_at_zero(cs, lam, eta, g)
    h = 1e-4
    k0 = principal_eigen_floquet(cs, lam, g).k
    csb = CoefficientSet.from_expressions(
        A="1", mu=f"1 + 0.4*cos(2*pi*t)*cos(2*pi*x) + {h}*cos(4*pi*x)")
    fd = (principal_eigen_floquet(csb, lam, g).k - k0) / h
    assert abs(d - fd) <= 1e-3 * abs(k0)


def test_oblique_drift_closed_form():
    # A = I, q = (0, 1), mu = 1, e = e1: minimize (2 + sin th)/cos th over
    # the half-space; the minimum sqrt(3) sits at th = -pi/6
    cs = CoefficientSet.from_expressions(A="1", q=("0", "1"), mu="1", L=(1.0, 1.0))
    g = build_grid(cs.geometry, (16, 16))
    r = spreading_speed(cs, [1.0, 0.0], g, refine=True)
    assert r.c_star == pytest.approx(np.sqrt(3.0), abs=1e-10)
    xi = -r.lam_star / np.linalg.norm(r.lam_star)
    assert xi[0] == pytest.approx(np.cos(-np.pi / 6), abs=1e-6)
    assert xi[1] == pytest.approx(np.sin(-np.pi / 6), abs=1e-6)


def test_half_space_refinement_beats_axial_ray():
    # same medium: the axial ray gives (2 + 0)/1 = 2, the true half-space
    # minimum is sqrt(3); the coordinate-descent refinement must find it
    cs = CoefficientSet.from_expressions(A="1", q=("0", "1"), mu="1", L=(1.0, 1.0))
    g = build_grid(cs.geometry, (16, 16))
    ray = spreading_speed(cs, [1.0, 0.0], g)
    refined = spreading_speed(cs, [1.0, 0.0], g, refine=True)
    assert ray.c_star == pytest.approx(2.0, abs=1e-6)
    assert refined.c_star == pytest.approx(np.sqrt(3.0), abs=1e-6)
    assert refined.diagnostics["c_star_ray"] == pytest.approx(2.0, abs=1e-6)
    assert float(np.dot(refined.lam_star, [1.0, 0.0])) < 0
