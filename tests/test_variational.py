import numpy as np
import pytest

from kppspeed.fields import (CoefficientSet, FieldError, NonEllipticError, PeriodicField,
                             ellipticity_bounds)
from kppspeed.operators import build_grid
from kppspeed.eigen import principal_eigen_steady
from kppspeed.variational import (
    compjlambda_lower_bound,
    effective_diffusivity,
    k0_rayleigh,
    rayleigh_upper_bound,
)

GEO = CoefficientSet.from_expressions().geometry
A_I = PeriodicField.matrix("1", GEO)
A_COS = PeriodicField.matrix("2 + cos(2*pi*x)", GEO)
MU_COS = PeriodicField.scalar("1 + 0.5*cos(2*pi*x)", GEO)
CS_COS = CoefficientSet.from_expressions(A="1", mu="1 + 0.5*cos(2*pi*x)")


def test_effective_diffusivity_identity():
    g = build_grid(GEO, 256)
    r = effective_diffusivity(A_I, [1.0], g)
    assert r.d_effective == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(r.chi, 0.0, atol=1e-12)


def test_effective_diffusivity_harmonic_mean():
    # 1D cell ODE: D equals the harmonic mean 1/<1/a>; for a = 2 + cos it is sqrt(3)
    g = build_grid(GEO, 512)
    r = effective_diffusivity(A_COS, [1.0], g)
    assert r.d_effective == pytest.approx(np.sqrt(3.0), abs=1e-4)
    assert abs(r.chi.mean()) <= 1e-12
    # quadrature oracle for the harmonic mean
    x = np.linspace(0, 1, 200001)
    harm = 1.0 / np.trapezoid(1.0 / (2 + np.cos(2 * np.pi * x)), x)
    assert r.d_effective == pytest.approx(harm, abs=1e-4)


def test_effective_diffusivity_never_beats_zero_candidate():
    g = build_grid(GEO, 256)
    r = effective_diffusivity(A_COS, [1.0], g)
    assert r.d_effective <= 2.0 + 1e-12  # cell mean of 2 + cos


def test_effective_diffusivity_homogeneity_and_bounds():
    g = build_grid(GEO, 256)
    base = effective_diffusivity(A_COS, [1.0], g).d_effective
    scaled = effective_diffusivity(
        PeriodicField.matrix("3*(2 + cos(2*pi*x))", GEO), [1.0], g).d_effective
    assert scaled == pytest.approx(3.0 * base, abs=1e-10)
    gamma, Gamma = ellipticity_bounds(A_COS)
    assert gamma - 1e-9 <= base <= Gamma + 1e-9


def test_effective_diffusivity_2d_layered():
    # layered medium a(x): harmonic mean across the layers, arithmetic along
    geo2 = CoefficientSet.from_expressions(A="1", mu="1", L=(1.0, 1.0)).geometry
    A2 = PeriodicField.matrix("2 + cos(2*pi*x)", geo2)
    g = build_grid(geo2, (64, 8))
    across = effective_diffusivity(A2, [1.0, 0.0], g).d_effective
    along = effective_diffusivity(A2, [0.0, 1.0], g).d_effective
    assert across == pytest.approx(np.sqrt(3.0), abs=1e-3)
    assert along == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("dim, A, error", [
    (2, {"a11": "2", "a22": "2", "a12": "0", "a21": "0.5*cos(2*pi*x)"}, FieldError),
    (1, "cos(2*pi*x)", NonEllipticError),
], ids=["asymmetric", "not-elliptic"])
def test_cell_problem_and_upper_bound_reject_a_bad_diffusion(dim, A, error):
    geo = CoefficientSet.from_expressions(L=(1.0,) * dim).geometry
    A = PeriodicField.matrix(A, geo)
    g = build_grid(geo, 16)
    e = [1.0] + [0.0] * (dim - 1)
    with pytest.raises(error):
        effective_diffusivity(A, e, g)
    with pytest.raises(error):
        rayleigh_upper_bound(A, PeriodicField.scalar("1", geo), 1.0, 0.5, e,
                             PeriodicField.scalar("1", geo), g)


def test_k0_rayleigh_examples():
    g = build_grid(GEO, 256)
    assert k0_rayleigh(A_I, 2.5, g) == pytest.approx(-2.5, abs=1e-10)
    assert k0_rayleigh(A_I, -1.0, g) == pytest.approx(1.0, abs=1e-10)
    # route equivalence against the nonsymmetric-solver path
    k_arp = k0_rayleigh(A_I, MU_COS, g)
    k_pow = principal_eigen_steady(CS_COS, [0.0], g).k
    assert abs(k_arp - k_pow) <= 1e-8


def test_k0_rayleigh_is_deterministic():
    g = build_grid(GEO, 256)
    assert k0_rayleigh(A_COS, MU_COS, g) == k0_rayleigh(A_COS, MU_COS, g)


def test_rayleigh_upper_bound_constant_saturates():
    g = build_grid(GEO, 256)
    alpha = PeriodicField.scalar("1", GEO)
    val = rayleigh_upper_bound(A_I, PeriodicField.scalar("1", GEO), 1.0, 0.9,
                               [1.0], alpha, g)
    assert val == pytest.approx(-(1 + 0.9**2), abs=1e-10)


def test_rayleigh_upper_bound_dominates_eigensolver():
    g = build_grid(GEO, 256)
    k = principal_eigen_steady(CS_COS, [0.8], g).k
    for alpha_expr in ("1", "1 + 0.2*cos(2*pi*x)", "1 + 0.1*sin(2*pi*x)"):
        alpha = PeriodicField.scalar(alpha_expr, GEO)
        val = rayleigh_upper_bound(A_I, MU_COS, 1.0, 0.8, [1.0], alpha, g)
        assert val >= k - 1e-9
    # constant alpha against the mean medium: -1 - lam^2 >= k
    val = rayleigh_upper_bound(A_I, MU_COS, 1.0, 0.8, [1.0],
                               PeriodicField.scalar("1", GEO), g)
    assert val == pytest.approx(-(1 + 0.64), abs=1e-10)
    assert val >= k


def test_rayleigh_upper_bound_near_optimal_candidate():
    g = build_grid(GEO, 256)
    phi = principal_eigen_steady(CS_COS, [0.0], g).phi
    val = rayleigh_upper_bound(A_I, MU_COS, 1.0, 0.1, [1.0], phi, g)
    k = principal_eigen_steady(CS_COS, [0.1], g).k
    assert abs(val - k) <= 1e-3


def test_rayleigh_upper_bound_rejects_bad_alpha():
    g = build_grid(GEO, 256)
    with pytest.raises(ValueError):
        rayleigh_upper_bound(A_I, MU_COS, 1.0, 0.5, [1.0],
                             PeriodicField.scalar("cos(2*pi*x)", GEO), g)


def test_kappa_concavity_of_eigenvalue():
    g = build_grid(GEO, 256)
    ks = {}
    for kap in (0.5, 1.0, 2.0):
        cs = CoefficientSet.from_expressions(A=f"{kap}*(2 + cos(2*pi*x))",
                                             mu="1 + 0.5*cos(2*pi*x)")
        ks[kap] = principal_eigen_steady(cs, [1.0], g).k
    assert ks[1.0] >= 0.5 * (ks[0.5] + ks[2.0]) - 1e-10


def test_compjlambda_constant_coefficients_saturate():
    g = build_grid(GEO, 256)
    cs = CoefficientSet.from_expressions(A="1", q="0.4", mu="1")
    lam = [0.7]
    bound = compjlambda_lower_bound(cs, lam, g)
    exact = -(0.7**2 - 0.7 * 0.4 + 1)
    assert bound == pytest.approx(exact, abs=1e-9)


def test_compjlambda_inequality_periodic_mu():
    g = build_grid(GEO, 256)
    bound = compjlambda_lower_bound(CS_COS, [1.0], g)
    k = principal_eigen_steady(CS_COS, [1.0], g).k
    assert bound <= k + 1e-9
    # with q = 0 the bound is the gauge-shifted k_0
    k0 = principal_eigen_steady(CS_COS, [0.0], g).k
    assert bound == pytest.approx(k0 - 1.0, abs=1e-8)


def test_compjlambda_gradient_drift_case():
    from kppspeed.fields import gradient_drift
    Q = PeriodicField.scalar("0.3*cos(2*pi*x)", GEO)
    q, _ = gradient_drift(Q)
    cs = CoefficientSet(A_I, q, PeriodicField.scalar("1", GEO), GEO)
    g = build_grid(GEO, 256)
    lam = [0.5]
    bound = compjlambda_lower_bound(cs, lam, g)
    k = principal_eigen_steady(cs, lam, g).k
    assert bound <= k + 1e-9
