import pytest

from kppspeed.fields import CoefficientSet, FieldError, NonEllipticError, PeriodicField
from kppspeed.operators import build_grid
from kppspeed.eigen import principal_eigen_steady
from kppspeed.variational import compjlambda_lower_bound, k0_rayleigh

GEO = CoefficientSet.from_expressions().geometry
A_I = PeriodicField.matrix("1", GEO)
A_COS = PeriodicField.matrix("2 + cos(2*pi*x)", GEO)
MU_COS = PeriodicField.scalar("1 + 0.5*cos(2*pi*x)", GEO)
CS_COS = CoefficientSet.from_expressions(A="1", mu="1 + 0.5*cos(2*pi*x)")


@pytest.mark.parametrize("dim, A, error", [
    (2, {"a11": "2", "a22": "2", "a12": "0", "a21": "0.5*cos(2*pi*x)"}, FieldError),
    (1, "cos(2*pi*x)", NonEllipticError),
], ids=["asymmetric", "not-elliptic"])
def test_k0_rayleigh_rejects_a_bad_diffusion(dim, A, error):
    geo = CoefficientSet.from_expressions(L=(1.0,) * dim).geometry
    with pytest.raises(error):
        k0_rayleigh(PeriodicField.matrix(A, geo), 1.0, build_grid(geo, 16))


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
