import numpy as np
import pytest

from kppspeed.fields import CoefficientSet, PeriodicField
from kppspeed.operators import build_grid
from kppspeed.eigen import (
    EigenConvergenceError,
    EigenError,
    PositivityError,
    adjoint_eigenpair,
    dk_dB_at_zero,
    eigen_sandwich,
    k_x_independent,
    principal_eigen_floquet,
    principal_eigen_steady,
    principal_eigenvalue,
    _power_iterate,
)

# Independent oracle (dense symmetric eigensolve of the assembled n=512
# operator, frozen): smallest eigenvalue of -Lap - diag(1 + 0.5 cos(2 pi x))
K0_STAR_512 = -1.0031661045671572


def coeffs(A="1", q=None, mu="1", T=1.0, L=1.0, params=None):
    return CoefficientSet.from_expressions(A=A, q=q, mu=mu, T=T, L=L, params=params)


COS_MU = "1 + 0.5*cos(2*pi*x)"


def test_steady_constants():
    cs = coeffs(A="1", mu="1")
    g = build_grid(cs.geometry, 64)
    r = principal_eigen_steady(cs, [1.0], g)
    assert r.k == pytest.approx(-2.0, abs=1e-8)
    assert r.lower <= r.k <= r.upper
    assert np.min(r.phi) > 0 and np.max(r.phi) == 1.0


def test_steady_periodic_mu_matches_dense_oracle():
    cs = coeffs(mu=COS_MU)
    g = build_grid(cs.geometry, 512)
    r = principal_eigen_steady(cs, [0.0], g)
    assert r.k == pytest.approx(K0_STAR_512, abs=1e-8)
    # oracle recomputed in-place to guard the frozen constant
    n, h = 512, 1.0 / 512
    x = np.arange(n) * h
    lap = np.zeros((n, n))
    i = np.arange(n)
    lap[i, i] = -2.0 / h**2
    lap[i, (i + 1) % n] = lap[i, (i - 1) % n] = 1.0 / h**2
    dense = np.linalg.eigvalsh(-(lap + np.diag(1 + 0.5 * np.cos(2 * np.pi * x))))
    assert dense[0] == pytest.approx(K0_STAR_512, abs=1e-10)


def test_steady_gauge_shift_exact():
    g = build_grid(coeffs().geometry, 512)
    r0 = principal_eigen_steady(coeffs(mu=COS_MU), [0.0], g)
    r1 = principal_eigen_steady(coeffs(mu=COS_MU + " + 1"), [0.0], g)
    assert r1.k == pytest.approx(r0.k - 1.0, abs=1e-10)


def test_floquet_time_only_growth():
    cs = coeffs(mu="1 + sin(2*pi*t)")
    g = build_grid(cs.geometry, 16, 512)
    r = principal_eigen_floquet(cs, [0.0], g)
    assert r.k == pytest.approx(-1.0, abs=1e-6)
    assert r.lower <= r.k <= r.upper


def test_floquet_matches_steady_on_time_independent_input():
    cs = coeffs(mu=COS_MU)
    g = build_grid(cs.geometry, 256, 256)
    rf = principal_eigen_floquet(cs, [1.0], g)
    rs = principal_eigen_steady(cs, [1.0], g)
    assert abs(rf.k - rs.k) <= 1e-6
    assert rf.lower <= rf.k <= rf.upper


def test_floquet_space_time_mu_bracketed_and_below_average():
    # averaging lowers speed: k(mu) <= k(mean mu) = -1
    cs = coeffs(mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)")
    g = build_grid(cs.geometry, 256, 512)
    r = principal_eigen_floquet(cs, [0.0], g)
    assert r.k <= -1.0
    assert r.lower <= r.k <= r.upper
    assert r.width <= 1e-5


def test_principal_eigenvalue_router():
    cs = coeffs(mu=COS_MU)
    g = build_grid(cs.geometry, 128, 128)
    assert principal_eigenvalue(cs, [0.0], g).route == "steady"
    cs_t = coeffs(mu="1 + 0.5*sin(2*pi*t)*cos(2*pi*x)")
    assert principal_eigenvalue(cs_t, [0.0], g).route == "floquet"
    with pytest.raises(ValueError):
        principal_eigenvalue(cs, [0.0], g, route="magic")


def test_richardson_extrapolation_tightens_floquet():
    cs = coeffs(mu="1 + 0.5*sin(2*pi*t)")
    g = build_grid(cs.geometry, 16, 128)
    r = principal_eigenvalue(cs, [0.0], g, route="floquet", richardson=True)
    assert r.k_extrapolated == pytest.approx(-1.0, abs=1e-8)
    assert r.grid.n_t == 256


def test_adjoint_self_adjoint_case():
    cs = coeffs(mu=COS_MU)
    g = build_grid(cs.geometry, 256)
    pair = adjoint_eigenpair(cs, [0.0], g)
    cos_sim = (np.dot(pair.phi, pair.phi_tilde)
               / np.linalg.norm(pair.phi) / np.linalg.norm(pair.phi_tilde))
    assert cos_sim >= 1 - 1e-8
    assert np.min(pair.phi_tilde) > 0


def test_adjoint_constants_normalization():
    cs = coeffs(A="1", mu="1", T=2.0, L=0.5)
    g = build_grid(cs.geometry, 64)
    pair = adjoint_eigenpair(cs, [0.7], g)
    np.testing.assert_allclose(pair.phi * pair.phi_tilde, 1.0 / (2.0 * 0.5), rtol=1e-10)


def test_adjoint_constant_drift_is_flat():
    cs = coeffs(A="1", q="0.5", mu="1")
    g = build_grid(cs.geometry, 64)
    pair = adjoint_eigenpair(cs, [1.0], g)
    assert pair.k == pytest.approx(-1.5, abs=1e-8)
    np.testing.assert_allclose(pair.phi, pair.phi[0], rtol=1e-10)
    np.testing.assert_allclose(pair.phi_tilde, pair.phi_tilde[0], rtol=1e-8)


def test_adjoint_floquet_pairing():
    cs = coeffs(q="0.2", mu="1 + 0.5*cos(2*pi*t)*cos(2*pi*x)")
    g = build_grid(cs.geometry, 128, 256)
    pair = adjoint_eigenpair(cs, [0.5], g)
    assert abs(pair.k - pair.k_adjoint) <= 1e-6
    total = g.dt * g.cell_measure() * np.sum(pair.phi * pair.phi_tilde)
    assert total == pytest.approx(1.0, abs=1e-8)
    assert np.min(pair.phi_tilde) > 0


def test_adjoint_floquet_compares_log_multipliers_at_coarse_dt():
    # the sandwich averages of the direct and the adjoint pair differ by the
    # O(dt^2) error of the centered time differences (4.8e-6 here), while the
    # log-multipliers of the period map and of its transpose agree
    cs = coeffs(A="1 + 0.3*cos(2*pi*x)", q="0.4*sin(2*pi*x)",
                mu="1 + 0.5*cos(2*pi*x)*(1 + 0.5*sin(2*pi*t))")
    g = build_grid(cs.geometry, 128, 32)
    pair = adjoint_eigenpair(cs, [0.7], g)
    assert pair.route == "floquet"
    assert 1e-6 < abs(pair.k - pair.k_adjoint) <= 1e-4
    assert pair.k == principal_eigen_floquet(cs, [0.7], g).k
    total = g.dt * g.cell_measure() * np.sum(pair.phi * pair.phi_tilde)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_adjoint_steady_raises_when_not_converged():
    # the direct eigenfunction is constant and settles in 2 iterations; the
    # adjoint one is not and needs 4
    cs = coeffs(q="3*sin(2*pi*x)")
    g = build_grid(cs.geometry, 64)
    with pytest.raises(EigenConvergenceError, match="adjoint steady"):
        adjoint_eigenpair(cs, [0.0], g, max_iter=3)
    assert adjoint_eigenpair(cs, [0.0], g, max_iter=4).k == pytest.approx(-1.0, abs=1e-12)


def test_power_iterate_raises_on_a_step_that_never_settles():
    estimates = iter(range(100))

    def measure(v, w, u):
        return float(next(estimates)), True

    with pytest.raises(EigenConvergenceError, match="did not settle in 20 iterations"):
        _power_iterate(lambda v: 2.0 * v, np.ones(4), measure, tol=1e-10,
                       max_iter=20, what="test iteration")


def test_power_iterate_waits_for_the_extra_condition():
    def measure(v, w, u):
        return 1.0, False

    with pytest.raises(EigenConvergenceError):
        _power_iterate(lambda v: v, np.ones(4), measure, tol=1e-10, max_iter=5,
                       what="test iteration")
    est, v, it = _power_iterate(lambda v: -3.0 * v, np.full(4, 2.0),
                                lambda v, w, u: (float(w @ v / (v @ v)), True),
                                tol=1e-10, max_iter=5, what="test iteration")
    assert (est, it) == (-3.0, 2)
    np.testing.assert_array_equal(np.abs(v), 1.0)


def test_k_x_independent_examples():
    assert k_x_independent(coeffs(A="1", mu="1"), [1.0]) == pytest.approx(-2.0, abs=1e-12)
    s, q0, mu0 = 1.0, 1.0, 1.0
    val = k_x_independent(coeffs(A="1", q=str(q0), mu=str(mu0)), [-s])
    assert val == pytest.approx(-(s**2 + s * q0 + mu0), abs=1e-12)
    val = k_x_independent(coeffs(A="2 + cos(2*pi*t)", mu="0"), [1.0])
    assert val == pytest.approx(-2.0, abs=1e-10)
    with pytest.raises(EigenError):
        k_x_independent(coeffs(mu=COS_MU), [0.0])


def test_sandwich_constant_coefficients_exact():
    cs = coeffs(A="1", q="0.3", mu="1")
    g = build_grid(cs.geometry, 64)
    lam = [0.7]
    lo, up = eigen_sandwich(cs, lam, np.ones(g.npoints), g)
    expected = -(0.7**2 - 0.3 * 0.7 + 1)
    assert lo == pytest.approx(expected, abs=1e-10)
    assert up == pytest.approx(expected, abs=1e-10)


def test_sandwich_on_computed_floquet_eigenfunction():
    cs = coeffs(mu=COS_MU)
    g = build_grid(cs.geometry, 256, 256)
    r = principal_eigen_floquet(cs, [0.0], g)
    lo, up = eigen_sandwich(cs, [0.0], r.phi, g)
    assert up - lo <= 1e-5
    assert lo <= r.k <= up


def test_sandwich_takes_a_one_level_candidate_at_every_level():
    # time-constant candidate phi = 1: the ratios are -mu(t_m), so the bounds
    # are the extremes of -mu over the period around k = -<mu> = -1
    cs = coeffs(A="1", mu="1 + cos(2*pi*t)")
    g = build_grid(cs.geometry, 16, 16)
    assert k_x_independent(cs, [0.0]) == pytest.approx(-1.0, abs=1e-12)
    stacked = eigen_sandwich(cs, [0.0], np.ones((g.n_t, g.npoints)), g)
    lo, up = eigen_sandwich(cs, [0.0], np.ones(g.npoints), g)
    assert (lo, up) == stacked
    assert lo == pytest.approx(-2.0, abs=1e-12)
    assert up == pytest.approx(0.0, abs=1e-12)


def test_sandwich_rough_candidate_brackets():
    cs = coeffs(A="1", mu="1")
    g = build_grid(cs.geometry, 64)
    x = g.axes()[0]
    cand = 1 + 0.5 * np.cos(2 * np.pi * x)
    lo, up = eigen_sandwich(cs, [0.0], cand, g)
    assert lo < -1.0 < up
    assert up - lo > 0.1
    with pytest.raises(PositivityError):
        eigen_sandwich(cs, [0.0], cand - 2.0, g)


def test_dk_db_constant_base_is_minus_mean():
    cs = coeffs(A="1", mu="1", T=2.0, L=0.5)
    g = build_grid(cs.geometry, 64)
    eta = PeriodicField.scalar("cos(4*pi*x) + 0.3", cs.geometry)
    assert dk_dB_at_zero(cs, [0.7], eta, g) == pytest.approx(-0.3, abs=1e-8)
    eta0 = PeriodicField.scalar("cos(4*pi*x)", cs.geometry)
    assert dk_dB_at_zero(cs, [0.7], eta0, g) == pytest.approx(0.0, abs=1e-8)


def test_dk_db_finite_difference_check():
    cs = coeffs(mu=COS_MU)
    g = build_grid(cs.geometry, 512)
    eta = PeriodicField.scalar("cos(4*pi*x)", cs.geometry)
    for lam in ([0.0], [1.0]):
        d = dk_dB_at_zero(cs, lam, eta, g)
        h = 1e-4
        k0 = principal_eigen_steady(cs, lam, g).k
        kh = principal_eigen_steady(coeffs(mu=f"{COS_MU} + {h}*cos(4*pi*x)"), lam, g).k
        fd = (kh - k0) / h
        assert abs(d - fd) <= 1e-3 * abs(k0)


def test_monotonicity_in_mu_sampled():
    g = build_grid(coeffs().geometry, 256)
    k1 = principal_eigen_steady(coeffs(mu=COS_MU + " + 0.2"), [0.6], g).k
    k2 = principal_eigen_steady(coeffs(mu=COS_MU), [0.6], g).k
    assert k1 <= k2 - 0.19  # gauge-dominated gap


def test_concavity_in_mu_sampled():
    g = build_grid(coeffs().geometry, 256)
    mu1 = "1 + 0.5*cos(2*pi*x)"
    mu2 = "1 + 0.4*sin(2*pi*x)"
    mid = "1 + 0.25*cos(2*pi*x) + 0.2*sin(2*pi*x)"
    lam = [0.8]
    k1 = principal_eigen_steady(coeffs(mu=mu1), lam, g).k
    k2 = principal_eigen_steady(coeffs(mu=mu2), lam, g).k
    km = principal_eigen_steady(coeffs(mu=mid), lam, g).k
    assert km >= 0.5 * (k1 + k2) - 1e-10


def test_lambda_concavity_max_at_zero_without_drift():
    cs = coeffs(mu=COS_MU)
    g = build_grid(cs.geometry, 256)
    k0 = principal_eigen_steady(cs, [0.0], g).k
    for s in (0.5, 1.0, 2.0):
        assert principal_eigen_steady(cs, [s], g).k < k0


def test_lambda_evenness_constant_A():
    # exact discrete evenness holds when the advection coefficient 2*A*lam is
    # spatially constant (transpose has the same spectrum)
    cs = coeffs(A="1.7", mu=COS_MU)
    g = build_grid(cs.geometry, 256)
    kp = principal_eigen_steady(cs, [0.9], g).k
    km = principal_eigen_steady(cs, [-0.9], g).k
    assert abs(kp - km) <= 1e-8


def test_positivity_of_returned_eigenfunctions():
    cs = coeffs(A="1 + 0.5*cos(2*pi*x)", q="0.3*sin(2*pi*x)", mu=COS_MU)
    g = build_grid(cs.geometry, 128, 128)
    r = principal_eigen_steady(cs, [0.5], g)
    assert np.min(r.phi) > 0
    cs_t = coeffs(mu="1 + 0.5*sin(2*pi*t)*cos(2*pi*x)")
    rf = principal_eigen_floquet(cs_t, [0.5], build_grid(cs_t.geometry, 128, 128))
    assert np.min(rf.phi) > 0
