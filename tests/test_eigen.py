import numpy as np
import pytest

from kppspeed.fields import CoefficientSet, NonEllipticError, PeriodicField
from kppspeed import eigen
from kppspeed.operators import ActionFamily, CoefficientSamples, assemble_action, build_grid
from kppspeed.eigen import (
    WIDTH_TARGET,
    EigenConvergenceError,
    adjoint_eigenpair,
    dk_dB_at_zero,
    principal_eigen_floquet,
    principal_eigen_steady,
    principal_eigenvalue,
    _power_iterate,
)
from kppspeed.speed import spreading_speed

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


@pytest.mark.parametrize("lam", [-3.0, 0.0, 2.5])
def test_steady_k_matches_dense_eigenvalues_of_a_nonsymmetric_operator(lam):
    # with drift E_lam is not symmetric; k is minus the largest real part of
    # the spectrum of the assembled matrix, and the adjoint iteration on the
    # band factors finds the same eigenvalue and the left eigenvector
    cs = coeffs(A="1 + 0.5*cos(2*pi*x)", q="2*sin(2*pi*x) + 0.5", mu=COS_MU)
    g = build_grid(cs.geometry, 128)
    values, left = np.linalg.eig(assemble_action(cs, [lam], g).toarray().T)
    top = int(np.argmax(values.real))
    k_dense = -float(values[top].real)
    r = principal_eigen_steady(cs, [lam], g)
    assert r.k == pytest.approx(k_dense, abs=1e-9 * max(1.0, abs(k_dense)))
    pair = adjoint_eigenpair(cs, [lam], g)
    assert pair.k_adjoint == pytest.approx(k_dense, abs=1e-9 * max(1.0, abs(k_dense)))
    w = np.abs(left[:, top].real)
    np.testing.assert_allclose(pair.phi_tilde / pair.phi_tilde.max(), w / w.max(),
                               rtol=1e-6)


def test_cold_steady_solve_under_strong_potential_drift():
    # q = B Q' for Q = 0.3 cos(2 pi x) and B = 40: the Gershgorin shift (about
    # 3400) lies far above the eigenvalue (about 389), and an iteration held
    # at that shift did not settle in 200 iterations; moving the shift to the
    # certified bound settles in a few dozen.  The sandwich certifies k: this
    # matrix is so far from normal that a dense eigensolve misses it by 7e-7
    cs = coeffs(q="-40*0.3*2*pi*sin(2*pi*x)")
    g = build_grid(cs.geometry, 512)
    r = principal_eigen_steady(cs, [-32.0], g)
    assert r.width <= WIDTH_TARGET
    assert r.lower <= r.k <= r.upper
    assert r.iterations <= 40
    d = r.diagnostics
    assert d["shifts"] > 0
    assert -r.lower < d["sigma"] < d["gershgorin"]


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


@pytest.mark.parametrize("entry", [
    lambda cs, g: principal_eigen_floquet(cs, [0.5], g),
    lambda cs, g: principal_eigenvalue(cs, [0.5], g, richardson=True),
    lambda cs, g: spreading_speed(cs, [1.0], g),
    lambda cs, g: adjoint_eigenpair(cs, [0.5], g),
], ids=["floquet", "richardson", "spreading_speed", "adjoint"])
def test_floquet_entry_points_reject_a_non_elliptic_A(entry):
    # A changes sign; the steady route raised NonEllipticError, and the
    # Floquet entry points must name the same cause
    cs = coeffs(A="0.5*cos(2*pi*x)", mu="1 + 0.3*sin(2*pi*t)")
    with pytest.raises(NonEllipticError):
        entry(cs, build_grid(cs.geometry, 32, 16))


@pytest.mark.parametrize("mu", [COS_MU, "1 + 0.3*cos(2*pi*(x - t))"],
                         ids=["steady", "floquet"])
def test_adjoint_and_sandwich_take_samples(mu):
    cs = coeffs(mu=mu)
    g = build_grid(cs.geometry, 32, 16)
    samples = CoefficientSamples(cs, g)
    a, b = adjoint_eigenpair(cs, [0.5], g), adjoint_eigenpair(samples, [0.5], g)
    assert (a.k, a.k_adjoint, a.route) == (b.k, b.k_adjoint, b.route)
    assert np.array_equal(a.phi, b.phi) and np.array_equal(a.phi_tilde, b.phi_tilde)
    a, b = principal_eigenvalue(cs, [0.5], g), principal_eigenvalue(samples, [0.5], g)
    assert (a.k, a.lower, a.upper) == (b.k, b.lower, b.upper)


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


def test_adjoint_steady_raises_when_not_converged(monkeypatch):
    # the direct eigenfunction is constant and settles in 2 iterations; the
    # adjoint one is not and needs 4
    cs = coeffs(q="3*sin(2*pi*x)")
    g = build_grid(cs.geometry, 64)
    monkeypatch.setattr("kppspeed.eigen.MAX_ITER", 3)
    with pytest.raises(EigenConvergenceError, match="adjoint steady"):
        adjoint_eigenpair(cs, [0.0], g)
    monkeypatch.setattr("kppspeed.eigen.MAX_ITER", 4)
    assert adjoint_eigenpair(cs, [0.0], g).k == pytest.approx(-1.0, abs=1e-12)


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


def test_sandwich_constant_coefficients_exact():
    cs = coeffs(A="1", q="0.3", mu="1")
    r = principal_eigen_floquet(cs, [0.7], build_grid(cs.geometry, 64, 16))
    expected = -(0.7**2 - 0.3 * 0.7 + 1)
    assert r.lower == pytest.approx(expected, abs=1e-10)
    assert r.upper == pytest.approx(expected, abs=1e-10)


def test_sandwich_on_computed_floquet_eigenfunction():
    cs = coeffs(mu=COS_MU)
    g = build_grid(cs.geometry, 256, 256)
    r = principal_eigen_floquet(cs, [0.0], g)
    assert r.upper - r.lower <= 1e-5
    assert r.lower <= r.k <= r.upper


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


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_floquet_solve_makes_one_period_map_per_iteration(monkeypatch, dim):
    # the eigenfunction comes from the levels of the last power step, so a
    # solve makes no period map beyond its power iterations
    if dim == 1:
        cs = coeffs(A="1 + 0.3*cos(2*pi*x)", q="0.4*sin(2*pi*x)",
                    mu="1 + 0.5*cos(2*pi*x)*(1 + 0.5*sin(2*pi*t))")
        g, lam = build_grid(cs.geometry, 64, 16), [0.7]
    else:
        cs = coeffs(A={"11": "1", "22": "1 + 0.2*cos(2*pi*y)", "12": "0.1*cos(2*pi*(x - y))"},
                    q=("0.3*sin(2*pi*y)", "0"), mu="1 + 0.4*cos(2*pi*t)*cos(2*pi*x)",
                    L=(1.0, 1.0))
        g, lam = build_grid(cs.geometry, (12, 12), 8), [0.5, -0.2]
    calls = []
    step_period = ActionFamily.step_period

    def counted(self, phi0, transpose=False, store_levels=False):
        calls.append(transpose)
        return step_period(self, phi0, transpose, store_levels)

    monkeypatch.setattr(ActionFamily, "step_period", counted)
    res = principal_eigen_floquet(cs, lam, g)
    assert res.iterations > 1 and calls == [False] * res.iterations

    iterations = []
    floquet_iterate = eigen._floquet_iterate

    def recorded(*args, **kwargs):
        out = floquet_iterate(*args, **kwargs)
        iterations.append(out[-1])
        return out

    monkeypatch.setattr(eigen, "_floquet_iterate", recorded)
    calls.clear()
    adjoint_eigenpair(cs, lam, g)
    assert calls == [False] * iterations[0] + [True] * iterations[1]
