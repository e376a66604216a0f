import numpy as np
import pytest

from kppspeed.fields import CoefficientSet
from kppspeed.operators import build_grid
from kppspeed.simulate import (
    SimulationError,
    front_speed,
    smooth_bump,
    solve_cauchy,
)


def coeffs(A="1", q=None, mu="1"):
    return CoefficientSet.from_expressions(A=A, q=q, mu=mu)


GRID = build_grid(coeffs().geometry, 64, 100)  # h = 1/64, dt = 0.01


def test_zero_data_stays_zero():
    run = solve_cauchy(coeffs(), lambda x: np.zeros_like(x), cells=16, t_end=2.0,
                       grid=GRID)
    assert np.max(np.abs(run.snapshots[-1])) == 0.0


@pytest.mark.parametrize("A, q, mu, n_t", [
    ("1 + 0.4*cos(2*pi*x)", "0", "1 + 0.5*cos(2*pi*x)", 64),
    ("1 + 0.4*cos(2*pi*x)", "0.7*sin(2*pi*x)", "1 + 0.5*cos(2*pi*x)", 64),
    ("1 + 0.4*cos(2*pi*(x - t))", "0.7*sin(2*pi*(x + t))",
     "1 + 0.5*cos(2*pi*t)*cos(2*pi*x)", 8),
], ids=["0", "0.7*sin(2*pi*x)", "time-dependent"])
def test_dirichlet_steps_match_dense_crank_nicolson(A, q, mu, n_t):
    # Strang steps against dense matrices built here from the same formulas,
    # evaluated by numpy.  Time-independent A and q: one factored level, a step of one solve and,
    # for q = 0, the symmetric positive definite path.  Time-dependent: 13
    # steps with n_t = 8 run past the end of a period of levels.  The dense
    # reference keeps the couplings into the boundary columns and identity
    # boundary rows.
    cs = CoefficientSet.from_expressions(A=A, q=q, mu=mu)
    grid = build_grid(cs.geometry, 8, n_t)
    dt, h = grid.dt, grid.h[0]
    run = solve_cauchy(cs, lambda x: 0.6 * (1.0 - x ** 2), cells=2, t_end=13 * dt,
                       grid=grid, snapshot_dt=dt)
    x = run.x
    n = x.size
    eye = np.eye(n)

    def f(text, t):
        return eval(text, {"cos": np.cos, "sin": np.sin, "pi": np.pi, "t": t, "x": x}) + 0 * x

    def E(t):
        a = f(A, t)
        af = 0.5 * (a[:-1] + a[1:])  # face i, i+1
        drift = f(q, t)
        M = np.zeros((n, n))
        for i in range(1, n - 1):
            M[i, i - 1] = af[i - 1] / h**2 + drift[i] / (2 * h)
            M[i, i + 1] = af[i] / h**2 - drift[i] / (2 * h)
            M[i, i] = -(af[i - 1] + af[i]) / h**2
        return M

    def reaction(u, t):
        return u / (u + (1 - u) * np.exp(-0.5 * dt * f(mu, t)))

    u = run.snapshots[0]
    for step in range(13):
        t = step * dt
        u = reaction(u, t + 0.25 * dt)
        u = np.linalg.solve(eye - 0.5 * dt * E(t + dt), (eye + 0.5 * dt * E(t)) @ u)
        u = reaction(np.maximum(u, 0.0), t + 0.75 * dt)
        np.testing.assert_allclose(run.snapshots[step + 1], u, rtol=0, atol=1e-12)
    assert run.snapshots[:, [0, -1]].max() == 0.0


def test_merged_reaction_steps_match_split_steps():
    # between snapshots the two logistic half steps of a time-independent mu
    # merge into one; with a snapshot at every step none merge
    cs = coeffs(A="1 + 0.3*cos(2*pi*x)", q="0.4*sin(2*pi*x)", mu="1 + 0.5*cos(2*pi*x)")
    kw = dict(cells=16, t_end=2.0, grid=GRID)
    merged = solve_cauchy(cs, smooth_bump(0.0, 1.0, 1.0), **kw)
    split = solve_cauchy(cs, smooth_bump(0.0, 1.0, 1.0), snapshot_dt=GRID.dt, **kw)
    every = int(round(0.5 / GRID.dt))
    np.testing.assert_array_equal(merged.times, split.times[::every])
    np.testing.assert_allclose(merged.snapshots, split.snapshots[::every], rtol=0, atol=1e-13)
    assert merged.snapshots[-1].max() > 0.5


def test_local_convergence_to_one():
    run = solve_cauchy(coeffs(), smooth_bump(0.0, 1.0, 1.0), cells=100, t_end=20.0,
                       grid=GRID)
    center = np.argmin(np.abs(run.x))
    assert run.snapshots[-1][center] >= 0.99


def test_homogeneous_front_speed_within_5_percent():
    run = solve_cauchy(coeffs(), smooth_bump(0.0, 1.0, 1.0), cells=200, t_end=40.0,
                       grid=GRID)
    est = front_speed(run, 1)
    assert run.valid
    assert est.speed == pytest.approx(2.0, rel=0.05)
    assert np.isfinite(est.residual)


def test_drift_front_speed_within_5_percent():
    run = solve_cauchy(coeffs(q="1"), smooth_bump(0.0, 1.0, 1.0), cells=0,
                       t_end=40.0, grid=GRID, span=(50, 140))
    est = front_speed(run, 1)
    assert est.speed == pytest.approx(3.0, rel=0.05)
    # the leftward front crawls at 2 sqrt(mu) - q = 1; the logarithmic
    # front-position lag is relatively larger at this speed, hence the slack
    left = front_speed(run, -1)
    assert left.speed == pytest.approx(1.0, rel=0.08)


def test_periodic_mu_front_matches_eigenvalue_speed():
    from kppspeed.speed import spreading_speed
    cs = coeffs(mu="1 + 0.5*cos(2*pi*x)")
    c_star = spreading_speed(cs, [1.0], build_grid(cs.geometry, 256)).c_star
    run = solve_cauchy(cs, smooth_bump(0.0, 1.0, 1.0), cells=200, t_end=40.0,
                       grid=GRID)
    est = front_speed(run, 1)
    assert est.speed == pytest.approx(c_star, rel=0.05)


def test_front_breaching_boundary_flags_invalid():
    run = solve_cauchy(coeffs(), smooth_bump(0.0, 1.0, 1.0), cells=20, t_end=10.0,
                       grid=GRID)
    assert not run.valid
    with pytest.raises(SimulationError):
        front_speed(run, 1)


def test_level_never_crossed():
    run = solve_cauchy(coeffs(mu="-1"), smooth_bump(0.0, 1.0, 0.2), cells=16,
                       t_end=1.0, grid=GRID)
    with pytest.raises(SimulationError):
        front_speed(run, 1, level=0.9)


def test_comparison_principle_and_invariance_random_runs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        width = rng.uniform(0.5, 2.0)
        height = rng.uniform(0.4, 1.0)
        factor = rng.uniform(0.2, 0.9)
        ub = smooth_bump(rng.uniform(-1, 1), width, height)
        cs = CoefficientSet.from_expressions(
            A=f"1 + {rng.uniform(-0.3, 0.3):.4f}*cos(2*pi*x)",
            q=f"{rng.uniform(-0.3, 0.3):.4f}*sin(2*pi*x)",
            mu=f"1 + {rng.uniform(-0.4, 0.4):.4f}*cos(2*pi*x)")
        run_b = solve_cauchy(cs, ub, cells=30, t_end=3.0, grid=GRID)
        run_a = solve_cauchy(cs, lambda x: factor * ub(x), cells=30, t_end=3.0,
                             grid=GRID)
        assert np.max(run_a.snapshots - run_b.snapshots) <= 1e-8
        assert np.min(run_b.snapshots) >= -1e-8
        assert np.max(run_b.snapshots) <= 1.0 + 1e-8


def test_rejects_bad_initial_data():
    with pytest.raises(SimulationError):
        solve_cauchy(coeffs(), lambda x: -smooth_bump()(x), cells=16, t_end=1.0,
                     grid=GRID)
    with pytest.raises(SimulationError):
        solve_cauchy(coeffs(), lambda x: np.ones_like(x), cells=16, t_end=1.0,
                     grid=GRID)  # does not vanish at the Dirichlet boundary

    def nan_inside(x):
        u = smooth_bump()(x)
        u[x.size // 2 + 3] = np.nan
        return u

    with pytest.raises(SimulationError, match="finite"):
        solve_cauchy(coeffs(), nan_inside, cells=16, t_end=1.0, grid=GRID)


def test_nan_during_run_raises():
    # exp(-mu dt/2) overflows, and the logistic flow of u = 1 is inf * 0 = NaN
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SimulationError, match="instability"):
        solve_cauchy(coeffs(mu="-1e6"), lambda x: np.where(np.abs(x) < 1.5, 1.0, 0.0),
                     cells=4, t_end=0.5, grid=GRID)
