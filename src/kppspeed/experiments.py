"""Named experiments: each theorem of the dependence theory as a sweep with
machine-checked verdicts.

`run_experiment` makes the ExperimentReport of a Scenario, names it after
the scenario's experiment, times the run and returns it.  An experiment
``run_*(sc, rep)`` reads its options through ``sc.opt_*``, runs its
parameter sweep and fills that report in place: it sets ``rep.columns``,
appends ``rep.rows``, asserts through ``rep.check`` with exactly the
theorem's inequality direction, and passes every eigenpair or speed it
reports through ``rep.record``, which keeps the eigen ledger.  After the
run, `run_experiment` rejects an [experiment] key the experiment did not
read and sets ``rep.inputs`` to every value it read, defaults included.
Strict inequalities use the scenario's ``margin_strict`` (default 1e-4 in
speed units) and equality cases ``tol_equality`` (default 1e-5).

Registry keys: spatial-average, temporal-average, growth-monotone, amplitude,
concavity, derivative, diffusion-monotone, shear, potential-drift,
compjlambda, simulate-validate.
"""

from __future__ import annotations

import time

import numpy as np

from .eigen import adjoint_eigenpair, dk_dB_at_zero, principal_eigen_steady, \
    principal_eigenvalue
from .fields import (CoefficientSet, PeriodicField, combine_scalar_fields,
                     gradient_drift, spatial_average, temporal_average)
from .operators import GridError, build_grid
from .scenario import ExperimentReport, Scenario, ScenarioError
from .simulate import front_speed, smooth_bump, solve_cauchy
from .speed import shear_full_coefficients, shear_reduced_eigenvalue, shear_speed, \
    spreading_speed
from .variational import compjlambda_lower_bound

__all__ = ["EXPERIMENTS", "run_experiment"]

MARGIN_STRICT = 1e-4
TOL_EQUALITY = 1e-5
FD_FLOOR = 1e-9  # absolute slack of the derivative check, 20 times the quotient's noise


def _map_rows(rep: ExperimentReport, context: str, fn, points) -> list:
    """fn over points, each result recorded in point order as
    ``context.format(point)``."""
    return [rep.record(context.format(p), fn(p)) for p in points]


def _direction(sc: Scenario, default=None):
    """The [experiment] direction e, by default the first axis of the cell,
    with as many components as the default."""
    default = default or [1.0] + [0.0] * (sc.geometry.dimension - 1)
    e = sc.opt_floats("e", default)
    if len(e) != len(default):
        raise sc.opt_error("e", f"needs {len(default)} component(s), got {len(e)}")
    if not any(e):
        raise sc.opt_error("e", "direction must be nonzero")
    return np.asarray(e)


def _grid(sc: Scenario, key: str, geometry, n, n_t=None):
    """build_grid(geometry, n, n_t) of values read from the [experiment]
    key; a GridError is a ScenarioError naming it."""
    try:
        return build_grid(geometry, n, n_t)
    except GridError as exc:
        raise sc.opt_error(key, exc) from None


def _check_increasing(rep: ExperimentReport, label: str, points, values, margin: float,
                      start: int = 0) -> None:
    """Strict gains values[i + 1] - values[i] >= margin for i >= start, each
    named ``label.format(points[i], points[i + 1])``."""
    for i in range(start, len(points) - 1):
        rep.check(label.format(points[i], points[i + 1]), "strict",
                  values[i + 1], values[i], margin)


def _average_row(rep: ExperimentReport, sc: Scenario, case: str, cs: CoefficientSet,
                 average, **speed_kw):
    """The row c*(mu) against c*(average(mu)) of one case; the two ray
    searches are recorded as case:mu and case:avg (without hyphens)."""
    e, tag = _direction(sc), case.replace("-", "")
    c_mu = rep.record(f"{tag}:mu", spreading_speed(cs, e, sc.grid, **speed_kw)).c_star
    c_avg = rep.record(f"{tag}:avg", spreading_speed(
        cs.with_mu(average(cs.mu)), e, sc.grid, **speed_kw)).c_star
    rep.rows.append({"case": case, "c_mu": c_mu, "c_avg": c_avg,
                     "difference": c_mu - c_avg})
    return c_mu, c_avg


# --- growth-rate experiments ----------------------------------------------------


def run_spatial_average(sc: Scenario, rep: ExperimentReport) -> None:
    """c*(mu) >= c*(spatial average of mu), strict iff mu depends on x."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    tol_eq = sc.opt_float("tol_equality", TOL_EQUALITY)
    rep.columns = ["case", "c_mu", "c_avg", "difference"]
    rep.check("c*(mu) - c*(mu_bar) strict gain", "strict",
              *_average_row(rep, sc, "strict", sc.coefficients, spatial_average), margin)

    # equality case: x-independent growth rate
    mu_eq = sc.opt_field("mu_equality", "1 + 0.25*sin(2*pi*t)")
    rep.check("x-independent mu: equality", "abs",
              *_average_row(rep, sc, "equality", sc.coefficients.with_mu(mu_eq),
                            spatial_average, route="floquet"),
              tol_eq, equality=True)


def run_temporal_average(sc: Scenario, rep: ExperimentReport) -> None:
    """c*(mu) >= c*(temporal average), equality iff mu = mu_1(x) + mu_2(t).

    Both speeds are computed by the same Floquet route with dt-Richardson
    extrapolation so that the 1e-8-level one-sided comparison is meaningful.
    Each ray search runs on the n_t eigenvalues and extrapolates once, at
    its minimizer (see `spreading_speed`).
    """
    tol_ineq = sc.opt_float("tol_inequality", 1e-8)
    tol_eq = sc.opt_float("tol_equality", TOL_EQUALITY)
    rep.columns = ["case", "c_mu", "c_avg", "difference"]
    speed_kw = dict(route="floquet", richardson=True, tol=1e-7)
    cs = sc.coefficients  # scenario default is separable
    c_mu, c_hat = _average_row(rep, sc, "separable", cs, temporal_average, **speed_kw)
    rep.check("c*(mu) >= c*(mu_hat)", "ge", c_mu, c_hat, tol_ineq)
    rep.check("separable mu: equality", "abs", c_mu, c_hat, tol_eq, equality=True)

    mu2 = sc.opt_field("mu_nonseparable", "1 + 0.5*cos(2*pi*x)*(1 + 0.5*sin(2*pi*t))")
    rep.check("non-separable: c*(mu) >= c*(mu_hat)", "ge",
              *_average_row(rep, sc, "non-separable", cs.with_mu(mu2), temporal_average,
                            **speed_kw), tol_ineq)


def run_growth_monotone(sc: Scenario, rep: ExperimentReport) -> None:
    """mu_1 >= mu_2 pointwise implies c*(mu_1) >= c*(mu_2), strictly here."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    e = _direction(sc)
    rep.columns = ["case", "c_star"]
    cs2 = sc.coefficients
    bump = sc.opt_field("increment", "0.1*(1 + cos(2*pi*x))")
    cs1 = cs2.with_mu(combine_scalar_fields([(1.0, cs2.mu), (1.0, bump)]))
    c1 = rep.record("mu1", spreading_speed(cs1, e, sc.grid)).c_star
    c2 = rep.record("mu2", spreading_speed(cs2, e, sc.grid)).c_star
    rep.rows += [{"case": "mu2", "c_star": c2}, {"case": "mu2 + increment", "c_star": c1}]
    rep.check("c*(mu_1) - c*(mu_2) strict gain", "strict", c1, c2, margin)


def run_amplitude(sc: Scenario, rep: ExperimentReport) -> None:
    """B -> c*(mu + B eta): increasing for constant mu (part 1) and for B
    large enough over a time-independent base (part 2, monotone tail)."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    b_grid = sc.opt_floats("b_grid", (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    e = _direction(sc)
    rep.columns = ["case", "B", "c_star"]
    eta = sc.opt_field("eta", "(0.2 + cos(2*pi*x))*(1 + 0.5*sin(2*pi*t))")
    base_const = sc.coefficients.with_mu(sc.opt_field("mu_constant", "1"))
    base_hetero = sc.coefficients.with_mu(sc.opt_field("mu_base", "1 + 0.3*cos(2*pi*x)"))

    def sweep(tag, base):
        def one(B):
            mu = combine_scalar_fields([(1.0, base.mu), (B, eta)])
            return spreading_speed(base.with_mu(mu), e, sc.grid)
        speeds = [r.c_star for r in _map_rows(rep, tag + ":B={:g}", one, b_grid)]
        rep.rows += [{"case": tag, "B": B, "c_star": c} for B, c in zip(b_grid, speeds)]
        return speeds

    # part 1: eta has positive space-time mean and depends on x: increasing
    _check_increasing(rep, "part1 c*(B={1:g}) > c*(B={0:g})", b_grid,
                      sweep("constant-base", base_const), margin)
    _check_increasing(rep, "part2 tail c*(B={1:g}) > c*(B={0:g})", b_grid,
                      sweep("heterogeneous-base", base_hetero), margin,
                      start=len(b_grid) // 2)


def run_concavity(sc: Scenario, rep: ExperimentReport) -> None:
    """Midpoint concavity of mu -> k_lam on random pairs; equality to 1e-8
    when mu_1 - mu_2 depends on t only (time-independent A, q)."""
    n_pairs = sc.opt_int("pairs", 10)
    tol = sc.opt_float("tol_violation", 1e-8)
    tol_eq = sc.opt_float("tol_equality_k", 1e-8)
    rep.columns = ["case", "lambda", "k_mu1", "k_mu2", "k_mid", "concavity_gap"]
    rng = np.random.default_rng(sc.seed)

    def trig_mu(c):
        return (f"{c[0]:.8f} + {c[1]:.8f}*cos(2*pi*x) + "
                f"{c[2]:.8f}*sin(2*pi*x) + {c[3]:.8f}*cos(4*pi*x)")

    for trial in range(n_pairs):
        c1 = rng.uniform(-0.6, 0.6, 4)
        c2 = rng.uniform(-0.6, 0.6, 4)
        lam = [float(rng.uniform(-1.5, 1.5))]
        ks = []
        for c in (c1, c2, 0.5 * (c1 + c2)):
            cs = sc.coefficients.with_mu(PeriodicField.scalar(trig_mu(c), sc.geometry))
            ks.append(rep.record("concavity", principal_eigen_steady(cs, lam, sc.grid)).k)
        rep.rows.append({"case": f"random-{trial}", "lambda": lam[0],
                         "k_mu1": ks[0], "k_mu2": ks[1], "k_mid": ks[2],
                         "concavity_gap": ks[2] - 0.5 * (ks[0] + ks[1])})
        rep.check(f"pair {trial}: k(mid) >= mean", "ge", ks[2], 0.5 * (ks[0] + ks[1]), tol)

    # equality case: mu_1 - mu_2 = g(t)
    mu2 = sc.opt_field("mu_equality_base", "1 + 0.4*sin(2*pi*x)")
    gt = sc.opt_field("time_shift", "0.6*sin(2*pi*t) + 0.2*cos(4*pi*t)")
    lam_eq = [sc.opt_float("lambda_equality", 0.8)]
    ks = []
    for r in (0.0, 1.0, 0.5):
        mu = combine_scalar_fields([(1.0, mu2), (r, gt)])
        res = principal_eigenvalue(sc.coefficients.with_mu(mu), lam_eq, sc.grid,
                                   route="floquet", richardson=True)
        ks.append(rep.record("concavity", res).k_extrapolated)
    rep.rows.append({"case": "equality-time-shift", "lambda": lam_eq[0],
                     "k_mu1": ks[1], "k_mu2": ks[0], "k_mid": ks[2],
                     "concavity_gap": ks[2] - 0.5 * (ks[0] + ks[1])})
    rep.check("time-only difference: equality", "abs", ks[2], 0.5 * (ks[0] + ks[1]),
              tol_eq, equality=True)


def run_derivative(sc: Scenario, rep: ExperimentReport) -> None:
    """dk/dB at B=0 equals -integral eta phi phi_tilde, checked against the
    centred quotient (k(h) - k(-h))/(2h) to tol_relative * |dk/dB| + FD_FLOOR."""
    h = sc.opt_float("fd_step", 1e-2)
    if h == 0:
        raise sc.opt_error("fd_step", "must be nonzero")
    tol_rel = sc.opt_float("tol_relative", 1e-3)
    lam_list = sc.opt_floats("lambda_probes", (0.0, 1.0))
    rep.columns = ["lambda", "dk_formula", "dk_fd", "k0", "abs_error"]
    eta = sc.opt_field("eta", "cos(4*pi*x)")
    cs = sc.coefficients
    for lam_val in lam_list:
        lam = [lam_val] + [0.0] * (sc.geometry.dimension - 1)
        pair = adjoint_eigenpair(cs, lam, sc.grid)
        deriv = dk_dB_at_zero(cs, lam, eta, sc.grid, pair=pair)
        k0 = pair.k
        k_plus, k_minus = (rep.record("derivative", principal_eigen_steady(
            cs.with_mu(combine_scalar_fields([(1.0, cs.mu), (b, eta)])), lam, sc.grid)).k
            for b in (h, -h))
        fd = (k_plus - k_minus) / (2 * h)
        rep.rows.append({"lambda": lam_val, "dk_formula": deriv, "dk_fd": fd,
                         "k0": k0, "abs_error": abs(deriv - fd)})
        rep.check(f"lambda={lam_val:g}: adjoint-weighted derivative vs FD", "abs",
                  deriv, fd, tol_rel * abs(deriv) + FD_FLOOR)


# --- diffusion and drift experiments ---------------------------------------------


def run_diffusion_monotone(sc: Scenario, rep: ExperimentReport) -> None:
    """kappa -> c*(kappa A, 0, mu) increasing (time-independent, q = 0);
    plus k_{lambda e} <= k_0 for the probe lambdas."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    kappa_grid = sc.opt_floats("kappa_grid", (0.25, 0.5, 1.0, 2.0, 4.0))
    if any(kappa <= 0 for kappa in kappa_grid):
        raise sc.opt_error("kappa_grid", "every kappa must be positive")
    lam_probes = sc.opt_floats("lambda_probes", (0.5, 1.0, 2.0))
    e = _direction(sc)
    rep.columns = ["case", "kappa", "lambda", "c_star", "k", "k0"]

    def one(kappa):
        return spreading_speed(sc.coefficients.with_scaled(kappa=kappa), e, sc.grid)

    speeds = [r.c_star for r in _map_rows(rep, "diffusion", one, kappa_grid)]
    rep.rows += [{"case": "speed", "kappa": kappa, "lambda": "", "c_star": c,
                  "k": "", "k0": ""} for kappa, c in zip(kappa_grid, speeds)]
    _check_increasing(rep, "c*({1:g}A) > c*({0:g}A)", kappa_grid, speeds, margin)
    for kappa in kappa_grid:
        cs_k = sc.coefficients.with_scaled(kappa=kappa)
        k0 = rep.record("diffusion", principal_eigen_steady(
            cs_k, [0.0] * sc.geometry.dimension, sc.grid)).k
        for lam_val in lam_probes:
            lam = [lam_val * ei for ei in e]
            k = rep.record("diffusion", principal_eigen_steady(cs_k, lam, sc.grid)).k
            rep.rows.append({"case": "lambda-max-at-zero", "kappa": kappa,
                             "lambda": lam_val, "c_star": "", "k": k, "k0": k0})
            rep.check(f"kappa={kappa:g}, lambda={lam_val:g}: k_lambda <= k_0", "le",
                      k, k0, 1e-10)


def run_shear(sc: Scenario, rep: ExperimentReport) -> None:
    """Shear flow q = (B q_1(y), 0): B -> c*_e increasing; the reduced
    eigenvalue matches the full 2D one at a probe wavevector."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    b_grid = sc.opt_floats("b_grid", (0.0, 1.0, 2.0, 4.0))
    probe_lam = sc.opt_float("lambda_probe", 0.7)
    probe_B = sc.opt_float("b_probe", 1.0)
    tol_probe = sc.opt_float("tol_probe", 1e-5)
    e2 = _direction(sc, [1.0, 0.0])
    rep.columns = ["case", "B", "c_star", "k_reduced", "k_full"]
    cs = sc.coefficients
    a = cs.A.component(0, 0)
    q1 = cs.q.component(0)
    mu = cs.mu

    def one(B):
        return shear_speed(a, combine_scalar_fields([(B, q1)]), mu, e2, sc.grid)

    speeds = [r.c_star for r in _map_rows(rep, "shear:B={:g}", one, b_grid)]
    rep.rows += [{"case": "speed", "B": B, "c_star": c, "k_reduced": "", "k_full": ""}
                 for B, c in zip(b_grid, speeds)]
    _check_increasing(rep, "c*(B={1:g}) > c*(B={0:g})", b_grid, speeds, margin)

    q1p = combine_scalar_fields([(probe_B, q1)])
    n_y = sc.opt_int("n_full", 64)
    grid_y = _grid(sc, "n_full", sc.geometry, n_y)
    red = rep.record("shear:probe-reduced",
                     shear_reduced_eigenvalue(a, q1p, mu, e2, probe_lam, grid_y))
    full_cs = shear_full_coefficients(a, q1p, mu)
    grid_full = _grid(sc, "n_full", full_cs.geometry, (n_y, n_y))
    full = rep.record("shear:probe-full", principal_eigenvalue(
        full_cs, [probe_lam * e2[0], probe_lam * e2[1]], grid_full))
    rep.rows.append({"case": "probe", "B": probe_B, "c_star": "",
                     "k_reduced": red.k, "k_full": full.k})
    rep.check(f"reduced vs full k at lambda={probe_lam:g}", "abs", red.k, full.k,
              tol_probe)


def run_potential_drift(sc: Scenario, rep: ExperimentReport) -> None:
    """Gradient drifts slow the front: c*(B grad Q) <= 2 sqrt(mu0); c*(B)/B
    decreasing at large B; the drift-to-potential transform identity.

    The checked direction, a decrease, contradicts the abstract's claim (3)
    that a drift q = grad Q increases the minimal speed; an independent
    65-mode Fourier-Galerkin computation agrees with the decrease.
    """
    b_grid = sc.opt_floats("b_grid", (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0))
    tol_cap = sc.opt_float("tol_cap", 1e-6)
    tol_transform = sc.opt_float("tol_transform", 1e-6)
    mu0 = sc.opt_float("mu0", 1.0)
    e = _direction(sc)
    rep.columns = ["case", "B", "lambda", "c_star", "value_drift", "value_potential"]
    Q = sc.opt_field("potential", "0.3*cos(2*pi*x)")
    q, _ = gradient_drift(Q)
    geometry = sc.geometry
    A_I = PeriodicField.matrix("1", geometry)
    mu_field = PeriodicField.scalar(str(mu0), geometry)
    base = CoefficientSet(A_I, q, mu_field, geometry)

    def one(B):
        return spreading_speed(base.with_scaled(drift_B=B), e, sc.grid)

    # mu0 <= 0 has no spreading regime: the speeds raise before the cap is taken
    speeds = [r.c_star for r in _map_rows(rep, "potential-drift:B={:g}", one, b_grid)]
    cap = 2.0 * float(np.sqrt(mu0))
    for B, c in zip(b_grid, speeds):
        rep.rows.append({"case": "speed", "B": B, "lambda": "", "c_star": c,
                         "value_drift": "", "value_potential": ""})
        rep.check(f"c*(B={B:g}) <= 2 sqrt(mu0)", "le", c, cap, tol_cap)
    ratio_from = sc.opt_float("ratio_from", 5.0)
    if ratio_from <= 0:  # c*(B)/B at B = 0
        raise sc.opt_error("ratio_from", "must be positive")
    tail = [B for B in b_grid if B >= ratio_from]
    ratios = {B: speeds[b_grid.index(B)] / B for B in tail}
    for b1, b2 in zip(tail, tail[1:]):
        rep.check(f"c*(B)/B decreasing {b1:g}->{b2:g}", "le", ratios[b2], ratios[b1], 0.0)

    # transform identity: k(I, B grad Q, mu0) = k(I, 0, mu0 + (B/2) Lap Q
    # - (B^2/4)|grad Q|^2), both with dx-Richardson extrapolation
    n_fine = sc.opt_int("n_transform", 4096)
    grids = [_grid(sc, "n_transform", geometry, n) for n in (n_fine // 2, n_fine)]
    lam_probes = sc.opt_floats("lambda_probes", (0.0, 0.5))
    b_probes = sc.opt_floats("b_probes", (1.0, 2.0))
    zero_q = PeriodicField.vector([0.0] * geometry.dimension, geometry)

    def k_extrapolated(cs, lam):
        coarse, fine = (principal_eigen_steady(cs, lam, g).k for g in grids)
        return (4.0 * fine - coarse) / 3.0

    for B in b_probes:
        # the symbolic transform needs the scaled potential B*Q as an expression
        QB_expr = PeriodicField.scalar(
            f"({B!r})*({sc.opt_str('potential', '0.3*cos(2*pi*x)')})",
            geometry, sc.params)
        _, VB = gradient_drift(QB_expr)
        mu_pot = combine_scalar_fields([(1.0, mu_field), (1.0, VB)])
        cs_drift = base.with_scaled(drift_B=B)
        cs_pot = CoefficientSet(A_I, zero_q, mu_pot, geometry)
        for lam_val in lam_probes:
            lam = [lam_val] + [0.0] * (geometry.dimension - 1)
            kd = k_extrapolated(cs_drift, lam)
            kp = k_extrapolated(cs_pot, lam)
            rep.rows.append({"case": "transform", "B": B, "lambda": lam_val,
                             "c_star": "", "value_drift": kd, "value_potential": kp})
            rep.check(f"transform identity B={B:g}, lambda={lam_val:g}", "abs",
                      kd, kp, tol_transform)


def run_compjlambda(sc: Scenario, rep: ExperimentReport) -> None:
    """k_lam(A, q, mu) >= k_0(A, 0, div(q)/2 + lam.A.lam - lam.q + mu) on
    randomized time-independent trigonometric instances with q = grad Q."""
    n_cases = sc.opt_int("cases", 20)
    tol = sc.opt_float("tol_margin", 1e-8)
    rep.columns = ["case", "lambda", "k", "lower_bound", "margin"]
    rng = np.random.default_rng(sc.seed)
    geometry = sc.geometry
    for trial in range(n_cases):
        a_amp = rng.uniform(0.2, 0.8)
        q_amp = rng.uniform(0.1, 0.4)
        q_amp2 = rng.uniform(-0.2, 0.2)
        mu_amp = rng.uniform(-0.5, 0.5)
        lam_val = float(rng.uniform(-2.0, 2.0))
        A = PeriodicField.matrix(f"1.5 + {a_amp:.8f}*cos(2*pi*x)", geometry)
        Q = PeriodicField.scalar(
            f"{q_amp:.8f}*cos(2*pi*x) + {q_amp2:.8f}*sin(4*pi*x)", geometry)
        q, _ = gradient_drift(Q)
        mu = PeriodicField.scalar(f"1 + {mu_amp:.8f}*cos(2*pi*x)", geometry)
        cs = CoefficientSet(A, q, mu, geometry)
        lam = [lam_val] + [0.0] * (geometry.dimension - 1)
        k = rep.record("compjlambda", principal_eigen_steady(cs, lam, sc.grid)).k
        bound = compjlambda_lower_bound(cs, lam, sc.grid)
        rep.rows.append({"case": trial, "lambda": lam_val, "k": k,
                         "lower_bound": bound, "margin": k - bound})
        rep.check(f"instance {trial}: k >= drift-elimination bound", "ge", k, bound, tol)


def run_simulate_validate(sc: Scenario, rep: ExperimentReport) -> None:
    """Front speeds of the nonlinear solver against c*; comparison-principle
    and [0,1]-invariance property runs."""
    rel_tol = sc.opt_float("tol_relative", 0.05)
    t_end = sc.opt_float("t_end", 40.0)
    n_prop = sc.opt_int("property_runs", 10)
    rep.columns = ["case", "c_star", "measured", "ratio", "fit_residual", "valid"]
    n = sc.opt_int("points_per_cell", 64)
    _grid(sc, "points_per_cell", sc.geometry, n)
    sim_grid = _grid(sc, "steps_per_period", sc.geometry, n,
                     sc.opt_int("steps_per_period", 100))
    cases = {
        "homogeneous": CoefficientSet.from_expressions(
            A="1", mu="1", T=sc.geometry.period, L=sc.geometry.lengths[0]),
        "periodic-mu": sc.coefficients,
        "constant-drift": CoefficientSet.from_expressions(
            A="1", q="1", mu="1", T=sc.geometry.period, L=sc.geometry.lengths[0]),
    }
    for tag, cs in cases.items():
        c_star = rep.record(f"simulate:{tag}", spreading_speed(cs, [1.0], sc.grid)).c_star
        c_left = 2.0  # generous allowance for the leftward front
        travel = c_star * t_end
        span = (int(np.ceil(c_left * t_end / sc.geometry.lengths[0])) + 10,
                int(np.ceil(travel / sc.geometry.lengths[0] * 1.15)) + 10)
        run = solve_cauchy(cs, smooth_bump(0.0, 1.0, 1.0), cells=0,
                           t_end=t_end, grid=sim_grid, span=span)
        est = front_speed(run, 1)
        rep.rows.append({"case": tag, "c_star": c_star, "measured": est.speed,
                         "ratio": est.speed / c_star, "fit_residual": est.residual,
                         "valid": run.valid})
        rep.check(f"{tag}: measured >= (1 - {rel_tol:g}) c*", "ge", est.speed,
                  (1 - rel_tol) * c_star, 0.0)
        rep.check(f"{tag}: measured <= (1 + {rel_tol:g}) c*", "le", est.speed,
                  (1 + rel_tol) * c_star, 0.0)

    rng = np.random.default_rng(sc.seed)
    worst_cmp, worst_lo, worst_hi = -np.inf, np.inf, -np.inf
    for _ in range(n_prop):
        width = rng.uniform(0.5, 2.0)
        height = rng.uniform(0.4, 1.0)
        factor = rng.uniform(0.2, 0.9)
        center = rng.uniform(-1.0, 1.0)
        ub = smooth_bump(center, width, height)
        cs = CoefficientSet.from_expressions(
            A=f"1 + {rng.uniform(-0.3, 0.3):.6f}*cos(2*pi*x)",
            q=f"{rng.uniform(-0.3, 0.3):.6f}*sin(2*pi*x)",
            mu=f"1 + {rng.uniform(-0.4, 0.4):.6f}*cos(2*pi*x)",
            T=sc.geometry.period, L=sc.geometry.lengths[0])
        run_b = solve_cauchy(cs, ub, cells=30, t_end=3.0, grid=sim_grid)
        run_a = solve_cauchy(cs, lambda x: factor * ub(x), cells=30,
                             t_end=3.0, grid=sim_grid)
        worst_cmp = max(worst_cmp, float(np.max(run_a.snapshots - run_b.snapshots)))
        worst_lo = min(worst_lo, float(np.min(run_b.snapshots)))
        worst_hi = max(worst_hi, float(np.max(run_b.snapshots)))
    rep.rows.append({"case": "property-runs", "c_star": "", "measured": "",
                     "ratio": "", "fit_residual": "", "valid": True})
    rep.check("comparison principle worst violation", "le", worst_cmp, 0.0, 1e-8)
    rep.check("[0,1]-invariance lower", "ge", worst_lo, 0.0, 1e-8)
    rep.check("[0,1]-invariance upper", "le", worst_hi, 1.0, 1e-8)


EXPERIMENTS = {
    "spatial-average": run_spatial_average,
    "temporal-average": run_temporal_average,
    "growth-monotone": run_growth_monotone,
    "amplitude": run_amplitude,
    "concavity": run_concavity,
    "derivative": run_derivative,
    "diffusion-monotone": run_diffusion_monotone,
    "shear": run_shear,
    "potential-drift": run_potential_drift,
    "compjlambda": run_compjlambda,
    "simulate-validate": run_simulate_validate,
}


def run_experiment(sc: Scenario) -> ExperimentReport:
    """Run a scenario's named experiment into a new report, timed; a
    ScenarioError names an [experiment] key that the experiment never read.
    The report's ``inputs`` are the values it read, defaults included, and
    the seed, grid, geometry, coefficient texts and parameters."""
    if sc.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ScenarioError(f"{sc.path} [scenario] experiment: unknown experiment "
                            f"{sc.experiment!r} (known: {known})")
    rep = ExperimentReport(sc.experiment, sc.name, sc.seed)
    t0 = time.perf_counter()
    EXPERIMENTS[sc.experiment](sc, rep)
    rep.elapsed_seconds = time.perf_counter() - t0
    sc.options.check()
    rep.inputs = {**sc.options.read, "seed": sc.seed, "n": list(sc.grid.n_space),
                  "n_t": sc.grid.n_t, "T": sc.geometry.period,
                  "L": list(sc.geometry.lengths), "coefficients": sc.coefficient_texts,
                  "parameters": sc.params}
    return rep
