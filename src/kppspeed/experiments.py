"""Named experiments: each theorem of the dependence theory as a sweep with
machine-checked verdicts.

Every experiment takes a Scenario, runs its parameter sweep, and returns an
ExperimentReport whose assertions carry exactly the theorem's inequality
direction; strict inequalities use the scenario's ``margin_strict`` (default
1e-4 in speed units) and equality cases ``tol_equality`` (default 1e-5).

Registry keys: spatial-average, temporal-average, growth-monotone, amplitude,
concavity, derivative, diffusion-monotone, shear, potential-drift,
compjlambda, simulate-validate.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .eigen import adjoint_eigenpair, dk_dB_at_zero, principal_eigen_steady, \
    principal_eigenvalue
from .fields import (CoefficientSet, PeriodicField, combine_scalar_fields,
                     gradient_drift, spatial_average, temporal_average)
from .operators import build_grid
from .scenario import Assertion, ExperimentReport, Scenario, timer
from .simulate import front_speed, smooth_bump, solve_cauchy
from .speed import shear_full_coefficients, shear_reduced_eigenvalue, shear_speed, \
    spreading_speed
from .variational import compjlambda_lower_bound

__all__ = ["EXPERIMENTS", "run_experiment"]

MARGIN_STRICT = 1e-4
TOL_EQUALITY = 1e-5


def _map_rows(fn, points, jobs: int):
    """Evaluate fn over points, optionally in threads, preserving order."""
    if jobs <= 1 or len(points) <= 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, points))


def _direction(sc: Scenario):
    raw = sc.options.get("e")
    if raw is None:
        return np.array([1.0] + [0.0] * (sc.geometry.dimension - 1))
    return np.asarray([float(t) for t in str(raw).split()], dtype=float)


def _report(sc: Scenario, name: str, inputs: dict, columns, rows, assertions,
            elapsed: float) -> ExperimentReport:
    return ExperimentReport(name, sc.name, inputs, list(columns),
                            rows, assertions, sc.seed, elapsed)


# --- growth-rate experiments ----------------------------------------------------


def run_spatial_average(sc: Scenario) -> ExperimentReport:
    """c*(mu) >= c*(spatial average of mu), strict iff mu depends on x."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    tol_eq = sc.opt_float("tol_equality", TOL_EQUALITY)
    e = _direction(sc)
    rows, assertions = [], []
    with timer() as tm:
        cs = sc.coefficients
        bar = cs.with_mu(spatial_average(cs.mu))
        r_mu = spreading_speed(cs, e, sc.grid)
        r_bar = spreading_speed(bar, e, sc.grid)
        rows.append({"case": "strict", "c_mu": r_mu.c_star, "c_avg": r_bar.c_star,
                     "difference": r_mu.c_star - r_bar.c_star})
        assertions.append(Assertion.check(
            "c*(mu) - c*(mu_bar) strict gain", "strict",
            r_mu.c_star, r_bar.c_star, margin))

        # equality case: x-independent growth rate
        mu_eq = PeriodicField.scalar(sc.opt_str("mu_equality", "1 + 0.25*sin(2*pi*t)"),
                                     sc.geometry, sc.params)
        cs_eq = cs.with_mu(mu_eq)
        bar_eq = cs.with_mu(spatial_average(mu_eq))
        r_eq = spreading_speed(cs_eq, e, sc.grid, route="floquet")
        r_eqb = spreading_speed(bar_eq, e, sc.grid, route="floquet")
        rows.append({"case": "equality", "c_mu": r_eq.c_star, "c_avg": r_eqb.c_star,
                     "difference": r_eq.c_star - r_eqb.c_star})
        assertions.append(Assertion.check(
            "x-independent mu: equality", "abs", r_eq.c_star, r_eqb.c_star,
            tol_eq, equality=True))
    rep = _report(sc, "spatial-average",
                  {"e": e.tolist(), "margin_strict": margin, "tol_equality": tol_eq},
                  ["case", "c_mu", "c_avg", "difference"], rows, assertions, tm.elapsed)
    for ctx, r in (("strict:mu", r_mu), ("strict:avg", r_bar),
                   ("equality:mu", r_eq), ("equality:avg", r_eqb)):
        rep.record_speed(ctx, r)
    return rep


def run_temporal_average(sc: Scenario) -> ExperimentReport:
    """c*(mu) >= c*(temporal average), equality iff mu = mu_1(x) + mu_2(t).

    Both speeds are computed by the same Floquet route with dt-Richardson
    extrapolation so that the 1e-8-level one-sided comparison is meaningful.
    Each ray search runs on the n_t eigenvalues and extrapolates once, at
    its minimizer (see `spreading_speed`).
    """
    tol_ineq = sc.opt_float("tol_inequality", 1e-8)
    tol_eq = sc.opt_float("tol_equality", TOL_EQUALITY)
    e = _direction(sc)
    rows, assertions = [], []
    speed_kw = dict(route="floquet", richardson=True, tol=1e-7)
    with timer() as tm:
        cs = sc.coefficients  # scenario default is separable
        hat = cs.with_mu(temporal_average(cs.mu))
        r_mu = spreading_speed(cs, e, sc.grid, **speed_kw)
        r_hat = spreading_speed(hat, e, sc.grid, **speed_kw)
        rows.append({"case": "separable", "c_mu": r_mu.c_star, "c_avg": r_hat.c_star,
                     "difference": r_mu.c_star - r_hat.c_star})
        assertions.append(Assertion.check(
            "c*(mu) >= c*(mu_hat)", "ge", r_mu.c_star, r_hat.c_star, tol_ineq))
        assertions.append(Assertion.check(
            "separable mu: equality", "abs", r_mu.c_star, r_hat.c_star, tol_eq,
            equality=True))

        mu2 = PeriodicField.scalar(
            sc.opt_str("mu_nonseparable", "1 + 0.5*cos(2*pi*x)*(1 + 0.5*sin(2*pi*t))"),
            sc.geometry, sc.params)
        cs2 = cs.with_mu(mu2)
        hat2 = cs.with_mu(temporal_average(mu2))
        r2 = spreading_speed(cs2, e, sc.grid, **speed_kw)
        r2h = spreading_speed(hat2, e, sc.grid, **speed_kw)
        rows.append({"case": "non-separable", "c_mu": r2.c_star, "c_avg": r2h.c_star,
                     "difference": r2.c_star - r2h.c_star})
        assertions.append(Assertion.check(
            "non-separable: c*(mu) >= c*(mu_hat)", "ge", r2.c_star, r2h.c_star,
            tol_ineq))
    rep = _report(sc, "temporal-average",
                  {"e": e.tolist(), "tol_inequality": tol_ineq, "tol_equality": tol_eq},
                  ["case", "c_mu", "c_avg", "difference"], rows, assertions, tm.elapsed)
    for ctx, r in (("separable:mu", r_mu), ("separable:avg", r_hat),
                   ("nonseparable:mu", r2), ("nonseparable:avg", r2h)):
        rep.record_speed(ctx, r)
    return rep


def run_growth_monotone(sc: Scenario) -> ExperimentReport:
    """mu_1 >= mu_2 pointwise implies c*(mu_1) >= c*(mu_2), strictly here."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    e = _direction(sc)
    with timer() as tm:
        cs2 = sc.coefficients
        bump = PeriodicField.scalar(sc.opt_str("increment", "0.1*(1 + cos(2*pi*x))"),
                                    sc.geometry, sc.params)
        mu1 = combine_scalar_fields([(1.0, cs2.mu), (1.0, bump)])
        cs1 = cs2.with_mu(mu1)
        r1 = spreading_speed(cs1, e, sc.grid)
        r2 = spreading_speed(cs2, e, sc.grid)
        rows = [{"case": "mu2", "c_star": r2.c_star},
                {"case": "mu2 + increment", "c_star": r1.c_star}]
        assertions = [Assertion.check("c*(mu_1) - c*(mu_2) strict gain", "strict",
                                      r1.c_star, r2.c_star, margin)]
    rep = _report(sc, "growth-monotone", {"e": e.tolist(), "margin_strict": margin},
                  ["case", "c_star"], rows, assertions, tm.elapsed)
    rep.record_speed("mu1", r1)
    rep.record_speed("mu2", r2)
    return rep


def run_amplitude(sc: Scenario) -> ExperimentReport:
    """B -> c*(mu + B eta): increasing for constant mu (part 1) and for B
    large enough over a time-independent base (part 2, monotone tail)."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    b_grid = sc.opt_floats("b_grid", (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    e = _direction(sc)
    eta = PeriodicField.scalar(
        sc.opt_str("eta", "(0.2 + cos(2*pi*x))*(1 + 0.5*sin(2*pi*t))"),
        sc.geometry, sc.params)
    base_const = sc.coefficients.with_mu(PeriodicField.scalar(
        sc.opt_str("mu_constant", "1"), sc.geometry, sc.params))
    base_hetero = sc.coefficients.with_mu(PeriodicField.scalar(
        sc.opt_str("mu_base", "1 + 0.3*cos(2*pi*x)"), sc.geometry, sc.params))
    rows, assertions, speeds = [], [], {}

    def sweep(tag, base):
        def one(B):
            mu = combine_scalar_fields([(1.0, base.mu), (B, eta)])
            return spreading_speed(base.with_mu(mu), e, sc.grid)
        results = _map_rows(one, b_grid, sc.jobs)
        for B, r in zip(b_grid, results):
            rows.append({"case": tag, "B": B, "c_star": r.c_star})
            speeds[(tag, B)] = r
        return [r.c_star for r in results]

    with timer() as tm:
        part1 = sweep("constant-base", base_const)
        # part 1: eta has positive space-time mean and depends on x: increasing
        for i in range(len(b_grid) - 1):
            assertions.append(Assertion.check(
                f"part1 c*(B={b_grid[i + 1]:g}) > c*(B={b_grid[i]:g})", "strict",
                part1[i + 1], part1[i], margin))
        part2 = sweep("heterogeneous-base", base_hetero)
        tail = len(b_grid) // 2
        for i in range(tail, len(b_grid) - 1):
            assertions.append(Assertion.check(
                f"part2 tail c*(B={b_grid[i + 1]:g}) > c*(B={b_grid[i]:g})", "strict",
                part2[i + 1], part2[i], margin))
    rep = _report(sc, "amplitude",
                  {"e": e.tolist(), "b_grid": list(b_grid), "margin_strict": margin},
                  ["case", "B", "c_star"], rows, assertions, tm.elapsed)
    for key, r in speeds.items():
        rep.record_speed(f"{key[0]}:B={key[1]:g}", r)
    return rep


def run_concavity(sc: Scenario) -> ExperimentReport:
    """Midpoint concavity of mu -> k_lam on random pairs; equality to 1e-8
    when mu_1 - mu_2 depends on t only (time-independent A, q)."""
    n_pairs = sc.opt_int("pairs", 10)
    tol = sc.opt_float("tol_violation", 1e-8)
    tol_eq = sc.opt_float("tol_equality_k", 1e-8)
    rng = np.random.default_rng(sc.seed)
    rows, assertions = [], []
    rep_records = []
    with timer() as tm:
        for trial in range(n_pairs):
            c1 = rng.uniform(-0.6, 0.6, 4)
            c2 = rng.uniform(-0.6, 0.6, 4)
            lam = [float(rng.uniform(-1.5, 1.5))]

            def trig_mu(c):
                return (f"{c[0]:.8f} + {c[1]:.8f}*cos(2*pi*x) + "
                        f"{c[2]:.8f}*sin(2*pi*x) + {c[3]:.8f}*cos(4*pi*x)")

            ks = []
            for c in (c1, c2, 0.5 * (c1 + c2)):
                cs = sc.coefficients.with_mu(
                    PeriodicField.scalar(trig_mu(c), sc.geometry))
                res = principal_eigen_steady(cs, lam, sc.grid)
                ks.append(res.k)
                rep_records.append(res)
            gap = ks[2] - 0.5 * (ks[0] + ks[1])
            rows.append({"case": f"random-{trial}", "lambda": lam[0],
                         "k_mu1": ks[0], "k_mu2": ks[1], "k_mid": ks[2],
                         "concavity_gap": gap})
            assertions.append(Assertion.check(
                f"pair {trial}: k(mid) >= mean", "ge", ks[2],
                0.5 * (ks[0] + ks[1]), tol))

        # equality case: mu_1 - mu_2 = g(t)
        mu2 = PeriodicField.scalar(sc.opt_str("mu_equality_base", "1 + 0.4*sin(2*pi*x)"),
                                   sc.geometry, sc.params)
        gt = PeriodicField.scalar(
            sc.opt_str("time_shift", "0.6*sin(2*pi*t) + 0.2*cos(4*pi*t)"),
            sc.geometry, sc.params)
        lam_eq = [sc.opt_float("lambda_equality", 0.8)]
        ks = []
        for r in (0.0, 1.0, 0.5):
            mu = combine_scalar_fields([(1.0, mu2), (r, gt)])
            res = principal_eigenvalue(sc.coefficients.with_mu(mu), lam_eq, sc.grid,
                                       route="floquet", richardson=True)
            ks.append(res.k_extrapolated)
            rep_records.append(res)
        gap = ks[2] - 0.5 * (ks[0] + ks[1])
        rows.append({"case": "equality-time-shift", "lambda": lam_eq[0],
                     "k_mu1": ks[1], "k_mu2": ks[0], "k_mid": ks[2],
                     "concavity_gap": gap})
        assertions.append(Assertion.check(
            "time-only difference: equality", "abs", ks[2], 0.5 * (ks[0] + ks[1]),
            tol_eq, equality=True))
    rep = _report(sc, "concavity", {"pairs": n_pairs, "tol_violation": tol},
                  ["case", "lambda", "k_mu1", "k_mu2", "k_mid", "concavity_gap"],
                  rows, assertions, tm.elapsed)
    for res in rep_records:
        rep.record_eigen("concavity", res)
    return rep


def run_derivative(sc: Scenario) -> ExperimentReport:
    """dk/dB at B=0 equals -integral eta phi phi_tilde; finite-difference check."""
    h = sc.opt_float("fd_step", 1e-4)
    tol_rel = sc.opt_float("tol_relative", 1e-3)
    lam_list = sc.opt_floats("lambda_probes", (0.0, 1.0))
    eta = PeriodicField.scalar(sc.opt_str("eta", "cos(4*pi*x)"), sc.geometry, sc.params)
    rows, assertions = [], []
    rep_records = []
    with timer() as tm:
        cs = sc.coefficients
        for lam_val in lam_list:
            lam = [lam_val] + [0.0] * (sc.geometry.dimension - 1)
            pair = adjoint_eigenpair(cs, lam, sc.grid)
            deriv = dk_dB_at_zero(cs, lam, eta, sc.grid, pair=pair)
            k0 = pair.k
            mu_b = combine_scalar_fields([(1.0, cs.mu), (h, eta)])
            res_b = principal_eigen_steady(cs.with_mu(mu_b), lam, sc.grid)
            rep_records.append(res_b)
            fd = (res_b.k - k0) / h
            rows.append({"lambda": lam_val, "dk_formula": deriv, "dk_fd": fd,
                         "k0": k0, "abs_error": abs(deriv - fd)})
            assertions.append(Assertion.check(
                f"lambda={lam_val:g}: adjoint-weighted derivative vs FD", "abs",
                deriv, fd, tol_rel * abs(k0)))
    rep = _report(sc, "derivative",
                  {"fd_step": h, "tol_relative": tol_rel,
                   "lambda_probes": list(lam_list)},
                  ["lambda", "dk_formula", "dk_fd", "k0", "abs_error"],
                  rows, assertions, tm.elapsed)
    for res in rep_records:
        rep.record_eigen("derivative", res)
    return rep


# --- diffusion and drift experiments ---------------------------------------------


def run_diffusion_monotone(sc: Scenario) -> ExperimentReport:
    """kappa -> c*(kappa A, 0, mu) increasing (time-independent, q = 0);
    plus k_{lambda e} <= k_0 for the probe lambdas."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    kappa_grid = sc.opt_floats("kappa_grid", (0.25, 0.5, 1.0, 2.0, 4.0))
    lam_probes = sc.opt_floats("lambda_probes", (0.5, 1.0, 2.0))
    e = _direction(sc)
    rows, assertions = [], []
    rep_records = []
    with timer() as tm:
        speeds = []

        def one(kappa):
            return spreading_speed(sc.coefficients.with_scaled(kappa=kappa), e, sc.grid)

        results = _map_rows(one, kappa_grid, sc.jobs)
        for kappa, r in zip(kappa_grid, results):
            speeds.append(r.c_star)
            rows.append({"case": "speed", "kappa": kappa, "lambda": "",
                         "c_star": r.c_star, "k": "", "k0": ""})
        for i in range(len(kappa_grid) - 1):
            assertions.append(Assertion.check(
                f"c*({kappa_grid[i + 1]:g}A) > c*({kappa_grid[i]:g}A)", "strict",
                speeds[i + 1], speeds[i], margin))
        for kappa in kappa_grid:
            cs_k = sc.coefficients.with_scaled(kappa=kappa)
            k0 = principal_eigen_steady(cs_k, [0.0] * sc.geometry.dimension, sc.grid)
            rep_records.append(k0)
            for lam_val in lam_probes:
                lam = [lam_val * ei for ei in e]
                res = principal_eigen_steady(cs_k, lam, sc.grid)
                rep_records.append(res)
                rows.append({"case": "lambda-max-at-zero", "kappa": kappa,
                             "lambda": lam_val, "c_star": "", "k": res.k,
                             "k0": k0.k})
                assertions.append(Assertion.check(
                    f"kappa={kappa:g}, lambda={lam_val:g}: k_lambda <= k_0", "le",
                    res.k, k0.k, 1e-10))
    rep = _report(sc, "diffusion-monotone",
                  {"kappa_grid": list(kappa_grid), "lambda_probes": list(lam_probes),
                   "margin_strict": margin, "e": e.tolist()},
                  ["case", "kappa", "lambda", "c_star", "k", "k0"],
                  rows, assertions, tm.elapsed)
    for r in results:
        rep.record_speed("diffusion", r)
    for res in rep_records:
        rep.record_eigen("diffusion", res)
    return rep


def run_shear(sc: Scenario) -> ExperimentReport:
    """Shear flow q = (B q_1(y), 0): B -> c*_e increasing; the reduced
    eigenvalue matches the full 2D one at a probe wavevector."""
    margin = sc.opt_float("margin_strict", MARGIN_STRICT)
    b_grid = sc.opt_floats("b_grid", (0.0, 1.0, 2.0, 4.0))
    probe_lam = sc.opt_float("lambda_probe", 0.7)
    probe_B = sc.opt_float("b_probe", 1.0)
    tol_probe = sc.opt_float("tol_probe", 1e-5)
    e2 = _direction(sc) if sc.options.get("e") else np.array([1.0, 0.0])
    cs = sc.coefficients
    a = cs.A.component(0, 0)
    q1 = cs.q.component(0)
    mu = cs.mu
    rows, assertions = [], []
    with timer() as tm:
        def one(B):
            q1B = combine_scalar_fields([(B, q1)])
            return shear_speed(a, q1B, mu, e2, sc.grid)

        results = _map_rows(one, b_grid, sc.jobs)
        for B, r in zip(b_grid, results):
            rows.append({"case": "speed", "B": B, "c_star": r.c_star,
                         "k_reduced": "", "k_full": ""})
        for i in range(len(b_grid) - 1):
            assertions.append(Assertion.check(
                f"c*(B={b_grid[i + 1]:g}) > c*(B={b_grid[i]:g})", "strict",
                results[i + 1].c_star, results[i].c_star, margin))

        q1p = combine_scalar_fields([(probe_B, q1)])
        n_y = sc.opt_int("n_full", 64)
        grid_y = build_grid(sc.geometry, n_y)
        red = shear_reduced_eigenvalue(a, q1p, mu, e2, probe_lam, grid_y)
        full_cs = shear_full_coefficients(a, q1p, mu)
        grid_full = build_grid(full_cs.geometry, (n_y, n_y))
        full = principal_eigenvalue(full_cs, [probe_lam * e2[0], probe_lam * e2[1]],
                                    grid_full)
        rows.append({"case": "probe", "B": probe_B, "c_star": "",
                     "k_reduced": red.k, "k_full": full.k})
        assertions.append(Assertion.check(
            f"reduced vs full k at lambda={probe_lam:g}", "abs", red.k, full.k,
            tol_probe))
    rep = _report(sc, "shear",
                  {"b_grid": list(b_grid), "lambda_probe": probe_lam,
                   "margin_strict": margin, "e": e2.tolist()},
                  ["case", "B", "c_star", "k_reduced", "k_full"],
                  rows, assertions, tm.elapsed)
    for B, r in zip(b_grid, results):
        rep.record_speed(f"shear:B={B:g}", r)
    rep.record_eigen("shear:probe-reduced", red)
    rep.record_eigen("shear:probe-full", full)
    return rep


def run_potential_drift(sc: Scenario) -> ExperimentReport:
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
    Q = PeriodicField.scalar(sc.opt_str("potential", "0.3*cos(2*pi*x)"),
                             sc.geometry, sc.params)
    q, _ = gradient_drift(Q)
    geometry = sc.geometry
    A_I = PeriodicField.matrix("1", geometry)
    mu_field = PeriodicField.scalar(str(mu0), geometry)
    base = CoefficientSet(A_I, q, mu_field, geometry)
    cap = 2.0 * float(np.sqrt(mu0))
    rows, assertions = [], []
    with timer() as tm:
        def one(B):
            return spreading_speed(base.with_scaled(drift_B=B), e, sc.grid)

        results = _map_rows(one, b_grid, sc.jobs)
        for B, r in zip(b_grid, results):
            rows.append({"case": "speed", "B": B, "lambda": "", "c_star": r.c_star,
                         "value_drift": "", "value_potential": ""})
            assertions.append(Assertion.check(
                f"c*(B={B:g}) <= 2 sqrt(mu0)", "le", r.c_star, cap, tol_cap))
        tail = [B for B in b_grid if B >= sc.opt_float("ratio_from", 5.0)]
        ratios = {B: results[b_grid.index(B)].c_star / B for B in tail}
        for b1, b2 in zip(tail, tail[1:]):
            assertions.append(Assertion.check(
                f"c*(B)/B decreasing {b1:g}->{b2:g}", "le", ratios[b2], ratios[b1],
                0.0))

        # transform identity: k(I, B grad Q, mu0) = k(I, 0, mu0 + (B/2) Lap Q
        # - (B^2/4)|grad Q|^2), both with dx-Richardson extrapolation
        n_fine = sc.opt_int("n_transform", 4096)
        lam_probes = sc.opt_floats("lambda_probes", (0.0, 0.5))
        b_probes = sc.opt_floats("b_probes", (1.0, 2.0))
        zero_q = PeriodicField.vector([0.0] * geometry.dimension, geometry)

        def k_extrapolated(cs, lam):
            vals = []
            for n in (n_fine // 2, n_fine):
                g = build_grid(geometry, n)
                res = principal_eigen_steady(cs, lam, g)
                vals.append(res.k)
            return (4.0 * vals[1] - vals[0]) / 3.0

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
                rows.append({"case": "transform", "B": B, "lambda": lam_val,
                             "c_star": "", "value_drift": kd, "value_potential": kp})
                assertions.append(Assertion.check(
                    f"transform identity B={B:g}, lambda={lam_val:g}", "abs",
                    kd, kp, tol_transform))
    rep = _report(sc, "potential-drift",
                  {"b_grid": list(b_grid), "mu0": mu0, "tol_cap": tol_cap,
                   "tol_transform": tol_transform, "e": e.tolist()},
                  ["case", "B", "lambda", "c_star", "value_drift", "value_potential"],
                  rows, assertions, tm.elapsed)
    for B, r in zip(b_grid, results):
        rep.record_speed(f"potential-drift:B={B:g}", r)
    return rep


def run_compjlambda(sc: Scenario) -> ExperimentReport:
    """k_lam(A, q, mu) >= k_0(A, 0, div(q)/2 + lam.A.lam - lam.q + mu) on
    randomized time-independent trigonometric instances with q = grad Q."""
    n_cases = sc.opt_int("cases", 20)
    tol = sc.opt_float("tol_margin", 1e-8)
    rng = np.random.default_rng(sc.seed)
    geometry = sc.geometry
    rows, assertions = [], []
    rep_records = []
    with timer() as tm:
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
            res = principal_eigen_steady(cs, lam, sc.grid)
            rep_records.append(res)
            bound = compjlambda_lower_bound(cs, lam, sc.grid)
            rows.append({"case": trial, "lambda": lam_val, "k": res.k,
                         "lower_bound": bound, "margin": res.k - bound})
            assertions.append(Assertion.check(
                f"instance {trial}: k >= drift-elimination bound", "ge",
                res.k, bound, tol))
    rep = _report(sc, "compjlambda", {"cases": n_cases, "tol_margin": tol,
                                      "seed": sc.seed},
                  ["case", "lambda", "k", "lower_bound", "margin"],
                  rows, assertions, tm.elapsed)
    for res in rep_records:
        rep.record_eigen("compjlambda", res)
    return rep


def run_simulate_validate(sc: Scenario) -> ExperimentReport:
    """Front speeds of the nonlinear solver against c*; comparison-principle
    and [0,1]-invariance property runs."""
    rel_tol = sc.opt_float("tol_relative", 0.05)
    t_end = sc.opt_float("t_end", 40.0)
    n_prop = sc.opt_int("property_runs", 10)
    sim_grid = build_grid(sc.geometry, sc.opt_int("points_per_cell", 64),
                          sc.opt_int("steps_per_period", 100))
    rows, assertions = [], []
    with timer() as tm:
        cases = {
            "homogeneous": CoefficientSet.from_expressions(
                A="1", mu="1", T=sc.geometry.period, L=sc.geometry.lengths[0]),
            "periodic-mu": sc.coefficients,
            "constant-drift": CoefficientSet.from_expressions(
                A="1", q="1", mu="1", T=sc.geometry.period, L=sc.geometry.lengths[0]),
        }
        speed_records = []
        for tag, cs in cases.items():
            c_star = spreading_speed(cs, [1.0], sc.grid)
            speed_records.append((tag, c_star))
            c_left = 2.0  # generous allowance for the leftward front
            travel = c_star.c_star * t_end
            span = (int(np.ceil(c_left * t_end / sc.geometry.lengths[0])) + 10,
                    int(np.ceil(travel / sc.geometry.lengths[0] * 1.15)) + 10)
            run = solve_cauchy(cs, smooth_bump(0.0, 1.0, 1.0), cells=0,
                               t_end=t_end, grid=sim_grid, span=span)
            est = front_speed(run, 1)
            rows.append({"case": tag, "c_star": c_star.c_star,
                         "measured": est.speed,
                         "ratio": est.speed / c_star.c_star,
                         "fit_residual": est.residual,
                         "valid": run.valid})
            assertions.append(Assertion.check(
                f"{tag}: measured >= (1 - {rel_tol:g}) c*", "ge", est.speed,
                (1 - rel_tol) * c_star.c_star, 0.0))
            assertions.append(Assertion.check(
                f"{tag}: measured <= (1 + {rel_tol:g}) c*", "le", est.speed,
                (1 + rel_tol) * c_star.c_star, 0.0))

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
        rows.append({"case": "property-runs", "c_star": "", "measured": "",
                     "ratio": "", "fit_residual": "", "valid": True})
        assertions.append(Assertion.check(
            "comparison principle worst violation", "le", worst_cmp, 0.0, 1e-8))
        assertions.append(Assertion.check(
            "[0,1]-invariance lower", "ge", worst_lo, 0.0, 1e-8))
        assertions.append(Assertion.check(
            "[0,1]-invariance upper", "le", worst_hi, 1.0, 1e-8))
    rep = _report(sc, "simulate-validate",
                  {"tol_relative": rel_tol, "t_end": t_end,
                   "property_runs": n_prop, "seed": sc.seed},
                  ["case", "c_star", "measured", "ratio", "fit_residual", "valid"],
                  rows, assertions, tm.elapsed)
    for tag, r in speed_records:
        rep.record_speed(f"simulate:{tag}", r)
    return rep


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
    """Dispatch a scenario to its named experiment."""
    if not sc.experiment:
        raise ValueError("scenario does not name an experiment")
    if sc.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {sc.experiment!r} (known: {known})")
    return EXPERIMENTS[sc.experiment](sc)
