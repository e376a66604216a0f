"""Acceptance suite: one machine-checked test per criterion, each printing a
single pass/fail line (run with -s to see them live).

Criteria that correspond to named experiments are exercised through the
shipped scenario files, so the scenario/report machinery is part of the
acceptance path.  Every eigenvalue computed along the way (the points of
each ray search and its minimizer alike) deposits its sandwich record into a
module-level ledger, which the certification criterion checks at the end;
the records of a scenario run carry the scenario's name in their context.
"""

import time

import numpy as np
import pytest

from kppspeed.fields import CoefficientSet
from kppspeed.operators import build_grid
from kppspeed.scenario import load_scenario
from kppspeed.experiments import run_experiment
from kppspeed.speed import spreading_speed

from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

RECORDS = []  # sandwich certificates of every eigenpair the criteria touch


def _note_speed(context, result):
    if result.eigen is not None:
        RECORDS.append({"context": context + ":minimizer", "k": result.eigen.k,
                        "lower": result.eigen.lower, "upper": result.eigen.upper})
    for rec in result.records:
        RECORDS.append({"context": context, "k": rec["k"],
                        "lower": rec["lower"], "upper": rec["upper"]})


def _verdict(n, description, ok, detail=""):
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _run(name):
    report = run_experiment(load_scenario(SCENARIOS / f"{name}.ini"))
    RECORDS.extend(dict(rec, context=f"{report.scenario}/{rec['context']}")
                   for rec in report.eigen_records)
    return report


@pytest.fixture(scope="module")
def spatial_report():
    return _run("spatial_average")


@pytest.fixture(scope="module")
def temporal_report():
    return _run("temporal_average")


@pytest.fixture(scope="module")
def growth_report():
    return _run("growth_monotone")


@pytest.fixture(scope="module")
def diffusion_report():
    return _run("diffusion_monotone")


@pytest.fixture(scope="module")
def shear_report():
    return _run("shear")


@pytest.fixture(scope="module")
def potential_report():
    return _run("potential_drift")


@pytest.fixture(scope="module")
def compj_report():
    return _run("compjlambda")


@pytest.fixture(scope="module")
def derivative_report():
    return _run("derivative")


@pytest.fixture(scope="module")
def concavity_report():
    return _run("concavity")


@pytest.fixture(scope="module")
def simulate_report():
    return _run("simulate_validate")


def _rows(report, **match):
    out = []
    for row in report.rows:
        if all(row.get(k) == v for k, v in match.items()):
            out.append(row)
    return out


def test_criterion_01_homogeneous_speed():
    cs = CoefficientSet.from_expressions(A="1", q="0", mu="1")
    grid = build_grid(cs.geometry, 256)
    t0 = time.perf_counter()
    r = spreading_speed(cs, [1.0], grid)
    elapsed = time.perf_counter() - t0
    _note_speed("crit1", r)
    ok = abs(r.c_star - 2.0) <= 1e-3 and elapsed < 5.0
    _verdict(1, "homogeneous c* = 2 within 1e-3, under 5 s", ok,
             f"c*={r.c_star:.8f}, {elapsed:.2f}s")


def test_criterion_02_closed_form_agreement():
    # space-independent coefficients: c* = 2 sqrt(<A> mu) = 2 sqrt(2)
    cs = CoefficientSet.from_expressions(A="2 + cos(2*pi*t)", q="0", mu="1")
    # n_t=768 keeps the sandwich width of the widest bracketing sample
    # (s ~ 1.3, where the oscillation amplitude grows with s^2) under 1e-4
    ray = spreading_speed(cs, [1.0], build_grid(cs.geometry, 32, 768),
                          route="floquet")
    _note_speed("crit2", ray)
    diff = abs(ray.c_star - 2 * np.sqrt(2.0))
    ok = diff <= 1e-3
    _verdict(2, "time-periodic diffusion: ray search matches closed form", ok,
             f"|diff|={diff:.2e}, c*={ray.c_star:.8f}")


def test_criterion_03_constant_drift_oracle():
    cs = CoefficientSet.from_expressions(A="1", q=("1", "0"), mu="1", L=(1.0, 1.0))
    grid = build_grid(cs.geometry, (24, 24))
    r = spreading_speed(cs, [1.0, 0.0], grid)
    _note_speed("crit3", r)
    ok = abs(r.c_star - 3.0) <= 1e-3
    _verdict(3, "constant drift (1,0): c*_{e1} = 3 (traveling-frame oracle)", ok,
             f"c*={r.c_star:.8f}")


def test_criterion_04_spatial_averaging(spatial_report):
    strict = _rows(spatial_report, case="strict")[0]
    eq = _rows(spatial_report, case="equality")[0]
    ok = (strict["difference"] >= 1e-4 and abs(eq["difference"]) <= 1e-5
          and spatial_report.passed)
    _verdict(4, "spatial averaging lowers c*, equality iff x-independent", ok,
             f"strict gain={strict['difference']:.3e}, equality |diff|="
             f"{abs(eq['difference']):.2e}")


def test_criterion_05_temporal_averaging(temporal_report):
    row = _rows(temporal_report, case="separable")[0]
    d = row["difference"]
    ok = d >= -1e-8 and abs(d) <= 1e-5
    _verdict(5, "temporal averaging: c*(mu) >= c*(mu_hat), equality separable",
             ok, f"difference={d:.3e}")


def test_criterion_06_growth_monotonicity(growth_report):
    c2 = _rows(growth_report, case="mu2")[0]["c_star"]
    c1 = _rows(growth_report, case="mu2 + increment")[0]["c_star"]
    ok = c1 - c2 >= 1e-4
    _verdict(6, "adding 0.1(1 + cos 2 pi x) to mu raises c*", ok,
             f"gain={c1 - c2:.4e}")


def test_criterion_07_diffusion_monotonicity(diffusion_report):
    speeds = [(row["kappa"], row["c_star"])
              for row in _rows(diffusion_report, case="speed")]
    steps_ok = all(b[1] - a[1] >= 1e-4 for a, b in zip(speeds, speeds[1:]))
    probes = _rows(diffusion_report, case="lambda-max-at-zero")
    probes_ok = all(row["k"] <= row["k0"] + 1e-10 for row in probes)
    ok = steps_ok and probes_ok and diffusion_report.passed
    _verdict(7, "kappa -> c*(kappa A) strictly increasing; k_lambda <= k_0", ok,
             f"{len(speeds)} kappas, {len(probes)} lambda probes")


def test_criterion_08_shear_speedup(shear_report):
    speeds = [(row["B"], row["c_star"]) for row in _rows(shear_report, case="speed")]
    increasing = all(b[1] - a[1] >= 1e-4 for a, b in zip(speeds, speeds[1:]))
    probe = _rows(shear_report, case="probe")[0]
    probe_ok = abs(probe["k_reduced"] - probe["k_full"]) <= 1e-5
    ok = increasing and probe_ok
    _verdict(8, "shear amplitude raises c*; reduced = full eigenvalue", ok,
             f"probe |diff|={abs(probe['k_reduced'] - probe['k_full']):.2e}")


def test_criterion_09_potential_drift_slowdown(potential_report):
    rows = _rows(potential_report, case="speed")
    caps_ok = all(row["c_star"] <= 2.0 + 1e-6 for row in rows)
    tail = [(row["B"], row["c_star"] / row["B"]) for row in rows if row["B"] >= 5]
    trend_ok = all(b[1] < a[1] for a, b in zip(tail, tail[1:]))
    ok = caps_ok and trend_ok
    _verdict(9, "gradient drifts: c*(B) <= 2 sqrt(mu0), c*(B)/B decreasing", ok,
             f"max c*={max(r['c_star'] for r in rows):.6f}")


def test_criterion_10_potential_transform_identity(potential_report):
    rows = _rows(potential_report, case="transform")
    worst = max(abs(row["value_drift"] - row["value_potential"]) for row in rows)
    ok = len(rows) == 4 and worst <= 1e-6
    _verdict(10, "k(I, B grad Q, mu0) = k(I, 0, transformed potential)", ok,
             f"worst |diff|={worst:.2e}")


def test_criterion_11_drift_elimination_bound(compj_report):
    margins = [row["margin"] for row in compj_report.rows]
    ok = len(margins) == 20 and min(margins) >= -1e-8
    _verdict(11, "k_lambda >= drift-elimination bound on 20 random instances",
             ok, f"min margin={min(margins):.3e}")


def test_criterion_12_derivative_formula(derivative_report):
    ok = True
    details = []
    for row in derivative_report.rows:
        err = abs(row["dk_formula"] - row["dk_fd"])
        ok = ok and err <= 1e-3 * abs(row["k0"])
        details.append(f"lam={row['lambda']:g}: {err:.2e}")
    _verdict(12, "dk/dB at 0 matches the finite-difference slope", ok,
             "; ".join(details))


def test_criterion_13_concavity_suite(concavity_report):
    randoms = [row for row in concavity_report.rows
               if str(row["case"]).startswith("random")]
    pair_ok = (len(randoms) == 10
               and all(row["concavity_gap"] >= -1e-8 for row in randoms))
    eq = [row for row in concavity_report.rows
          if row["case"] == "equality-time-shift"][0]
    eq_ok = abs(eq["concavity_gap"]) <= 1e-8
    ok = pair_ok and eq_ok
    _verdict(13, "midpoint concavity of mu -> k; equality for t-only shifts",
             ok, f"equality gap={eq['concavity_gap']:.2e}")


def test_criterion_14_sandwich_certification(
        spatial_report, temporal_report, growth_report, diffusion_report,
        shear_report, potential_report, compj_report, derivative_report,
        concavity_report):
    # the fixture arguments force every experiment's records into the ledger,
    # and each of them must have contributed some
    reports = (spatial_report, temporal_report, growth_report, diffusion_report,
               shear_report, potential_report, compj_report, derivative_report,
               concavity_report)
    sources = {r["context"].split("/", 1)[0] for r in RECORDS}
    missing = [rep.scenario for rep in reports if rep.scenario not in sources]
    assert not missing, f"no eigenpairs in the ledger from {missing}"
    worst_width = max(r["upper"] - r["lower"] for r in RECORDS)
    contained = all(r["lower"] <= r["k"] <= r["upper"] for r in RECORDS)
    ok = contained and worst_width <= 1e-4
    _verdict(14, "every converged eigenpair sits inside its sandwich bounds",
             ok, f"{len(RECORDS)} pairs, worst width={worst_width:.2e}")


def test_criterion_15_simulation_cross_validation(simulate_report):
    rows = [row for row in simulate_report.rows if row["case"] != "property-runs"]
    ratio_ok = all(0.95 <= row["ratio"] <= 1.05 for row in rows)
    ok = ratio_ok and simulate_report.passed and len(rows) == 3
    details = ", ".join(f"{row['case']}: {row['ratio']:.4f}" for row in rows)
    _verdict(15, "front speeds within 5% of c*; comparison/invariance hold",
             ok, details)
